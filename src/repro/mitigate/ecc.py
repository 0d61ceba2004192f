"""Word-level ECC over a PARBOR failure map.

SEC-DED (single-error-correct, double-error-detect) codes protect each
64-bit word with 8 check bits (the (72, 64) Hamming code used by
server DIMMs - and modeled bit-exactly by
:class:`repro.ecc.HammingSecDed`). A word containing one vulnerable
cell is *correctable*; a word with exactly two produces a detected but
uncorrectable error; a word with three or more can *miscorrect* - the
decoder flips a healthy bit and the corruption passes silently.
PARBOR's map makes this analysis possible at the system level -
without it, the system cannot even count the vulnerable cells per
word.

The three-way classification is reconciled with the bit-exact code:
``tests/ecc/test_secded.py`` proves every single-bit error decodes
``CORRECTED``, every double-bit error ``DETECTED``, and that
miscorrections only ever arise at three or more simultaneous errors -
exactly the bands :func:`classify` assigns from the count alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

__all__ = ["CLASSES", "EccReport", "classify", "ecc_coverage"]

Coord = Tuple[int, int, int, int]

#: :func:`classify` bands, in increasing severity.
CLASSES = ("clean", "correctable", "detect-only", "miscorrection-prone")


def classify(errors_in_word: int) -> str:
    """Three-way severity class of a word by vulnerable-cell count.

    ``"correctable"`` (one cell: the decoder fixes it),
    ``"detect-only"`` (two: guaranteed detected, never silently wrong,
    but uncorrectable), ``"miscorrection-prone"`` (three or more: the
    syndrome can alias a single-bit column and the decoder then
    corrupts a healthy cell).  Zero cells is ``"clean"``.  The bands
    are count-based on purpose: miscorrection-prone is a worst case,
    and a decode would need the vendor's secret column order.
    """
    return CLASSES[min(max(errors_in_word, 0), 3)]


@dataclass
class EccReport:
    """ECC coverage of one failure map.

    Attributes:
        total_vulnerable_cells: failures in the map.
        words_with_failures: distinct (row, word) groups affected.
        correctable_words: words with exactly one vulnerable cell.
        detect_only_words: words with exactly two - errors are caught
            but not fixed.
        miscorrection_prone_words: words with three or more - the
            decoder may silently corrupt a healthy cell.
    """

    total_vulnerable_cells: int
    words_with_failures: int
    correctable_words: int
    detect_only_words: int
    miscorrection_prone_words: int

    @property
    def uncorrectable_words(self) -> int:
        """Words with two or more vulnerable cells (legacy two-way view)."""
        return self.detect_only_words + self.miscorrection_prone_words

    @property
    def coverage(self) -> float:
        """Fraction of affected words the code fully protects."""
        if self.words_with_failures == 0:
            return 1.0
        return self.correctable_words / self.words_with_failures

    @property
    def storage_overhead(self) -> float:
        """Check bits per data bit of the (72, 64) code: 0.125."""
        from ..ecc.secded import CHECK_BITS, DATA_BITS
        return CHECK_BITS / DATA_BITS


def ecc_coverage(detected: Iterable[Coord],
                 quarantine=None) -> EccReport:
    """Analyse a detected-failure map under a word-level ECC.

    Args:
        detected: (chip, bank, row, sys_col) failure coordinates, as
            produced by a PARBOR campaign; words are groups of
            ``DATA_BITS`` system columns.
        quarantine: optional :class:`repro.robust.QuarantineSet`;
            unstable cells are counted as vulnerable too - an
            intermittent cell still consumes the word's single
            correctable error, so leaving it out would overstate
            coverage.

    Returns:
        An :class:`EccReport`.
    """
    # Imported here so that ``import repro``, which loads this
    # package, does not also load the on-die ECC stack of repro.ecc.
    from ..ecc.secded import DATA_BITS
    cells = set(detected)
    if quarantine:
        cells |= set(quarantine.reasons)
    words: Dict[Tuple[int, int, int, int], int] = {}
    total = 0
    for chip, bank, row, col in cells:
        total += 1
        key = (chip, bank, row, col // DATA_BITS)
        words[key] = words.get(key, 0) + 1

    tally = {name: 0 for name in CLASSES}
    for n in words.values():
        tally[classify(n)] += 1
    return EccReport(total_vulnerable_cells=total,
                     words_with_failures=len(words),
                     correctable_words=tally["correctable"],
                     detect_only_words=tally["detect-only"],
                     miscorrection_prone_words=tally["miscorrection-prone"])
