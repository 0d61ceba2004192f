"""Bit-exact (72, 64) SECDED Hamming code over packed ``uint64`` words.

The code is represented by its parity-check matrix ``H``: one 8-bit
*column* per codeword position.  Construction (the classic
odd-weight-column / overall-parity SEC-DED):

* data position ``p`` gets column ``h_p | 0x80`` where ``h_p`` is a
  7-bit value of weight >= 2 (120 candidates exist: 127 nonzero values
  minus the 7 unit vectors);
* check position ``j < 7`` gets column ``(1 << j) | 0x80``;
* check position 7 gets column ``0x80`` - row 7 is the overall parity
  over all 72 bits.

All 72 columns are distinct and nonzero, so every single-bit error has
a unique syndrome (single-error correction).  Every column has bit 7
set, so any even-weight error has a syndrome with bit 7 clear and can
never match a column: double errors are always detected, never
(mis)corrected.  Odd-weight errors of three or more bits *can* land on
a data column - the miscorrection mechanism the on-die ECC lens
injects and the BEER probes exploit.

The packed path works on arrays of ``uint64`` data words: a word's
data syndrome is the XOR of eight byte-indexed lookups into a
per-code ``8 x 256`` table, and decoding maps each syndrome byte to
a status and a flip mask.  It is the only production decoder: the
on-die stage decodes every touched word of a read through it in one
call, in lens mode, on BEER probe reads and in recovery (whose
recovered decode uses the same byte tables, built from the recovered
columns).  ``tests/oracle.py`` holds the independent reference (XOR the
``H`` columns of set bits one by one) that the packed path is tested
byte-identical against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterable, Sequence, Tuple

import numpy as np

from .._kernels import _LITTLE_ENDIAN
from ..runtime.seeds import ladder_seed

__all__ = ["HammingSecDed", "decode_with_tables", "byte_syndrome_table",
           "word_syndromes", "CANDIDATE_COLUMNS",
           "DATA_BITS", "CHECK_BITS", "CLEAN", "CORRECTED",
           "CORRECTED_CHECK", "DETECTED", "UNDETECTED", "MISCORRECTED",
           "NO_MATCH", "CHECK_COLUMN"]

DATA_BITS = 64
CHECK_BITS = 8
PARITY_BIT = 0x80  # syndrome bit 7: overall parity over all 72 bits

#: The 120 legal data columns: 7-bit values of weight >= 2, ascending.
CANDIDATE_COLUMNS: Tuple[int, ...] = tuple(
    v for v in range(1, 128) if bin(v).count("1") >= 2)

# Decode statuses (per word).
CLEAN = 0            # syndrome zero, nothing stored was wrong
CORRECTED = 1        # syndrome matched a data column that was in error
CORRECTED_CHECK = 2  # syndrome matched a check column (data untouched)
DETECTED = 3         # nonzero syndrome matched nothing: flagged, no fix
UNDETECTED = 4       # errors present but syndrome zero: silent escape
MISCORRECTED = 5     # syndrome matched a *healthy* data bit and flipped it

# Syndrome-lookup sentinels.
NO_MATCH = -1
CHECK_COLUMN = -2

_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
#: Check byte -> its syndrome contribution: the XOR of the check
#: columns of its set bits (low 7 bits verbatim, bit 7 its parity).
_CHECK_SYNDROMES = ((np.arange(256) & 0x7F)
                    | ((_POP8 & 1) << 7)).astype(np.uint8)
_BYTE_SHIFTS = np.arange(0, 64, 8, dtype=np.uint64)
_BYTE_OFFSETS = np.arange(0, 8 * 256, 256, dtype=np.intp)


def byte_syndrome_table(columns: Sequence[int]) -> np.ndarray:
    """Flat ``8 * 256`` syndrome table of 64 data columns.

    Entry ``256*i + v`` is the syndrome of byte value ``v`` at byte
    ``i`` of a word: the XOR of the columns of its set bits.  Works
    for the true code's columns and for recovered ones alike.
    """
    cols = np.array(columns, dtype=np.uint8).reshape(8, 8)
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    table = np.zeros((8, 256), dtype=np.uint8)
    for b in range(8):
        table ^= np.where(bits[:, b] == 1, cols[:, b, None],
                          0).astype(np.uint8)
    return table.ravel()


def word_syndromes(table: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Per ``uint64`` word, its syndrome under a
    :func:`byte_syndrome_table`: eight byte-indexed lookups, XORed.

    The eight looked-up bytes of a word are adjacent, so they are
    read back as one ``uint64`` and XOR-folded in three shifts.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _LITTLE_ENDIAN:
        by = words.view(np.uint8).reshape(words.shape + (8,))
    else:
        by = ((words[..., None] >> _BYTE_SHIFTS)
              & np.uint64(0xFF)).astype(np.uint8)
    folded = table[by + _BYTE_OFFSETS].view(np.uint64)[..., 0]
    for shift in (32, 16, 8):
        folded = folded ^ (folded >> np.uint64(shift))
    return (folded & np.uint64(0xFF)).astype(np.uint8)


def decode_with_tables(errors: FrozenSet[int], columns: Tuple[int, ...],
                       lookup: np.ndarray) -> Tuple[FrozenSet[int], int]:
    """Decode one word given only its *data-bit error positions*.

    In this failure model the stored check bits never decay (see
    ``docs/ECC.md``), so the received syndrome is a pure function of
    the data-bit error pattern: the XOR of the ``H`` columns of the
    failed positions.  Returns the post-correction error set - the
    positions where the word the controller sees still differs from
    what was written - plus the decode status.

    Works for the true code's tables and for the recovered tables of a
    BEER inference alike (the two are row-equivalent, which preserves
    both ``syndrome == 0`` and column matches, so the predicted decoder
    action is identical - see :mod:`repro.ecc.beer`).
    """
    syndrome = 0
    for p in errors:
        syndrome ^= columns[p]
    if syndrome == 0:
        return errors, (CLEAN if not errors else UNDETECTED)
    match = int(lookup[syndrome])
    if match >= 0:
        if match in errors:
            return errors - {match}, CORRECTED
        return errors | {match}, MISCORRECTED
    if match == CHECK_COLUMN:
        return errors, CORRECTED_CHECK
    return errors, DETECTED


@dataclass(frozen=True)
class HammingSecDed:
    """A concrete (72, 64) SEC-DED code instance.

    Attributes:
        data_columns: the 64 full 8-bit ``H`` columns of the data
            positions, in position order.  Each is ``h | 0x80`` with
            ``h`` a distinct member of :data:`CANDIDATE_COLUMNS`.
    """

    data_columns: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.data_columns) != DATA_BITS:
            raise ValueError(f"need {DATA_BITS} data columns")
        if len(set(self.data_columns)) != DATA_BITS:
            raise ValueError("data columns must be distinct")
        for col in self.data_columns:
            if not col & PARITY_BIT:
                raise ValueError("data columns must set the parity bit")
            if bin(col & 0x7F).count("1") < 2:
                raise ValueError("data columns need low-7 weight >= 2")

    # -- constructors -------------------------------------------------

    @classmethod
    def standard(cls) -> "HammingSecDed":
        """The canonical instance: the 64 smallest candidates."""
        return cls(tuple(c | PARITY_BIT
                         for c in CANDIDATE_COLUMNS[:DATA_BITS]))

    @classmethod
    def for_vendor(cls, vendor: str, build_seed: int) -> "HammingSecDed":
        """The (secret) code a vendor's chips of one build carry.

        Real on-die ECC implementations differ per vendor and die
        revision; BEER exists because the matrix is proprietary.  The
        column choice is a seeded permutation pick of 64 of the 120
        candidates, a pure function of ``(build_seed, vendor)`` - the
        same ladder identity chip manufacturing uses, so every chip of
        a build shares one code and the BEER tests can compare the
        inferred matrix against this ground truth.
        """
        rng = np.random.default_rng(
            ladder_seed(build_seed, "ecc", "code", vendor))
        picks = rng.permutation(len(CANDIDATE_COLUMNS))[:DATA_BITS]
        return cls(tuple(CANDIDATE_COLUMNS[i] | PARITY_BIT
                         for i in sorted(picks.tolist())))

    # -- derived tables -----------------------------------------------

    @cached_property
    def check_columns(self) -> Tuple[int, ...]:
        """``H`` columns of the 8 check positions."""
        return tuple((1 << j) | PARITY_BIT for j in range(7)) + (
            PARITY_BIT,)

    @cached_property
    def row_masks(self) -> np.ndarray:
        """Per syndrome row, the ``uint64`` mask of covered data bits."""
        masks = np.zeros(CHECK_BITS, dtype=np.uint64)
        for p, col in enumerate(self.data_columns):
            for k in range(CHECK_BITS):
                if (col >> k) & 1:
                    masks[k] |= np.uint64(1 << p)
        return masks

    @cached_property
    def lookup(self) -> np.ndarray:
        """Syndrome byte -> data position, ``CHECK_COLUMN``, or
        ``NO_MATCH`` (256 entries; entry 0 is never consulted)."""
        table = np.full(256, NO_MATCH, dtype=np.int16)
        for p, col in enumerate(self.data_columns):
            table[col] = p
        for col in self.check_columns:
            table[col] = CHECK_COLUMN
        return table

    @cached_property
    def _syndrome_actions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per syndrome byte, the decoder's status and the ``uint64``
        data-bit mask it flips."""
        status = np.full(256, DETECTED, dtype=np.uint8)
        status[0] = CLEAN
        status[self.lookup == CHECK_COLUMN] = CORRECTED_CHECK
        data = self.lookup >= 0
        status[data] = CORRECTED
        fix = np.zeros(256, dtype=np.uint64)
        fix[data] = np.uint64(1) << self.lookup[data].astype(np.uint64)
        return status, fix

    def matrix(self) -> np.ndarray:
        """``H`` as a dense 0/1 array of shape (8, 72)."""
        cols = np.array(self.data_columns + self.check_columns,
                        dtype=np.uint8)
        return ((cols[None, :] >> np.arange(CHECK_BITS)[:, None]) & 1
                ).astype(np.uint8)

    # -- packed paths (word-wise, vectorised) -------------------------

    @cached_property
    def _byte_syndromes(self) -> np.ndarray:
        return byte_syndrome_table(self.data_columns)

    def _data_syndromes(self, words: np.ndarray) -> np.ndarray:
        """Per word, the XOR of the ``H`` columns of its set data bits.

        Bit 7 of the result is the word's parity, since every data
        column sets it.
        """
        return word_syndromes(self._byte_syndromes, words)

    def encode_words(self, words: np.ndarray) -> np.ndarray:
        """Check bytes for an array of 64-bit data words.

        The check byte cancels the data syndrome ``sd``: ``c_k = sd_k``
        for ``k < 7``, and the overall-parity check bit closes row 7
        over all 72 positions: ``c_7 = sd_7 ^ parity(c_0..c_6)``.
        """
        sd = self._data_syndromes(words)
        low = sd & np.uint8(0x7F)
        return low | (((sd >> np.uint8(7)) ^ _POP8[low]) & np.uint8(1)
                      ) << np.uint8(7)

    def syndrome_words(self, words: np.ndarray, checks: np.ndarray
                       ) -> np.ndarray:
        """Received syndromes of stored (data word, check byte) pairs."""
        return self._data_syndromes(words) ^ _CHECK_SYNDROMES[
            np.asarray(checks, dtype=np.uint8)]

    def decode_words(self, words: np.ndarray, checks: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """SEC-DED decode: corrected data words plus per-word status.

        Statuses are :data:`CLEAN` / :data:`CORRECTED` /
        :data:`CORRECTED_CHECK` / :data:`DETECTED`; the decoder cannot
        tell a miscorrection from a correction (that is the point), so
        :data:`MISCORRECTED` only appears in ground-truth-aware
        classification such as :meth:`decode_error_set`.
        """
        synd = self.syndrome_words(words, checks)
        status, fix = self._syndrome_actions
        return np.asarray(words, dtype=np.uint64) ^ fix[synd], status[synd]

    # -- error-set decode (the per-word reference form) ---------------

    def decode_error_set(self, errors: Iterable[int]
                         ) -> Tuple[FrozenSet[int], int]:
        """Post-correction view of one word's data-bit error set."""
        return decode_with_tables(frozenset(int(p) for p in errors),
                                  self.data_columns, self.lookup)
