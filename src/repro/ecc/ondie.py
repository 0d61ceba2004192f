"""The on-die ECC stage of the bank read path.

Modern DRAM corrects internally before data ever reaches the pins:
every retention read passes through a per-word SEC-DED decode, so a
system-level test observes the *post-correction* view.  Single-bit
data-dependent failures vanish (masking), multi-bit failures can flip
a previously-healthy bit (miscorrection), and the profile PARBOR
builds is a distorted image of the substrate.

:class:`OnDieEcc` implements that stage as a pure transform over the
sparse raw error set of a retention read.  Three modeling notes keep
it exact and cheap (full rationale in ``docs/ECC.md``):

* **Check bits never decay.**  The stored check byte is modeled as
  error-free, so the received syndrome is a pure function of the
  data-bit error pattern and the stage never needs to materialise
  check-bit storage.  Words without raw errors decode clean and are
  skipped entirely.
* **Word = 64 data bits.**  The stage requires ``row_bits`` to be a
  multiple of 64 so every packed substrate word is exactly one ECC
  dataword (all vendor geometries satisfy this).
* **Recovery is a read-time probe pair.**  The BEER-recovered mode
  models each retention observation as three system-level read passes
  - plain, and with a forced read-time corruption at in-word bits 0
  and 1 (the union semantics of :class:`repro.dram.faults` noise:
  written data, and hence the data-dependent failure pattern, is
  untouched).  The pre-correction error set is then re-derived by
  candidate inversion against *all three* observations, using only
  the inferred parity-check matrix.  Any word whose pre-image is not
  unique is surrendered to quarantine, never guessed.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

import numpy as np

from .. import obs
from .._kernels import popcount, unpack_rows
from .secded import (CLEAN, CORRECTED, CORRECTED_CHECK, DETECTED,
                     HammingSecDed, byte_syndrome_table, word_syndromes)

__all__ = ["OnDieEcc", "attach_on_die_ecc"]

#: Forced read-time corruption positions of the recovery probe passes:
#: one plain pass plus one companion pass per low in-word bit.
COMPANION_PASSES = (frozenset(), frozenset({0}), frozenset({1}))

#: :data:`COMPANION_PASSES` as in-word ``uint64`` masks.
_COMPANIONS = np.array([sum(1 << p for p in c) for c in COMPANION_PASSES],
                       dtype=np.uint64)
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)


class OnDieEcc:
    """Per-bank on-die SEC-DED stage over the packed word substrate.

    Args:
        code: the chip's true :class:`HammingSecDed` instance, or None
            for the *null code* (0 check bits): the stage is attached
            and the read path runs its collapse plumbing, but the
            transform is the identity - the differential gate proving
            the threading itself changes nothing rides on this.
        recovery: optional BEER inference result (an object exposing
            ``tables() -> (columns, lookup)``, see
            :class:`repro.ecc.beer.InferredEcc`).  When present the
            stage runs in *recovery* mode and un-distorts each read
            back to the raw error set; when absent it runs in *lens*
            mode and returns the distorted post-correction view.
    """

    def __init__(self, code: Optional[HammingSecDed],
                 recovery: Optional[object] = None) -> None:
        self.code = code
        self.recovery = recovery
        self._rec_tables = None
        if recovery is not None:
            # The recovered decode, packed: a byte syndrome table and
            # the data-bit mask each syndrome's lookup flips.
            cols, lookup = recovery.tables()
            fix = np.zeros(len(lookup), dtype=np.uint64)
            hit = np.flatnonzero(lookup >= 0)
            fix[hit] = np.uint64(1) << lookup[hit].astype(np.uint64)
            fix[0] = 0
            self._rec_tables = (byte_syndrome_table(cols), fix)
        #: (row, phys) cells recovery could not uniquely invert; the
        #: detector drains these into the campaign quarantine.
        self.ambiguous: Set[Tuple[int, int]] = set()
        self.counts = {"words": 0, "masked": 0, "miscorrections": 0,
                       "corrected_words": 0, "detected_words": 0,
                       "undetected": 0, "recovered_words": 0,
                       "ambiguous_cells": 0}
        self._flushed = dict(self.counts)

    def transform_read(self, rows: np.ndarray, phys: np.ndarray,
                       noise_rows: np.ndarray, noise_phys: np.ndarray,
                       row_bits: int, n_rows: Optional[int] = None
                       ) -> Tuple[np.ndarray, np.ndarray,
                                  np.ndarray, np.ndarray]:
        """Map one read's raw flip events + noise to the observed view.

        ``rows``/``phys`` are flip *events* (XOR semantics - the same
        cell may appear several times and an even count cancels);
        ``noise_rows``/``noise_phys`` are forced-corruption cells
        (union semantics).  The physical error set of each 64-bit word
        is the odd-count event cells unioned with its noise cells.

        Lens mode replaces each word's inputs with the decoded
        post-correction cell set (each cell once, no noise), emitted
        word-ascending then bit-ascending.  Recovery mode is
        **event-preserving**: a word whose pre-image is recovered
        exactly passes its raw events and noise through *verbatim* -
        order, multiplicity and the event/noise split included - so a
        fully recovered read is byte-identical to the ECC-off channel
        for every downstream consumer.  Only words the inversion
        cannot pin down are edited: their inputs are dropped, the
        provably-real cells are emitted once each (word-ascending then
        bit-ascending, after the kept events), and the uncertain cells
        land in :attr:`ambiguous` for quarantine.

        Several reads can be transformed in one call by numbering
        their rows ``read * n_rows + row``: words of different reads
        never share a row, and every counter and the ambiguous set
        are sums and unions over words, so the call equals one call
        per read.  ``n_rows`` then maps ambiguous cells back to their
        bank row.
        """
        if self.code is None or (not len(rows) and not len(noise_rows)):
            return rows, phys, noise_rows, noise_phys
        if self._rec_tables is None:
            words, observed = self.decode_read(rows, phys, noise_rows,
                                               noise_phys, row_bits)
            empty = np.empty(0, dtype=np.int64)
            return (*_cells(words, observed, np.int64(row_bits >> 6)),
                    empty, empty)
        out = self._recover(rows, phys, noise_rows, noise_phys, row_bits,
                            n_rows)
        self._flush()
        return out

    def decode_read(self, rows: np.ndarray, phys: np.ndarray,
                    noise_rows: np.ndarray, noise_phys: np.ndarray,
                    row_bits: int) -> Tuple[np.ndarray, np.ndarray]:
        """The lens decode of one read, kept as word masks.

        Each word's physical error set is folded into a ``uint64``
        mask (:func:`_fold`).  Check bits never decay, so the received
        syndrome of a word is its error mask's data-word syndrome, and
        one :meth:`HammingSecDed.decode_words` call against zero check
        bytes returns every post-correction error mask.  Lens-mode
        :meth:`transform_read` is this decode plus the emission of the
        decoded cells, with the same counters and ``profile.ecc.*``
        metrics; BEER probe reads consume the masks directly.

        Returns ``(keys, observed)``: per touched word with a nonzero
        error mask, its key ``row * (row_bits // 64) + word``
        (ascending) and its post-correction mask.
        """
        n_words = _words_per_row(row_bits)
        phys = phys.astype(np.int64, copy=False)
        noise_phys = noise_phys.astype(np.int64, copy=False)
        words, _, masks = _fold(_keys(rows, phys, n_words), phys,
                                _keys(noise_rows, noise_phys, n_words),
                                noise_phys)
        live = masks != 0
        words, masks = words[live], masks[live]
        observed, status = self.code.decode_words(
            masks, np.zeros(len(masks), dtype=np.uint8))
        c = self.counts
        c["words"] += len(masks)
        # The decoder flips at most one bit per word, so each word
        # masks or fabricates at most one cell.
        c["masked"] += np.count_nonzero(masks & ~observed)
        c["miscorrections"] += np.count_nonzero(observed & ~masks)
        by_status = np.bincount(status, minlength=DETECTED + 1)
        c["corrected_words"] += int(by_status[CORRECTED])
        c["detected_words"] += int(by_status[DETECTED]
                                   + by_status[CORRECTED_CHECK])
        c["undetected"] += int(by_status[CLEAN])
        self._flush()
        return words, observed

    def _flush(self) -> None:
        """Publish the counter deltas since the last flush as
        ``profile.ecc.*`` metrics."""
        if obs.enabled():
            for name, value in self.counts.items():
                delta = value - self._flushed[name]
                if delta:
                    obs.inc(f"profile.ecc.{name}", delta)
                self._flushed[name] = value

    # -- recovery -----------------------------------------------------

    def _recover(self, rows: np.ndarray, phys: np.ndarray,
                 noise_rows: np.ndarray, noise_phys: np.ndarray,
                 row_bits: int, n_rows: Optional[int]
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Recovery mode: invert every multi-input word in one pass.

        A word with a single input is a single-cell error set, always
        uniquely inverted (the companion passes turn it into a
        2-error, hence detected-not-corrected, word).  A multi-input
        word whose events all cancel held a clean word: the inversion
        is trivially exact and its raw events pass through verbatim.
        The rest go through :meth:`_invert` at once.
        """
        n_words = _words_per_row(row_bits)
        rows = rows.astype(np.int64, copy=False)
        phys = phys.astype(np.int64, copy=False)
        noise_rows = noise_rows.astype(np.int64, copy=False)
        noise_phys = noise_phys.astype(np.int64, copy=False)
        ekey = _keys(rows, phys, n_words)
        nkey = _keys(noise_rows, noise_phys, n_words)
        words, n_inputs, masks = _fold(ekey, phys, nkey, noise_phys)
        multi = (n_inputs != 1) & (masks != 0)
        n_single = int(np.count_nonzero(n_inputs == 1))
        c = self.counts
        c["words"] += n_single + int(np.count_nonzero(multi))
        c["recovered_words"] += n_single
        if not multi.any():
            return rows, phys, noise_rows, noise_phys
        reals, unsure = self._invert(masks[multi])
        amb = unsure != 0
        c["recovered_words"] += int(np.count_nonzero(~amb))
        if not amb.any():
            return rows, phys, noise_rows, noise_phys
        keys = words[multi][amb]
        unsure = unsure[amb]
        c["ambiguous_cells"] += int(popcount(unsure).sum())
        amb_rows, amb_phys = _cells(keys, unsure, n_words)
        if n_rows:
            amb_rows = amb_rows % n_rows
        self.ambiguous.update(zip(amb_rows.tolist(), amb_phys.tolist()))
        keep_events = ~_member(keys, ekey)
        keep_noise = ~_member(keys, nkey)
        add_rows, add_phys = _cells(keys, reals[amb], n_words)
        return (np.concatenate([rows[keep_events], add_rows]),
                np.concatenate([phys[keep_events], add_phys]),
                noise_rows[keep_noise], noise_phys[keep_noise])

    def _invert(self, errs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Invert words' post-correction observations exactly.

        ``errs`` holds each word's raw error mask.  Simulates the
        three probe passes against the *true* code (the device decodes
        with its real matrix), then inverts using only the *recovered*
        tables.  A pass whose observation has nonzero recovered
        syndrome is proof the decoder did not act - the raw set is the
        observation itself, less its companion bit (or, when the
        companion bit was already raw, with it): up to five distinct
        candidate masks per word.  Every candidate is then verified
        against all
        three observations; the raw set is claimed only when the
        verified candidates agree.

        Returns ``(real, uncertain)`` in-word masks per word.  The
        true raw set always survives verification (the recovered
        tables are row-equivalent to the true matrix, so predicted
        decode actions match the device exactly), so claimed cells
        are never wrong and missed cells always land in the uncertain
        mask: several distinct verified candidates claim their common
        bits and leave the rest uncertain, and a word with no
        informative pass - the physically-unrecoverable corner
        documented in ``docs/ECC.md`` - is surrendered whole.
        """
        table, fix = self._rec_tables
        zeros = np.zeros(len(errs) * len(_COMPANIONS), dtype=np.uint8)
        observed = self.code.decode_words(
            (errs[:, None] | _COMPANIONS).ravel(), zeros)[0].reshape(
            -1, len(_COMPANIONS))
        informative = word_syndromes(table, observed) != 0
        # Candidates of an informative pass: its observation without
        # and with its companion bit (one mask twice when the bit is
        # not in it; duplicates leave the AND and OR below unchanged).
        cands = np.concatenate([observed & ~_COMPANIONS, observed], axis=1)
        probe = cands[:, :, None] | _COMPANIONS
        decoded = probe ^ fix[word_syndromes(table, probe)]
        verified = np.tile(informative, 2) & (
            decoded == observed[:, None, :]).all(axis=2)
        common = np.bitwise_and.reduce(np.where(verified, cands, _ALL),
                                       axis=1)
        union = np.bitwise_or.reduce(np.where(verified, cands, 0), axis=1)
        seen = verified.any(axis=1)
        unique = seen & (common == union)
        real = np.where(seen, common, 0)
        unsure = np.where(unique, 0, np.where(seen, union & ~common, _ALL))
        return real.astype(np.uint64), unsure.astype(np.uint64)


def _words_per_row(row_bits: int) -> np.int64:
    if row_bits % 64:
        raise ValueError("on-die ECC needs row_bits % 64 == 0")
    return np.int64(row_bits >> 6)


def _keys(rows: np.ndarray, phys: np.ndarray, n_words: np.int64
          ) -> np.ndarray:
    """Word keys ``row * n_words + phys // 64`` of cells."""
    return rows.astype(np.int64, copy=False) * n_words + (phys >> 6)


def _fold(ekey: np.ndarray, phys: np.ndarray, nkey: np.ndarray,
          noise_phys: np.ndarray
          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold a read's inputs into one physical error mask per word.

    Events XOR into their word's ``uint64`` mask (an even count
    cancels), then noise ORs in.  Returns ``(keys, n_inputs, masks)``
    per touched word, keys ascending.
    """
    keys = np.concatenate([ekey, nkey])
    words, inv, n_inputs = np.unique(keys, return_inverse=True,
                                     return_counts=True)
    one = np.uint64(1)
    masks = np.zeros(len(words), dtype=np.uint64)
    np.bitwise_xor.at(masks, inv[:len(ekey)],
                      one << (phys & 63).astype(np.uint64))
    np.bitwise_or.at(masks, inv[len(ekey):],
                     one << (noise_phys & 63).astype(np.uint64))
    return words, n_inputs, masks


def _cells(keys: np.ndarray, masks: np.ndarray, n_words: np.int64
           ) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(rows, phys)`` set bits of word masks, word-ascending
    (in ``keys`` order) then bit-ascending."""
    hit = masks != 0
    w_idx, bit = np.nonzero(unpack_rows(masks[hit, None], 64))
    key = keys[hit][w_idx]
    return key // n_words, ((key % n_words) << np.int64(6)) + bit


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of ``keys`` in a nonempty sorted key array."""
    at = np.minimum(np.searchsorted(sorted_keys, keys),
                    len(sorted_keys) - 1)
    return sorted_keys[at] == keys


def attach_on_die_ecc(chip, code: Optional[HammingSecDed],
                      recovery: Optional[object] = None) -> None:
    """Attach one on-die ECC stage instance per bank of ``chip``."""
    for bank in chip.banks:
        bank.ecc = OnDieEcc(code, recovery=recovery)
