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

from typing import List, Optional, Set, Tuple

import numpy as np

from .. import obs
from .._kernels import unpack_rows
from .secded import (CLEAN, CORRECTED, CORRECTED_CHECK, DETECTED,
                     HammingSecDed, decode_with_tables)

__all__ = ["OnDieEcc", "attach_on_die_ecc"]

#: Forced read-time corruption positions of the recovery probe passes:
#: one plain pass plus one companion pass per low in-word bit.
COMPANION_PASSES = (frozenset(), frozenset({0}), frozenset({1}))


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
        self._rec_tables = recovery.tables() if recovery is not None else None
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
        provably-real cells are emitted once each, and the uncertain
        cells land in :attr:`ambiguous` for quarantine.

        Several reads can be transformed in one call by numbering
        their rows ``read * n_rows + row``: words of different reads
        never share a row, and every counter and the ambiguous set
        are sums and unions over words, so the call equals one call
        per read.  ``n_rows`` then maps ambiguous cells back to their
        bank row.
        """
        if self.code is None or (not len(rows) and not len(noise_rows)):
            return rows, phys, noise_rows, noise_phys
        if row_bits % 64:
            raise ValueError("on-die ECC needs row_bits % 64 == 0")
        n_words = np.int64(row_bits >> 6)
        rows = rows.astype(np.int64, copy=False)
        phys = phys.astype(np.int64, copy=False)
        noise_rows = noise_rows.astype(np.int64, copy=False)
        noise_phys = noise_phys.astype(np.int64, copy=False)
        ekey = rows * n_words + (phys >> np.int64(6))
        nkey = noise_rows * n_words + (noise_phys >> np.int64(6))
        if self._rec_tables is None:
            out = self._lens(ekey, phys, nkey, noise_phys, n_words)
        else:
            out = self._recover(rows, phys, noise_rows, noise_phys,
                                ekey, nkey, n_words, n_rows)
        if obs.enabled():
            for name, value in self.counts.items():
                delta = value - self._flushed[name]
                if delta:
                    obs.inc(f"profile.ecc.{name}", delta)
                self._flushed[name] = value
        return out

    def _lens(self, ekey: np.ndarray, phys: np.ndarray, nkey: np.ndarray,
              noise_phys: np.ndarray, n_words: np.int64
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Lens mode: one packed decode over every touched word.

        Each word's physical error set is folded into a ``uint64``
        mask (events XOR, then noise OR).  Check bits never decay, so
        the received syndrome of a word is its error mask's data-word
        syndrome, and :meth:`HammingSecDed.decode_words` against zero
        check bytes returns the post-correction error mask directly.
        """
        one = np.uint64(1)
        words, inv = np.unique(np.concatenate([ekey, nkey]),
                               return_inverse=True)
        masks = np.zeros(len(words), dtype=np.uint64)
        if len(ekey):
            np.bitwise_xor.at(masks, inv[:len(ekey)],
                              one << (phys & 63).astype(np.uint64))
        if len(nkey):
            np.bitwise_or.at(masks, inv[len(ekey):],
                             one << (noise_phys & 63).astype(np.uint64))
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
        hit = observed != 0
        w_idx, bit = np.nonzero(unpack_rows(observed[hit, None], 64))
        key = words[hit][w_idx]
        empty = np.empty(0, dtype=np.int64)
        return (key // n_words, ((key % n_words) << np.int64(6)) + bit,
                empty, empty)

    def _recover(self, rows: np.ndarray, phys: np.ndarray,
                 noise_rows: np.ndarray, noise_phys: np.ndarray,
                 ekey: np.ndarray, nkey: np.ndarray, n_words: np.int64,
                 n_rows: Optional[int]
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Recovery mode: invert each multi-input word separately."""
        words, wcounts = np.unique(np.concatenate([ekey, nkey]),
                                   return_counts=True)
        c = self.counts
        keep_events = np.ones(len(rows), dtype=bool)
        keep_noise = np.ones(len(noise_rows), dtype=bool)
        add_rows: List[np.ndarray] = []
        add_phys: List[np.ndarray] = []

        # Fast path: a word with a single input is a single-cell error
        # set, always uniquely inverted (the companion passes turn it
        # into a 2-error, hence detected-not-corrected, word).
        n_single = int((wcounts == 1).sum())
        c["words"] += n_single
        c["recovered_words"] += n_single
        multi = words[wcounts != 1]
        if len(multi):
            eorder = np.argsort(ekey, kind="stable")
            norder = np.argsort(nkey, kind="stable")
            ekey_s = ekey[eorder]
            nkey_s = nkey[norder]
            for w in multi.tolist():
                ei = eorder[np.searchsorted(ekey_s, w, "left"):
                            np.searchsorted(ekey_s, w, "right")]
                ni = norder[np.searchsorted(nkey_s, w, "left"):
                            np.searchsorted(nkey_s, w, "right")]
                row = int(w // n_words)
                word_base = int(w % n_words) << 6
                odd = np.bincount(phys[ei] & 63, minlength=64) & 1
                errs = set(np.flatnonzero(odd).tolist())
                errs.update((noise_phys[ni] & 63).tolist())
                if not errs:
                    # Every event cancelled: the device saw a clean
                    # word, the inversion is trivially exact, and the
                    # raw events pass through verbatim.
                    continue
                c["words"] += 1
                reals, unsure = self._recover_word(frozenset(errs))
                if not unsure:
                    c["recovered_words"] += 1
                    continue
                c["ambiguous_cells"] += len(unsure)
                bank_row = row % n_rows if n_rows else row
                for p in unsure:
                    self.ambiguous.add((bank_row, word_base + p))
                keep_events[ei] = False
                keep_noise[ni] = False
                if reals:
                    add_rows.append(np.full(len(reals), row,
                                            dtype=np.int64))
                    add_phys.append(np.fromiter(
                        (word_base + p for p in sorted(reals)),
                        dtype=np.int64, count=len(reals)))
        out_rows = rows[keep_events]
        out_phys = phys[keep_events]
        if add_rows:
            out_rows = np.concatenate([out_rows, *add_rows])
            out_phys = np.concatenate([out_phys, *add_phys])
        return (out_rows, out_phys,
                noise_rows[keep_noise], noise_phys[keep_noise])

    # -- recovery -----------------------------------------------------

    def _recover_word(self, errs: frozenset
                      ) -> Tuple[Set[int], Set[int]]:
        """Invert one word's post-correction observations exactly.

        Simulates the three probe passes against the *true* code (the
        device decodes with its real matrix), then inverts using only
        the *recovered* tables.  A pass whose observation has nonzero
        recovered syndrome is proof the decoder did not act - the raw
        set is the observation itself.  Every candidate extracted that
        way is then verified against all three observations; the raw
        set is claimed only when exactly one candidate survives.

        Returns ``(real_cells, uncertain_cells)`` as in-word bit sets.
        The true raw set always survives verification (the recovered
        tables are row-equivalent to the true matrix, so predicted
        decode actions match the device exactly), so claimed cells are
        never wrong and missed cells always land in the uncertain set
        - except the physically-unrecoverable corner documented in
        ``docs/ECC.md``, which surrenders the whole word.
        """
        cols, lookup = self._rec_tables
        observations = []
        for companions in COMPANION_PASSES:
            observed, _ = self.code.decode_error_set(errs | companions)
            observations.append((observed, companions))
        candidates = set()
        for observed, companions in observations:
            syndrome = 0
            for p in observed:
                syndrome ^= cols[p]
            if syndrome != 0:
                candidates.add(observed - companions)
                if companions & observed:
                    candidates.add(observed)
        verified = [
            cand for cand in candidates
            if all(decode_with_tables(cand | comp, cols, lookup)[0] == obs_
                   for obs_, comp in observations)]
        if len(verified) == 1:
            return set(verified[0]), set()
        if verified:
            common = set.intersection(*(set(v) for v in verified))
            spread = set.union(*(set(v) for v in verified)) - common
            return common, spread
        # No pass was informative: the decoder acted (or an error
        # pattern escaped undetected) in all three.  Surrender the
        # whole word - quarantine beats a guessed verdict.
        return set(), set(range(64))


def attach_on_die_ecc(chip, code: Optional[HammingSecDed],
                      recovery: Optional[object] = None) -> None:
    """Attach one on-die ECC stage instance per bank of ``chip``."""
    for bank in chip.banks:
        bank.ecc = OnDieEcc(code, recovery=recovery)
