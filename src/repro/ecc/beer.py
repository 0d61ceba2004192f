"""BEER-style inference of an unknown on-die ECC parity function.

The chip's SEC-DED matrix is proprietary, but its *miscorrections*
leak it (Patel et al., BEER, MICRO 2020).  The harness plants a probe
triple ``{p, q, r}`` of forced read-time corruptions inside one word;
when the decoder miscorrects onto a fourth position ``m``, the column
algebra says ``h_p ^ h_q ^ h_r ^ h_m = 0`` - the set ``{p, q, r, m}``
is a weight-4 vector orthogonal to *every* row of the data part of
``H`` (the overall-parity row too, since the weight is even).  Each
confirmed miscorrection is therefore one linear relation on the
64-dim GF(2) space; once the collected relations reach rank 56
(= 64 - 8) their nullspace is exactly the 8-dim rowspace of
``H_data``, recovered in reduced-row-echelon canonical form.

Row equivalence is all a profile recovery needs: for any invertible
``L``, ``sigma' = L . sigma`` preserves both ``sigma == 0`` and which
column (if any) the syndrome matches, so the recovered basis predicts
the device's decode actions on data bits exactly.

De-noising: probe words also carry real retention failures.  Every
triple is planted in :data:`COPIES` decoupled replicas (different
rows and words, see :func:`_copies`) in the same round, and a
relation is accepted only when every replica reports the *identical*
outcome - real-failure contamination is word-local and cannot
replicate across them.  Backgrounds cycle solid-0 / checkered /
solid-1 / row-stripe per the BEER pattern recipe.  Only the checkered
rounds wake data-dependent failures, and only on chips whose
neighbour distances are odd (vendors B and C): a solid or a row
stripe holds each row at one value, and coupling is intra-row.  So
the checkered rounds are where the replica filter is exercised under
contamination.

Inference is validated fail-closed: structural checks (rank 8, 64
distinct nonzero recovered columns) plus held-out probe rounds whose
observed outcomes must match the recovered tables' predictions
exactly.  Campaigns consume the result only through
:func:`repro.robust.integrity.check_ecc_inference`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .._kernels import popcount
from ..core.patterns import checkerboard, solid
from ..dram.faults import ForcedFlipNoise
from ..runtime.seeds import ladder_seed
from .secded import DATA_BITS, CHECK_BITS, HammingSecDed, NO_MATCH

__all__ = ["InferredEcc", "EccInferenceReport", "infer_ecc",
           "validate_inference", "beer_backgrounds", "TARGET_RANK"]

#: Relations rank at which the nullspace pins the code exactly.
TARGET_RANK = DATA_BITS - CHECK_BITS  # 56

#: Replicas per probe slot.  Confirmation requires every copy to
#: classify identically, so a natural failure can only forge an
#: outcome by hitting the same in-word bit in this many decoupled
#: words of one read - at three, beyond even a noisy chip's reach.
COPIES = 3


def beer_backgrounds(row_bits: int, n_rows: int
                     ) -> List[Tuple[str, np.ndarray]]:
    """The BEER pattern recipe: per-round background writes.

    Solids and the row stripe (whole rows of one value; coupling is
    intra-row) produce no data-dependent failures - the control-round
    property.  The checkered round wakes them on chips with odd
    neighbour distances, so the replica filter is exercised under
    contamination there.
    """
    stripe = np.zeros((n_rows, row_bits), dtype=np.uint8)
    stripe[1::2] = 1
    return [("solid0", solid(row_bits, 0)),
            ("checkered", checkerboard(row_bits)),
            ("solid1", solid(row_bits, 1)),
            ("row-stripe", stripe)]


# -- GF(2) linear algebra over 64-bit masks -------------------------------

def _rref(masks) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Reduced row echelon form; returns (rows, pivot_bits).

    Rows are 64-bit masks; the pivot of each row is its highest set
    bit, rows are sorted by descending pivot and fully reduced - a
    canonical basis of the rowspace.
    """
    rows: List[int] = []
    for v in masks:
        v = int(v)
        for r in rows:
            if (v >> (r.bit_length() - 1)) & 1:
                v ^= r
        if v:
            rows.append(v)
            rows.sort(key=int.bit_length, reverse=True)
    # back-substitute to make each pivot unique to its row
    for i, r in enumerate(rows):
        for j, other in enumerate(rows):
            if i != j and (other >> (r.bit_length() - 1)) & 1:
                rows[j] = other ^ r
    rows.sort(key=int.bit_length, reverse=True)
    return tuple(rows), tuple(r.bit_length() - 1 for r in rows)


def _nullspace(masks) -> List[int]:
    """Basis of ``{x : parity(r & x) = 0 for every r in masks}``."""
    rref, pivots = _rref(masks)
    pivot_set = set(pivots)
    out = []
    for free in range(DATA_BITS):
        if free in pivot_set:
            continue
        v = 1 << free
        for row, p in zip(rref, pivots):
            if (row >> free) & 1:
                v |= 1 << p
        out.append(v)
    return out


# -- inference result -----------------------------------------------------

@dataclass(frozen=True)
class InferredEcc:
    """A recovered parity-check basis in canonical (RREF) form.

    ``basis`` spans the same GF(2) rowspace as the true ``H_data``
    when inference succeeded; :meth:`matches` checks that exactly.
    """

    basis: Tuple[int, ...]
    relations: int = 0
    rounds: int = 0
    ok: bool = True
    note: str = ""

    @cached_property
    def _tables(self) -> Tuple[Tuple[int, ...], np.ndarray]:
        cols = tuple(
            sum(((self.basis[i] >> p) & 1) << i
                for i in range(len(self.basis)))
            for p in range(DATA_BITS))
        lookup = np.full(256, NO_MATCH, dtype=np.int16)
        for p, col in enumerate(cols):
            if col and lookup[col] == NO_MATCH:
                lookup[col] = p
        return cols, lookup

    def tables(self) -> Tuple[Tuple[int, ...], np.ndarray]:
        """Recovered ``(columns, syndrome lookup)`` decode tables."""
        return self._tables

    def structurally_valid(self) -> bool:
        """Rank-8 basis with 64 distinct nonzero recovered columns."""
        if len(self.basis) != CHECK_BITS:
            return False
        rref, _ = _rref(self.basis)
        if len(rref) != CHECK_BITS:
            return False
        cols, _ = self._tables
        return 0 not in cols and len(set(cols)) == DATA_BITS

    def matches(self, code: HammingSecDed) -> bool:
        """Does the basis span exactly the true code's rowspace?"""
        true_rref, _ = _rref(int(m) for m in code.row_masks)
        return tuple(self.basis) == true_rref


@dataclass
class EccInferenceReport:
    """Validation verdict over an :class:`InferredEcc`.

    ``ok`` is the single gate bit campaigns consume (through
    :func:`repro.robust.integrity.check_ecc_inference`): structural
    validity AND zero held-out prediction mismatches AND enough
    confirmed slots to mean anything.
    """

    ok: bool
    checked: int = 0
    mismatches: int = 0
    reason: str = ""
    inferred: Optional[InferredEcc] = field(default=None, repr=False)


# -- probing --------------------------------------------------------------

def _copies(n_rows: int, n_words: int
            ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per copy ``k``, the ``(rows, words)`` of every slot's replica.

    Slot ``s`` is word ``s % n_words`` of row ``s // n_words``; copy
    ``k`` lives at row ``row + k*n_rows/COPIES``, word
    ``(word + k*n_words/COPIES) % n_words``.
    """
    stride = n_rows // COPIES
    slot_rows = np.repeat(np.arange(stride, dtype=np.int64), n_words)
    slot_words = np.tile(np.arange(n_words, dtype=np.int64), stride)
    return [(slot_rows + k * stride,
             (slot_words + k * (n_words // COPIES)) % n_words)
            for k in range(COPIES)]


def _probe_round(chip, seed: int, *path) -> Tuple[
        List[Tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
    """One probe round: plant replicated triples, read through the ECC.

    Returns ``(copies, triples, observed)``: the :func:`_copies` word
    coordinates of every slot replica, the planted triple per slot,
    and the post-ECC error mask of every word as a dense
    ``(n_rows, n_words)`` ``uint64`` array (bit ``i`` = in-word
    position ``i`` observed failing).

    The copies deliberately sit in *different words and rows* so they
    share no physical cells or columns: decode behavior depends only
    on the in-word bit positions of the triple (identical in every
    copy), while natural data-dependent failures - which would
    otherwise dirty the copies the same way and forge a confirmed
    outcome - must hit the same in-word bit in all :data:`COPIES`
    decoupled words at once to slip through.  With two copies that
    collision is a real 1-in-64 event per doubly-dirty slot on a noisy
    chip; with three it is negligible.
    """
    from ..core.detector import controllers_for
    from ..robust.vote import reseed_banks

    bank = chip.banks[0]
    n_rows, row_bits = bank.n_rows, bank.row_bits
    n_words = row_bits >> 6
    copies = _copies(n_rows, n_words)
    round_idx = path[-1]

    rng = np.random.default_rng(ladder_seed(seed, "triples", *path))
    triples = np.argsort(rng.random((len(copies[0][0]), 64)),
                         axis=1)[:, :3]
    triples.sort(axis=1)

    probe_rows = np.concatenate([np.repeat(r, 3) for r, _ in copies])
    probe_phys = np.concatenate(
        [(w[:, None] * 64 + triples).ravel() for _, w in copies])

    name, background = beer_backgrounds(row_bits, n_rows)[
        int(round_idx) % 4]
    reseed_banks(controllers_for(chip), seed, "beer", *path)
    bank.write_rows(np.arange(n_rows), background)
    bank.noise = ForcedFlipNoise(probe_rows, probe_phys)
    try:
        keys, masks = bank.retention_word_errors()
    finally:
        bank.noise = None

    observed = np.zeros((n_rows, n_words), dtype=np.uint64)
    observed.ravel()[keys] = masks
    return copies, triples, observed


def _confirmed(chip, seed: int, *path) -> Tuple[np.ndarray, np.ndarray]:
    """Replica-confirmed probe slots of one round, as arrays.

    A slot's outcome counts only when all :data:`COPIES` decoupled
    copies classify identically and none is dirty.  On error masks
    that is: every copy observed the same mask ``o``, and ``o`` is
    either the triple ``t`` (detect) or ``t`` plus exactly one more
    bit (a miscorrection flip onto that bit).

    Returns ``(triples, extra)`` in slot order: each confirmed slot's
    sorted triple, and the ``uint64`` mask of its miscorrected bit
    (0 for a detect).
    """
    copies, triples, observed = _probe_round(chip, seed, *path)
    t = np.bitwise_or.reduce(
        np.uint64(1) << triples.astype(np.uint64), axis=1)
    o = np.stack([observed[r, w] for r, w in copies])
    extra = o[0] & ~t
    confirmed = ((o == o[0]).all(axis=0) & ((o[0] & t) == t)
                 & (popcount(extra) <= 1))
    keep = np.flatnonzero(confirmed)
    return triples[keep], extra[keep]


def _flip_relations(triples: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """The relation mask ``{p, q, r, m}`` of every miscorrected slot
    of :func:`_confirmed`'s ``(triples, extra)``, in slot order."""
    flips = extra != 0
    return extra[flips] | np.bitwise_or.reduce(
        np.uint64(1) << triples[flips].astype(np.uint64), axis=1)


def _reduce(pivots: np.ndarray, relations: np.ndarray) -> None:
    """Fold relation masks into an echelon table, in place.

    ``pivots[b]`` is the table's relation whose highest set bit is
    ``b``, or 0.  The batch (consumed) is eliminated top bit first,
    one vectorised step per bit: the rows with bit ``b`` set XOR in
    the table's pivot row there - where the table has none, the first
    such row becomes it.  At step ``b`` no row has a bit above ``b``
    left, so a new pivot row's highest bit is ``b``; the table's rank
    afterwards is that of every relation folded so far.
    """
    for b in range(DATA_BITS - 1, -1, -1):
        if not len(relations):
            return
        has = ((relations >> np.uint64(b)) & np.uint64(1)) != 0
        if not has.any():
            continue
        if not pivots[b]:
            pivots[b] = relations[np.argmax(has)]
        relations[has] ^= pivots[b]
        relations = relations[relations != 0]


def infer_ecc(chip, seed: int, max_rounds: int = 24) -> InferredEcc:
    """Infer the on-die code of ``chip`` from its miscorrections.

    The chip must carry a lens-mode :class:`repro.ecc.OnDieEcc` stage
    (inference observes *through* the ECC; there is no bypass).  Runs
    probe rounds until the relation rank reaches :data:`TARGET_RANK`,
    then extracts and canonicalises the nullspace.  Returns
    ``ok=False`` (never raises) when the budget runs out or the
    recovered basis is structurally invalid.
    """
    bank = chip.banks[0]
    if bank.ecc is None or bank.ecc.code is None:
        raise ValueError("BEER inference probes through the on-die ECC; "
                         "attach a lens-mode OnDieEcc stage first")
    if bank.n_rows < COPIES or bank.row_bits % 64:
        raise ValueError(f"BEER probing needs >= {COPIES} rows and "
                         "row_bits % 64 == 0")
    pivots = np.zeros(DATA_BITS, dtype=np.uint64)
    relations = rounds = rank = 0
    for round_idx in range(max_rounds):
        rounds += 1
        rel = _flip_relations(*_confirmed(chip, seed, round_idx))
        relations += len(rel)
        _reduce(pivots, rel)
        rank = int(np.count_nonzero(pivots))
        if rank >= TARGET_RANK:
            break
    if rank != TARGET_RANK:
        return InferredEcc(basis=(), relations=relations, rounds=rounds,
                           ok=False,
                           note=f"relation rank {rank} != "
                                f"{TARGET_RANK} after {rounds} rounds")
    basis, _ = _rref(_nullspace(pivots[pivots != 0].tolist()))
    inferred = InferredEcc(basis=basis, relations=relations,
                           rounds=rounds)
    if not inferred.structurally_valid():
        return InferredEcc(basis=basis, relations=relations,
                           rounds=rounds, ok=False,
                           note="structurally invalid basis")
    return inferred


def validate_inference(chip, inferred: InferredEcc, seed: int,
                       rounds: int = 2, min_checked: int = 16
                       ) -> EccInferenceReport:
    """Held-out behavioral validation of an inference.

    Runs fresh probe rounds and requires the recovered tables to
    predict every replica-confirmed outcome exactly.  Fails closed:
    a structurally-invalid basis, too few confirmable slots, or a
    single mismatch all yield ``ok=False``.
    """
    if not inferred.ok or not inferred.structurally_valid():
        return EccInferenceReport(
            ok=False, reason=inferred.note or "structurally invalid",
            inferred=inferred)
    cols, lookup = inferred.tables()
    cols = np.asarray(cols, dtype=np.int64)
    checked = mismatches = 0
    for round_idx in range(rounds):
        triples, extra = _confirmed(chip, seed, "validate", round_idx)
        # Decode every triple with the recovered tables.  A
        # structurally valid basis has 64 distinct nonzero columns, so
        # no syndrome looks up a flip at zero or onto the triple's own
        # bits: the decoder leaves the triple (detect) or flips a
        # fourth bit (a miscorrection).
        match = lookup[np.bitwise_xor.reduce(cols[triples], axis=1)]
        predicted = np.where(
            match >= 0, np.uint64(1) << np.maximum(match, 0).astype(
                np.uint64), np.uint64(0))
        checked += len(triples)
        mismatches += int(np.count_nonzero(predicted != extra))
    ok = mismatches == 0 and checked >= min_checked
    reason = ("" if ok else
              f"{mismatches}/{checked} held-out mismatches"
              if checked >= min_checked else
              f"only {checked} confirmable slots")
    return EccInferenceReport(ok=ok, checked=checked,
                              mismatches=mismatches, reason=reason,
                              inferred=inferred)
