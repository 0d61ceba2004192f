"""Neighbour-aware test pattern scheduling (paper Section 5.2.5).

Once the neighbour distances are known, every cell must be exposed to
the worst-case pattern: the cell charged, all its physical neighbours
discharged. Cells whose aggressor sets do not collide can be tested
*simultaneously*, so the whole chip is covered in a small, constant
number of rounds instead of one round per bit.

Three schedulers are provided:

* ``sparse`` (default) - victims of one round are the bits congruent
  to ``t`` modulo a stride ``S``, with ``S`` chosen as the smallest
  value >= 16 for which no neighbour distance is a multiple of ``S``
  (so no victim is another victim's aggressor). Sparse victims leave
  most of the row at the victims' own value, which protects the wider
  analog context that weakly coupled cells are sensitive to; 2S
  rounds total (34 for all three vendors, the paper's 16-32 ballpark).
* ``greedy`` - colours the conflict graph (bits ``v`` and ``w``
  conflict when ``|v - w|`` is a neighbour distance) with a greedy
  first-fit pass; minimal rounds (6-10), but the dense victim classes
  blanket the row with aggressor zeros and lose context-sensitive
  weak cells - kept as an ablation of why sparsity matters.
* ``paper`` - the paper's serial-chunk scheme: rows are cut into
  chunks of twice the maximum distance and each chunk is walked in
  groups of ``min distance`` consecutive bits (their Section 5.2.5
  example).

Every round is run together with its inverse to cover true and anti
cells, so the number of *tests* is twice the number of base rounds
(the paper's "2 x 16 = 32 rounds").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .. import obs

__all__ = ["TestSchedule", "greedy_colouring", "build_schedule",
           "paper_round_count", "sparse_stride"]


@dataclass
class TestSchedule:
    """A set of base patterns covering every bit as a victim once.

    Attributes:
        patterns: list of row-length uint8 arrays; each round writes
            one pattern (and then its inverse).
        victim_masks: per round, bool array of which bits are the
            designated victims of that round.
        scheme: scheduler name that produced this schedule.
    """

    patterns: List[np.ndarray]
    victim_masks: List[np.ndarray]
    scheme: str

    @property
    def base_rounds(self) -> int:
        return len(self.patterns)

    @property
    def total_rounds(self) -> int:
        """Base rounds times two (each pattern runs with its inverse)."""
        return 2 * self.base_rounds


def greedy_colouring(row_bits: int, magnitudes: Sequence[int]
                     ) -> np.ndarray:
    """First-fit colouring of the distance conflict graph.

    Bits ``v < w`` conflict when ``w - v`` is a neighbour distance
    magnitude. Scanning left to right, each bit takes the smallest
    colour unused among its already-coloured conflicting bits.
    """
    mags = sorted({int(m) for m in magnitudes if m > 0})
    if any(m >= row_bits for m in mags):
        raise ValueError("distance magnitude exceeds the row")
    colours = np.zeros(row_bits, dtype=np.int64)
    for v in range(row_bits):
        used = {int(colours[v - m]) for m in mags if v - m >= 0}
        c = 0
        while c in used:
            c += 1
        colours[v] = c
    return colours


def _pattern_for_victims(row_bits: int, victims: np.ndarray,
                         distances: Sequence[int]) -> np.ndarray:
    """Worst-case background for a victim set.

    Victims are written 1, their aggressor positions 0, and all other
    bits 1 (the victims' value) so nothing outside the designated
    aggressors can disturb them.
    """
    data = np.ones(row_bits, dtype=np.uint8)
    idx = np.flatnonzero(victims)
    for d in distances:
        agg = idx + d
        agg = agg[(agg >= 0) & (agg < row_bits)]
        data[agg] = 0
    data[idx] = 1
    return data


def sparse_stride(magnitudes: Sequence[int], minimum: int = 12,
                  protect_order: int = 3, search_limit: int = 512) -> int:
    """Choose the victim stride for the sparse scheduler.

    The stride ``S`` must satisfy two properties, both checkable from
    the discovered first-order distance set ``D`` alone:

    1. no ``d`` in ``D`` is a multiple of ``S`` (a victim would be
       another victim's aggressor);
    2. no *composed* distance - a sum of up to ``protect_order``
       signed first-order hops, i.e. the possible system distances of
       second/third-order physical neighbours - is congruent mod ``S``
       to any ``d`` in ``D``. Such a congruence would park an
       aggressor-zero on a context cell of some victim and mask
       context-sensitive weak cells.

    Falls back to the best-effort stride (fewest composed collisions)
    if no perfect stride exists below ``search_limit``.
    """
    mags = sorted({abs(int(m)) for m in magnitudes if m})
    if not mags:
        raise ValueError("empty distance set")
    signed = {s for m in mags for s in (m, -m)}
    composed = set(signed)
    frontier = set(signed)
    for _ in range(protect_order - 1):
        frontier = {a + b for a in frontier for b in signed}
        composed |= frontier
    # Composed distances that are themselves first-order (or zero) are
    # handled by the aggressor zeros already.
    extras = sorted({abs(c) for c in composed} - set(mags) - {0})

    best = (None, None)
    for s in range(minimum, search_limit):
        if any(m % s == 0 for m in mags):
            continue
        residues = {m % s for m in signed}
        collisions = sum(1 for e in extras
                         if (e % s) in residues or (-e % s) in residues)
        if collisions == 0:
            return s
        if best[0] is None or collisions < best[0]:
            best = (collisions, s)
    if best[1] is None:
        raise ValueError(f"no usable stride for distances {mags}")
    return best[1]


def build_schedule(row_bits: int, distances: Sequence[int],
                   scheme: str = "sparse") -> TestSchedule:
    """Build the full-chip sweep schedule from signed distances.

    Identical ``(row_bits, distance set, scheme)`` requests are
    memoized per process: a fleet campaign schedules each vendor's
    sweep once instead of once per chip.  Memoized schedules carry
    read-only pattern arrays; copy before mutating.

    Args:
        row_bits: bits per row.
        distances: signed neighbour distances found by the recursion.
        scheme: "sparse", "greedy", or "paper".
    """
    signed = sorted({int(d) for d in distances if d != 0},
                    key=lambda d: (abs(d), d))
    if not signed:
        raise ValueError("cannot schedule with an empty distance set")
    if not obs.enabled():
        return _build_schedule_cached(row_bits, tuple(signed), scheme)
    # Memo hits are per-process state, so the counters live in the
    # non-deterministic "proc." namespace (how often a schedule is
    # rebuilt depends on how targets were sliced into workers).
    before = _build_schedule_cached.cache_info()
    schedule = _build_schedule_cached(row_bits, tuple(signed), scheme)
    after = _build_schedule_cached.cache_info()
    obs.inc("proc.schedule.memo_hits", after.hits - before.hits)
    obs.inc("proc.schedule.memo_misses", after.misses - before.misses)
    obs.event("schedule", scheme=scheme,
              base_rounds=schedule.base_rounds,
              memoized=after.hits > before.hits)
    return schedule


@lru_cache(maxsize=64)
def _build_schedule_cached(row_bits: int, signed: Tuple[int, ...],
                           scheme: str) -> TestSchedule:
    """Memoized schedule construction (normalised distance key)."""
    schedule = _build_schedule(row_bits, signed, scheme)
    for arr in schedule.patterns:
        arr.flags.writeable = False
    for arr in schedule.victim_masks:
        arr.flags.writeable = False
    return schedule


def _build_schedule(row_bits: int, signed: Tuple[int, ...],
                    scheme: str) -> TestSchedule:
    """Uncached schedule construction from normalised signed distances."""
    mags = sorted({abs(d) for d in signed})
    # Both aggressor sides matter even if the recursion only saw one
    # sign (symmetry of physical adjacency).
    full = sorted({s for m in mags for s in (m, -m)})

    if scheme == "sparse":
        stride = sparse_stride(mags)
        offsets = np.arange(row_bits)
        patterns = []
        masks = []
        for t in range(stride):
            victims = offsets % stride == t
            patterns.append(_pattern_for_victims(row_bits, victims, full))
            masks.append(victims)
        return TestSchedule(patterns=patterns, victim_masks=masks,
                            scheme="sparse")

    if scheme == "greedy":
        colours = greedy_colouring(row_bits, mags)
        patterns = []
        masks = []
        for c in range(int(colours.max()) + 1):
            victims = colours == c
            patterns.append(_pattern_for_victims(row_bits, victims, full))
            masks.append(victims)
        return TestSchedule(patterns=patterns, victim_masks=masks,
                            scheme="greedy")

    if scheme == "paper":
        chunk = 2 * max(mags)
        gap = min(mags)
        n_groups = -(-chunk // gap)  # ceil
        patterns = []
        masks = []
        offsets = np.arange(row_bits)
        for g in range(n_groups):
            in_group = (offsets % chunk) // gap == g
            patterns.append(_pattern_for_victims(row_bits, in_group, full))
            masks.append(in_group)
        return TestSchedule(patterns=patterns, victim_masks=masks,
                            scheme="paper")

    raise ValueError(f"unknown scheme {scheme!r}")


def paper_round_count(distances: Sequence[int]) -> int:
    """Total rounds (incl. inverses) of the paper's chunk scheme."""
    mags = sorted({abs(int(d)) for d in distances if d != 0})
    if not mags:
        raise ValueError("empty distance set")
    chunk = 2 * max(mags)
    return 2 * (-(-chunk // min(mags)))
