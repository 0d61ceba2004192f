"""Coupled-cell populations: the data-dependent failure model.

A *victim* cell fails when the parasitic bitline coupling from its
physical neighbours disturbs its read-out enough to flip the sensed
value (paper Section 2.3). We normalise the victim's disturb threshold
to 1.0 and give each victim a left and a right coupling weight:

* **strongly coupled** victims have one weight >= 1.0 - a single
  opposite-charge neighbour flips them (paper Figure 6a);
* **weakly coupled** victims have both weights < 1.0 but a sum >= 1.0 -
  they flip only when *both* neighbours hold the opposite charge
  (Figure 6b).

A victim is disturbed only while *charged* (the paper's charge-sharing
and sensing failures both flip a charged victim towards 0), and only by
neighbours that are *discharged*, so uniform data never fails - the
defining property of a data-dependent failure.

Weakly coupled victims are additionally *context sensitive*: their
marginal disturbance only crosses the threshold when ``k`` second-order
physical neighbours (positions two and three cells out) hold the
victim's own charge, so their bitlines swing with the victim instead of
shielding it. This wider pattern specificity is well documented in the
NPSF literature the paper builds on (its refs [19, 70, 77]) and is what
makes random-pattern testing ineffective: a random background matches a
context-k cell's full worst-case configuration with probability
``2^-(3+2k)`` per test, while a neighbour-aware pattern - victim
charged, immediate neighbours discharged, everything else at the
victim's value - matches it *by construction*. Without it, an
equal-budget random test would saturate and the paper's Figure 12/13
gaps could not exist.

Because cells sit at the retention margin, even a full worst-case
exposure fails with a per-cell probability ``p_fail`` rather than
deterministically.

The population is stored as parallel numpy arrays (struct-of-arrays)
so a whole bank's failure evaluation is a handful of vectorised
gathers. Neighbour *positions* are stored explicitly, which lets
remapped spare columns (paper Section 7.3) carry irregular
neighbourhoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = ["CoupledCellPopulation", "CouplingSpec", "MAX_CONTEXT",
           "NO_NEIGHBOUR", "VictimSlots"]

#: Sentinel for "no physical neighbour on this side" (tile edge).
NO_NEIGHBOUR = -1


#: Maximum context cells per side for weakly coupled victims.
MAX_CONTEXT = 4


@dataclass(frozen=True)
class CouplingSpec:
    """Parameters for generating a coupled-cell population.

    Attributes:
        n_cells: number of coupled victim cells in the bank.
        strong_fraction: fraction of victims that are strongly coupled;
            the rest are weakly coupled.
        p_fail_range: uniform range of the per-exposure failure
            probability under the cell's full worst-case configuration.
        context_k_probs: probabilities of a weak victim requiring
            k = 0..MAX_CONTEXT context cells *per side* to hold the
            victim's value. Larger k means a rarer random-pattern
            worst case and a bigger PARBOR advantage.
        second_order_fraction: fraction of strongly coupled victims
            whose dominant aggressor is a *second-order* physical
            neighbour (two cells out) instead of an immediate one -
            the paper's future-scaling scenario where more neighbours
            interfere (Sections 1/3, its ref [2]). Zero for today's
            chips.
        min_stress_range: uniform range of each victim's minimum
            *retention stress* - the normalised combination of
            temperature and refresh interval (paper Section 6) at
            which the cell's charge is depleted enough for coupling to
            flip it. Stress 1.0 is the paper's test condition (45 degC,
            4 s interval); retention roughly halves per +10 degC, so
            stress scales as ``2^((T-45)/10) * interval/4s``. The
            default upper bound of 1.0 means every coupled cell is
            active at test conditions.
    """

    n_cells: int
    strong_fraction: float = 0.55
    p_fail_range: tuple = (0.97, 1.0)
    context_k_probs: tuple = (0.05, 0.08, 0.14, 0.25, 0.48)
    min_stress_range: tuple = (0.55, 1.0)
    second_order_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.n_cells < 0:
            raise ValueError("n_cells must be non-negative")
        if not 0.0 <= self.strong_fraction <= 1.0:
            raise ValueError("strong_fraction must be in [0, 1]")
        if len(self.context_k_probs) != MAX_CONTEXT + 1:
            raise ValueError(
                f"context_k_probs needs {MAX_CONTEXT + 1} entries")
        if abs(sum(self.context_k_probs) - 1.0) > 1e-9:
            raise ValueError("context_k_probs must sum to 1")
        if not 0.0 <= self.second_order_fraction <= 1.0:
            raise ValueError("second_order_fraction must be in [0, 1]")


class VictimSlots(NamedTuple):
    """The cells a retention wait reads to decide some victims.

    ``cells`` are the selected victims (an index array into the
    population, or ``slice(None)`` for all of them; k victims).
    ``cols`` is ``(3, k)``, slot-major so each slot's charge is one
    contiguous row: each victim's physical column, then its left and
    right aggressor's (an absent aggressor aliases the victim).
    ``ctx`` lists only the present context cells, victim-major;
    ``owner`` is each one's victim (an index into the selection).
    ``starts`` are the offsets into ``ctx`` of the ``has_ctx``
    victims' runs - the victims with at least one context cell.
    """

    cells: np.ndarray
    cols: np.ndarray
    ctx: np.ndarray
    owner: np.ndarray
    starts: np.ndarray
    has_ctx: np.ndarray


class CoupledCellPopulation:
    """Sparse struct-of-arrays population of coupled victim cells.

    Attributes (all numpy arrays of equal length ``n``):
        row: row index of each victim.
        phys: physical column of each victim.
        left_phys / right_phys: physical columns of the two coupling
            aggressors (``NO_NEIGHBOUR`` at a tile edge).
        w_left / w_right: coupling weights (threshold normalised to 1).
        p_fail: per-worst-case-exposure failure probability.
        context: ``(n, 2 * MAX_CONTEXT)`` physical columns of the
            second-order context cells a weak victim requires to hold
            its own value; ``NO_NEIGHBOUR``-padded. Strong victims have
            no context requirement.
        remapped: True for victims living in remapped spare columns.
    """

    def __init__(self, row: np.ndarray, phys: np.ndarray,
                 left_phys: np.ndarray, right_phys: np.ndarray,
                 w_left: np.ndarray, w_right: np.ndarray,
                 p_fail: np.ndarray,
                 context: Optional[np.ndarray] = None,
                 remapped: Optional[np.ndarray] = None,
                 min_stress: Optional[np.ndarray] = None) -> None:
        n = len(row)
        arrays = (phys, left_phys, right_phys, w_left, w_right, p_fail)
        if any(len(a) != n for a in arrays):
            raise ValueError("population arrays must have equal length")
        self.row = np.asarray(row, dtype=np.int64)
        self.phys = np.asarray(phys, dtype=np.int64)
        self.left_phys = np.asarray(left_phys, dtype=np.int64)
        self.right_phys = np.asarray(right_phys, dtype=np.int64)
        self.w_left = np.asarray(w_left, dtype=np.float64)
        self.w_right = np.asarray(w_right, dtype=np.float64)
        self.p_fail = np.asarray(p_fail, dtype=np.float64)
        if context is None:
            context = np.full((n, 2 * MAX_CONTEXT), NO_NEIGHBOUR,
                              dtype=np.int64)
        if context.shape != (n, 2 * MAX_CONTEXT):
            raise ValueError("context must have shape (n, 2*MAX_CONTEXT)")
        self.context = np.asarray(context, dtype=np.int64)
        if remapped is None:
            remapped = np.zeros(n, dtype=bool)
        self.remapped = np.asarray(remapped, dtype=bool)
        if min_stress is None:
            min_stress = np.zeros(n, dtype=np.float64)
        self.min_stress = np.asarray(min_stress, dtype=np.float64)
        # Slot layout, built on first use - column remapping edits the
        # neighbour arrays after construction: the whole population's
        # slots and the CSR offsets of its context runs.
        self._every: Optional[VictimSlots] = None
        self._ptr: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.row)

    @property
    def strong_mask(self) -> np.ndarray:
        """Victims flipped by a single opposite neighbour."""
        return (self.w_left >= 1.0) | (self.w_right >= 1.0)

    @property
    def weak_mask(self) -> np.ndarray:
        """Victims that need both neighbours opposite."""
        return ~self.strong_mask

    # ------------------------------------------------------------------

    @classmethod
    def generate(cls, spec: CouplingSpec, n_rows: int, row_bits: int,
                 tile_bits: int, rng: np.random.Generator,
                 mapping=None) -> "CoupledCellPopulation":
        """Draw a random population over a bank's physical array.

        Victims are placed uniformly over (row, physical column); the
        aggressors are the physically adjacent columns, honouring tile
        edges. Strongly coupled victims get one dominant weight on a
        uniformly chosen side; weakly coupled victims split the weight
        so that only the two-sided worst case crosses the threshold.

        When ``mapping`` (an :class:`~repro.dram.mapping
        .AddressMapping`) is given, context cells whose *system*
        distance from the victim coincides with a first-order
        neighbour distance are not required - their bitline swing is
        already part of the first-order aggressor budget, so requiring
        them would double-count the same analog contribution.
        """
        n = spec.n_cells
        row = rng.integers(0, n_rows, size=n)
        phys = rng.integers(0, row_bits, size=n)

        in_tile = phys % tile_bits
        left = np.where(in_tile == 0, NO_NEIGHBOUR, phys - 1)
        right = np.where(in_tile == tile_bits - 1, NO_NEIGHBOUR, phys + 1)

        strong = rng.random(n) < spec.strong_fraction
        # A strong victim at a tile edge keeps its surviving side.
        side_left = rng.random(n) < 0.5
        side_left = np.where(left == NO_NEIGHBOUR, False, side_left)
        side_left = np.where(right == NO_NEIGHBOUR, True, side_left)

        w_left = np.empty(n)
        w_right = np.empty(n)
        dominant = rng.uniform(1.0, 1.5, size=n)
        minor = rng.uniform(0.0, 0.4, size=n)
        w_left[:] = np.where(side_left, dominant, minor)
        w_right[:] = np.where(side_left, minor, dominant)

        # Weak victims: each side in [0.5, 1.0) so neither alone flips,
        # but the sum always crosses 1.0.
        weak = ~strong
        n_weak = int(weak.sum())
        w_left[weak] = rng.uniform(0.52, 0.98, size=n_weak)
        w_right[weak] = rng.uniform(0.52, 0.98, size=n_weak)
        # A weak victim at a tile edge can never fail; nudge it inward.
        edge_weak = weak & ((left == NO_NEIGHBOUR) | (right == NO_NEIGHBOUR))
        if edge_weak.any():
            phys = phys.copy()
            shift = np.where(left == NO_NEIGHBOUR, 1, -1)
            phys[edge_weak] += shift[edge_weak]
            in_tile = phys % tile_bits
            left = np.where(in_tile == 0, NO_NEIGHBOUR, phys - 1)
            right = np.where(in_tile == tile_bits - 1, NO_NEIGHBOUR,
                             phys + 1)

        lo, hi = spec.p_fail_range
        p_fail = rng.uniform(lo, hi, size=n)

        # Context sensitivity: weak victims require k second-order
        # neighbours per side (positions 2..k+1 cells out) to hold the
        # victim's value. Tile edges truncate the requirement.
        context = np.full((n, 2 * MAX_CONTEXT), NO_NEIGHBOUR,
                          dtype=np.int64)
        k_choices = rng.choice(MAX_CONTEXT + 1, size=n,
                               p=spec.context_k_probs)
        k_choices[strong] = 0
        tile_base = (phys // tile_bits) * tile_bits
        tile_end = tile_base + tile_bits
        first_order = None
        phys_to_sys = None
        if mapping is not None:
            first_order = np.asarray(mapping.neighbour_distance_set(),
                                     dtype=np.int64)
            phys_to_sys = mapping.phys_to_sys()
        for j in range(MAX_CONTEXT):
            offset = j + 2
            need = k_choices > j
            lpos = phys - offset
            rpos = phys + offset
            left_ctx = np.where(need & (lpos >= tile_base), lpos,
                                NO_NEIGHBOUR)
            right_ctx = np.where(need & (rpos < tile_end), rpos,
                                 NO_NEIGHBOUR)
            if first_order is not None:
                for ctx in (left_ctx, right_ctx):
                    ok = ctx != NO_NEIGHBOUR
                    sys_d = (phys_to_sys[ctx[ok]]
                             - phys_to_sys[phys[ok]])
                    collide = np.isin(sys_d, first_order)
                    tmp = ctx[ok]
                    tmp[collide] = NO_NEIGHBOUR
                    ctx[ok] = tmp
            context[:, j] = left_ctx
            context[:, MAX_CONTEXT + j] = right_ctx

        # Future-node extension: some strong victims couple two cells
        # out. Their dominant side keeps its weight but targets p +- 2
        # (clamped inside the tile; edge cases fall back to order 1).
        if spec.second_order_fraction > 0.0:
            promote = strong & (rng.random(n) < spec.second_order_fraction)
            l2 = phys - 2
            r2 = phys + 2
            use_l2 = promote & side_left & (l2 >= tile_base)
            use_r2 = promote & ~side_left & (r2 < tile_end)
            left = np.where(use_l2, l2, left)
            right = np.where(use_r2, r2, right)

        s_lo, s_hi = spec.min_stress_range
        min_stress = rng.uniform(s_lo, s_hi, size=n)

        return cls(row=row, phys=phys, left_phys=left, right_phys=right,
                   w_left=w_left, w_right=w_right, p_fail=p_fail,
                   context=context, min_stress=min_stress)

    # ------------------------------------------------------------------

    def slots(self, cells=slice(None)) -> "VictimSlots":
        """The cells whose charge decides the selected victims.

        ``cells`` selects victims (an index array or a slice).  Their
        :class:`VictimSlots` list each victim, its two aggressors and
        only its *present* context cells.  The whole population's
        slots - a victim/left/right column array and a CSR list of the
        present context cells - are built on first use, after any
        column remapping, and cached; other selections gather from
        them.
        An absent aggressor (a tile edge) aliases the victim's own
        cell: a victim is disturbed only while charged, and then its
        own cell reads as a charged, harmless neighbour.
        """
        if self._every is None:
            aggressors = np.stack([self.left_phys, self.right_phys])
            cols = np.concatenate([self.phys[None], np.where(
                aggressors == NO_NEIGHBOUR, self.phys, aggressors)])
            present = self.context != NO_NEIGHBOUR
            counts = present.sum(axis=1)
            self._ptr = np.zeros(len(self) + 1, dtype=np.int64)
            np.cumsum(counts, out=self._ptr[1:])
            has_ctx = np.flatnonzero(counts)
            self._every = VictimSlots(
                slice(None), cols, self.context[present],
                np.repeat(np.arange(len(self)), counts),
                self._ptr[has_ctx], has_ctx)
        if isinstance(cells, slice):
            if cells == slice(None):
                return self._every
            cells = np.arange(len(self))[cells]
        return self._select(cells)

    def _select(self, idx: np.ndarray) -> "VictimSlots":
        """:meth:`slots` of the victims ``idx`` (an index array)."""
        ptr, every = self._ptr, self._every
        idx = np.asarray(idx, dtype=np.int64)
        counts = ptr[idx + 1] - ptr[idx]
        ends = np.cumsum(counts)
        starts = ends - counts
        # Victim-major ragged gather of each victim's context run.
        at = np.arange(int(ends[-1]) if len(ends) else 0)
        at += np.repeat(ptr[idx] - starts, counts)
        has_ctx = np.flatnonzero(counts)
        return VictimSlots(idx, every.cols[:, idx], every.ctx[at],
                           np.repeat(np.arange(len(idx)), counts),
                           starts[has_ctx], has_ctx)

    def exposure(self, slots: "VictimSlots", charged: np.ndarray,
                 ctx_charged: np.ndarray, coins: np.ndarray,
                 stress: float) -> np.ndarray:
        """Which victims flip, given the charge of their slot cells.

        The decision rule of a retention read, over any number of
        reads at once; its dense per-cell formulation is the test-side
        oracle in ``tests/oracle.py``.  A victim flips when it is
        charged, the coupling weights of its discharged aggressors sum
        to at least 1, every present context cell holds the victim's
        charge, the stress reaches its ``min_stress`` and its coin
        falls under ``p_fail``.

        Args:
            slots: the selected victims' :meth:`slots`.
            charged: bool charge of the ``slots.cols`` cells, shape
                ``(..., 3, k)`` - leading axes index reads.
            ctx_charged: bool charge of the ``slots.ctx`` cells, shape
                ``(..., m)`` with the same leading axes.
            coins: the reads' ``rng.random`` coins of the selected
                victims, shape ``(..., k)``.
            stress: retention stress of the reads.

        Returns:
            Bool ``(..., k)``: True where the victim is corrupted.
        """
        cells = slots.cells
        v = charged[..., 0, :]
        interference = self.w_left[cells] * (v & ~charged[..., 1, :])
        interference += self.w_right[cells] * (v & ~charged[..., 2, :])
        flips = interference >= 1.0
        flips &= self.min_stress[cells] <= stress
        flips &= coins < self.p_fail[cells]
        if len(slots.starts):
            # Only a charged victim can flip, so a context cell that
            # does not hold its charge is a discharged one: each run's
            # minimum charge (as 0/1 bytes, faster than a bool AND).
            held = np.minimum.reduceat(ctx_charged.view(np.uint8),
                                       slots.starts, axis=-1)
            flips[..., slots.has_ctx] &= held.view(bool)
        return flips
