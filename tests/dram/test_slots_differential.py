"""The compact slot layout's exposure rule against the dense oracle.

``CoupledCellPopulation.exposure`` decides victims from their compact
slots - victim, two aggressors, only the present context cells - and
``tests/oracle.py``'s ``evaluate_failures`` from a dense per-cell
walk over every neighbour position.  They must agree victim for
victim, for any selection of victims and any number of reads.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (NO_NEIGHBOUR, CoupledCellPopulation, CouplingSpec,
                        vendor)
from repro.dram.remap import apply_column_remapping
from tests import oracle

ROW_BITS = 1024
N_ROWS = 4


def _population(seed, tile_bits, second_order, remap, mapped):
    rng = np.random.default_rng(seed)
    mapping = vendor("ABC"[seed % 3]).mapping(ROW_BITS) if mapped else None
    pop = CoupledCellPopulation.generate(
        CouplingSpec(n_cells=300, second_order_fraction=second_order),
        n_rows=N_ROWS, row_bits=ROW_BITS,
        tile_bits=mapping.tile_bits if mapped else tile_bits, rng=rng,
        mapping=mapping)
    if remap:
        apply_column_remapping(
            pop, mapping or vendor("A").mapping(ROW_BITS), remap, rng)
    return pop


def _selection(pop, kind, rng):
    """Victims to decide: an index array, a slice, or an empty one."""
    has_ctx = (pop.context != NO_NEIGHBOUR).any(axis=1)
    n = len(pop)
    if kind == "all":
        return slice(None)
    if kind == "slice":
        start = int(rng.integers(0, n))
        return slice(start, int(rng.integers(start, n + 1)),
                     int(rng.integers(1, 4)))
    if kind == "empty-slice":
        return slice(0, 0)
    if kind == "empty":
        return np.empty(0, dtype=np.int64)
    if kind == "no-context":
        return np.flatnonzero(~has_ctx)
    if kind == "all-context":
        return np.flatnonzero(has_ctx)
    # A shuffled subset with repeats.
    return rng.integers(0, n, size=int(rng.integers(1, 2 * n)))


def _compact(pop, cells, charge, coins, stress):
    """The production rule on a stack of dense charge states."""
    slots = pop.slots(cells)
    rows = pop.row[slots.cells]
    charged = charge[:, rows, slots.cols] == 1
    ctx_charged = charge[:, rows[slots.owner], slots.ctx] == 1
    return pop.exposure(slots, charged, ctx_charged, coins, stress)


@given(seed=st.integers(0, 2**31 - 1),
       tile_bits=st.sampled_from([4, 8, 16, 64]),
       second_order=st.sampled_from([0.0, 0.6]),
       remap=st.sampled_from([0.0, 0.3]),
       mapped=st.booleans(),
       kind=st.sampled_from(["all", "slice", "empty-slice", "empty",
                             "no-context", "all-context", "indices"]),
       n_reads=st.sampled_from([1, 3]),
       stress=st.sampled_from([1.0, 0.7]))
@settings(max_examples=60, deadline=None)
def test_compact_exposure_matches_dense_oracle(seed, tile_bits,
                                               second_order, remap,
                                               mapped, kind, n_reads,
                                               stress):
    pop = _population(seed, tile_bits, second_order, remap, mapped)
    rng = np.random.default_rng(seed + 1)
    cells = _selection(pop, kind, rng)
    # Biased charge so the full worst case (victim charged, both
    # aggressors discharged, context charged) occurs often.
    charge = (rng.random((n_reads, N_ROWS, ROW_BITS)) < 0.6).astype(
        np.uint8)
    expected, coins = [], []
    for t in range(n_reads):
        coins.append(np.random.default_rng([seed, t]).random(len(pop)))
        expected.append(oracle.evaluate_failures(
            pop, charge[t], np.random.default_rng([seed, t]), stress))
    picked = np.arange(len(pop))[cells]
    got = _compact(pop, cells, charge, np.stack(coins)[:, picked], stress)
    assert got.shape == (n_reads, len(picked))
    assert np.array_equal(got, np.stack(expected)[:, picked])


def test_layout_lists_only_present_context():
    """Absent context slots take no room; absent aggressors alias."""
    pop = _population(7, 8, 0.6, 0.3, False)
    slots = pop.slots()
    present = pop.context != NO_NEIGHBOUR
    assert len(slots.ctx) == present.sum()
    assert np.array_equal(slots.ctx, pop.context[present])
    assert np.array_equal(slots.owner, np.nonzero(present)[0])
    assert np.array_equal(slots.has_ctx, np.flatnonzero(present.any(axis=1)))
    no_left = pop.left_phys == NO_NEIGHBOUR
    assert no_left.any()
    assert np.array_equal(slots.cols[1], np.where(no_left, pop.phys,
                                                  pop.left_phys))
    # A single-read call (no leading axis) decides the same victims.
    charge = (np.random.default_rng(1).random((N_ROWS, ROW_BITS))
              < 0.6).astype(np.uint8)
    coins = np.random.default_rng(2).random(len(pop))
    single = pop.exposure(
        slots, charge[pop.row, slots.cols] == 1,
        charge[pop.row[slots.owner], slots.ctx] == 1, coins, 1.0)
    assert np.array_equal(single, oracle.evaluate_failures(
        pop, charge, np.random.default_rng(2)))
