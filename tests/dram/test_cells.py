"""Coupled-cell population: generation invariants and failure rules."""

import numpy as np
import pytest

from repro.dram import (NO_NEIGHBOUR, CoupledCellPopulation, CouplingSpec,
                        vendor)
from repro.dram.cells import MAX_CONTEXT


def make_pop(n_cells=500, seed=0, **spec_kwargs):
    spec = CouplingSpec(n_cells=n_cells, **spec_kwargs)
    rng = np.random.default_rng(seed)
    return CoupledCellPopulation.generate(spec, n_rows=64, row_bits=1024,
                                          tile_bits=128, rng=rng)


def manual_pop(w_left, w_right, p_fail=1.0, context=None):
    """A single victim at row 0, phys 5, aggressors at 4 and 6."""
    ctx = np.full((1, 2 * MAX_CONTEXT), NO_NEIGHBOUR, dtype=np.int64)
    if context:
        for i, pos in enumerate(context):
            ctx[0, i] = pos
    return CoupledCellPopulation(
        row=np.array([0]), phys=np.array([5]),
        left_phys=np.array([4]), right_phys=np.array([6]),
        w_left=np.array([w_left]), w_right=np.array([w_right]),
        p_fail=np.array([p_fail]), context=ctx)


def flips(pop, charge, rng, stress=1.0):
    """One read's decision rule on a dense physical-order charge state."""
    charged = charge[pop.row[:, None], pop.slot_cols()] == 1
    return pop.exposure(charged, rng.random(len(pop)), stress)


def charge_grid(row_bits=16):
    return np.zeros((1, row_bits), dtype=np.uint8)


class TestGeneration:
    def test_population_size(self):
        assert len(make_pop(321)) == 321

    def test_strong_weak_partition(self):
        pop = make_pop()
        assert (pop.strong_mask | pop.weak_mask).all()
        assert not (pop.strong_mask & pop.weak_mask).any()

    def test_strong_fraction_respected(self):
        pop = make_pop(4000, strong_fraction=0.5)
        frac = pop.strong_mask.mean()
        assert 0.42 <= frac <= 0.58

    def test_weak_weights_require_both_sides(self):
        pop = make_pop()
        weak = pop.weak_mask
        assert (pop.w_left[weak] < 1.0).all()
        assert (pop.w_right[weak] < 1.0).all()
        assert (pop.w_left[weak] + pop.w_right[weak] >= 1.0).all()

    def test_aggressors_adjacent_or_edge(self):
        pop = make_pop()
        has_left = pop.left_phys != NO_NEIGHBOUR
        has_right = pop.right_phys != NO_NEIGHBOUR
        assert np.array_equal(pop.left_phys[has_left],
                              pop.phys[has_left] - 1)
        assert np.array_equal(pop.right_phys[has_right],
                              pop.phys[has_right] + 1)

    def test_weak_victims_never_at_tile_edges(self):
        pop = make_pop(3000)
        weak = pop.weak_mask
        assert (pop.left_phys[weak] != NO_NEIGHBOUR).all()
        assert (pop.right_phys[weak] != NO_NEIGHBOUR).all()

    def test_strong_victims_have_no_context(self):
        pop = make_pop()
        strong = pop.strong_mask
        assert (pop.context[strong] == NO_NEIGHBOUR).all()

    def test_context_positions_within_tile(self):
        pop = make_pop(3000)
        tile = 128
        for j in range(2 * MAX_CONTEXT):
            ok = pop.context[:, j] != NO_NEIGHBOUR
            assert (pop.context[ok, j] // tile == pop.phys[ok] // tile).all()

    def test_context_excludes_first_order_distances(self):
        mapping = vendor("A").mapping(8192)
        spec = CouplingSpec(n_cells=3000)
        rng = np.random.default_rng(3)
        pop = CoupledCellPopulation.generate(
            spec, n_rows=16, row_bits=8192, tile_bits=mapping.tile_bits,
            rng=rng, mapping=mapping)
        p2s = mapping.phys_to_sys()
        first = set(mapping.neighbour_distance_set())
        for j in range(2 * MAX_CONTEXT):
            ok = pop.context[:, j] != NO_NEIGHBOUR
            sys_d = p2s[pop.context[ok, j]] - p2s[pop.phys[ok]]
            assert not any(int(d) in first for d in sys_d)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CouplingSpec(n_cells=-1)
        with pytest.raises(ValueError):
            CouplingSpec(n_cells=1, strong_fraction=1.5)
        with pytest.raises(ValueError):
            CouplingSpec(n_cells=1, context_k_probs=(1.0,))
        with pytest.raises(ValueError):
            CouplingSpec(n_cells=1,
                         context_k_probs=(0.5, 0.2, 0.2, 0.2, 0.2))

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            CoupledCellPopulation(
                row=np.zeros(2), phys=np.zeros(2), left_phys=np.zeros(2),
                right_phys=np.zeros(2), w_left=np.zeros(2),
                w_right=np.zeros(1), p_fail=np.zeros(2))


class TestFailureRules:
    def test_uniform_charge_never_fails(self):
        pop = manual_pop(w_left=1.2, w_right=0.1)
        rng = np.random.default_rng(0)
        for value in (0, 1):
            charge = np.full((1, 16), value, dtype=np.uint8)
            assert not flips(pop, charge, rng).any()

    def test_strong_left_fails_with_left_opposite(self):
        pop = manual_pop(w_left=1.2, w_right=0.1)
        charge = charge_grid()
        charge[0, 5] = 1   # victim charged
        charge[0, 6] = 1   # right same -> only left differs
        fails = flips(pop, charge, np.random.default_rng(0))
        assert fails.all()

    def test_strong_left_ignores_right_neighbour(self):
        pop = manual_pop(w_left=1.2, w_right=0.1)
        charge = charge_grid()
        charge[0, 5] = 1
        charge[0, 4] = 1   # left same -> no dominant interference
        fails = flips(pop, charge, np.random.default_rng(0))
        assert not fails.any()

    def test_discharged_victim_never_fails(self):
        pop = manual_pop(w_left=1.2, w_right=1.2)
        charge = np.ones((1, 16), dtype=np.uint8)
        charge[0, 5] = 0   # victim discharged among charged cells
        fails = flips(pop, charge, np.random.default_rng(0))
        assert not fails.any()

    def test_weak_needs_both_neighbours(self):
        pop = manual_pop(w_left=0.6, w_right=0.6)
        charge = charge_grid()
        charge[0, 5] = 1
        charge[0, 4] = 1   # only right opposite
        assert not flips(pop, charge, np.random.default_rng(0)).any()
        charge[0, 4] = 0   # both opposite
        assert flips(pop, charge, np.random.default_rng(0)).all()

    def test_context_veto(self):
        pop = manual_pop(w_left=0.6, w_right=0.6, context=[3, 8])
        charge = charge_grid()
        charge[0, 5] = 1            # victim charged, aggressors 0
        charge[0, 3] = 1            # context holds victim value
        charge[0, 8] = 1
        assert flips(pop, charge, np.random.default_rng(0)).all()
        charge[0, 8] = 0            # one context cell shields
        assert not flips(pop, charge, np.random.default_rng(0)).any()

    def test_p_fail_zero_never_fails(self):
        pop = manual_pop(w_left=1.5, w_right=1.5, p_fail=0.0)
        charge = charge_grid()
        charge[0, 5] = 1
        assert not flips(pop, charge, np.random.default_rng(0)).any()

