"""Property-based end-to-end tests: PARBOR against random scramblers.

The strongest correctness property of the whole stack: for *any*
scrambler built from a random step set, planting strongly coupled
victims and running the recursion must report only *true* neighbour
distances of that scrambler.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ParborConfig, VictimSample, \
    recursive_neighbour_search
from repro.dram import (CouplingSpec, DramChip, FaultSpec,
                        MemoryController, find_step_path)
from repro.dram.mapping import AddressMapping

STEP_SETS = [(1, 3), (1, 5), (2, 3), (1, 7), (3, 4), (1, 6), (2, 5)]


def random_scrambler_chip(steps, n_cells, seed):
    """A 64-row, 256-bit-row chip with a random step-path scrambler."""
    signed = [s for m in steps for s in (m, -m)]
    path = find_step_path(256, signed)
    mapping = AddressMapping(row_bits=256, block_bits=256,
                             block_path=tuple(path), tile_bits=256)
    spec = CouplingSpec(n_cells=n_cells, strong_fraction=1.0,
                        p_fail_range=(1.0, 1.0))
    chip = DramChip(mapping=mapping, n_rows=64, coupling_spec=spec,
                    fault_spec=FaultSpec(soft_error_rate=0.0), seed=seed)
    return chip, mapping


@given(st.sampled_from(STEP_SETS), st.integers(min_value=0,
                                               max_value=10_000))
@example(steps=(2, 5), seed=7919)
@settings(max_examples=10, deadline=None)
def test_recursion_reports_only_true_distances(steps, seed):
    chip, mapping = random_scrambler_chip(steps, n_cells=600, seed=seed)
    pop = chip.banks[0].coupled
    p2s = mapping.phys_to_sys()
    # One victim per row: 256-bit rows are 32x shorter than real ones,
    # and ParborConfig.max_victims_per_row (8 per 8192-bit row) exists
    # because row-mates tested in the same write land aggressors on
    # each other's neighbours and fabricate distances.  Two per 256-bit
    # row is 8x that density and fabricates -6 for the pinned example.
    coords = []
    rows = set()
    for i in range(len(pop)):
        r = int(pop.row[i])
        if r not in rows:
            rows.add(r)
            coords.append((0, 0, r, int(p2s[pop.phys[i]])))
    ctrl = MemoryController(chip)
    config = ParborConfig(fanouts=(2, 8, 4, 4), sample_size=300)
    result = recursive_neighbour_search(
        [ctrl], VictimSample.from_coords(coords), config)

    truth = set(mapping.neighbour_distance_set())
    assert set(result.distances) <= truth
    # With hundreds of strong victims, the frequent magnitudes appear.
    assert set(result.magnitudes()) <= set(steps)
    assert result.magnitudes(), "no distances recovered at all"


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_full_pipeline_deterministic_for_fixed_seeds(seed):
    """Identical chips + identical campaign seeds => identical output."""
    from repro.core import run_parbor
    from repro.dram import vendor

    def once():
        chip = vendor("B").make_chip(seed=seed % 1000, n_rows=48)
        res = run_parbor(chip, ParborConfig(sample_size=400),
                         seed=seed % 97, run_sweep=False)
        return res.distances, res.recursion.tests_per_level

    assert once() == once()


class TestNoiseRobustness:
    @pytest.mark.parametrize("n_vrt,n_marginal", [(50, 50), (150, 150)])
    def test_distances_survive_heavy_noise(self, n_vrt, n_marginal):
        """Even with several hundred noise cells per bank, the ranking
        and marginal filters keep the distance set clean."""
        from repro.core import run_parbor
        from repro.dram import vendor
        profile = vendor("A")
        spec = FaultSpec(soft_error_rate=1e-7, n_vrt_cells=n_vrt,
                         n_marginal_cells=n_marginal)
        chip = DramChip(mapping=profile.mapping(8192), n_rows=96,
                        coupling_spec=CouplingSpec(n_cells=900),
                        fault_spec=spec, seed=31)
        result = run_parbor(chip, ParborConfig(sample_size=1500),
                            seed=7, run_sweep=False)
        assert result.magnitudes() == [8, 16, 48]
