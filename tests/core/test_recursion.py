"""Recursive neighbour search: paper counts and ground-truth recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (ParborConfig, VictimSample,
                        exhaustive_neighbour_search,
                        recursive_neighbour_search)
from repro.core import recursion
from repro.dram import MemoryController, vendor
from tests import oracle

from .conftest import plant_victims, quiet_chip, tiny_mapping

PAPER_TESTS = {"A": [2, 8, 8, 24, 48],
               "B": [2, 8, 8, 24, 24],
               "C": [2, 8, 8, 24, 48]}
PAPER_MAGS = {"A": [8, 16, 48], "B": [1, 64], "C": [16, 33, 49]}

TINY_CFG = ParborConfig(fanouts=(2, 8, 4), sample_size=100)


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_paper_table1_counts_and_figure11_distances(name):
    """The headline result: Table 1 test counts per level and the full
    signed distance sets of Figure 11, per vendor."""
    from repro.core import run_parbor
    chip = vendor(name).make_chip(seed=7, n_rows=128)
    res = run_parbor(chip, ParborConfig(sample_size=2000), seed=3,
                     run_sweep=False)
    assert res.recursion.tests_per_level == PAPER_TESTS[name]
    assert res.magnitudes() == PAPER_MAGS[name]
    # Both signs of every magnitude are recovered.
    for mag in PAPER_MAGS[name]:
        assert mag in res.distances and -mag in res.distances


class TestTinyChipRecursion:
    def _search(self, chip, victims_sys):
        ctrl = MemoryController(chip)
        coords = [(0, 0, r, c) for r, c in victims_sys]
        sample = VictimSample.from_coords(coords)
        return recursive_neighbour_search([ctrl], sample, TINY_CFG)

    def test_recovers_known_distance(self):
        mapping = tiny_mapping()          # distances {+-1, +-8}
        chip = quiet_chip(mapping, n_rows=8)
        # Strong victims spread over rows; snake-fold cells have the
        # +-8 relation, run cells the +-1 relation.
        victims = [dict(row=r, phys=p, w_left=1.5, w_right=0.2)
                   for r, p in [(0, 8), (1, 24), (2, 40), (3, 9),
                                (4, 25), (5, 41), (6, 10), (7, 26)]]
        plant_victims(chip, victims)
        p2s = mapping.phys_to_sys()
        sys_coords = [(v["row"], int(p2s[v["phys"]])) for v in victims]
        result = self._search(chip, sys_coords)
        assert set(result.magnitudes()) <= {1, 8}
        assert 8 in result.magnitudes()

    def test_agrees_with_exhaustive_search(self):
        """PARBOR's answer matches the O(n^2) ground-truth test."""
        mapping = tiny_mapping()
        chip = quiet_chip(mapping, n_rows=8)
        victims = [dict(row=r, phys=8 + 16 * (r % 4), w_left=1.5,
                        w_right=0.2) for r in range(8)]
        plant_victims(chip, victims)
        p2s = mapping.phys_to_sys()
        sys_coords = [(v["row"], int(p2s[v["phys"]])) for v in victims]
        result = self._search(chip, sys_coords)

        ctrl = MemoryController(chip)
        row, col = sys_coords[0]
        pairs = exhaustive_neighbour_search(ctrl, 0, row, col)
        exhaustive_aggressors = {a for pair in pairs for a in pair
                                 if abs(a - col) != 0}
        # The aggressor distance found exhaustively is in PARBOR's set.
        true_distance = {a - col for a in exhaustive_aggressors
                         if (a - col) in result.distances}
        assert true_distance

    def test_empty_sample_returns_empty(self):
        chip = quiet_chip(tiny_mapping(), n_rows=4)
        result = self._search(chip, [])
        assert result.distances == []
        assert result.total_tests == 0

    def test_marginal_victims_discarded(self):
        mapping = tiny_mapping()
        chip = quiet_chip(mapping, n_rows=8)
        # One real victim plus a cell failing everywhere (a "weak
        # cell": coupled to nothing, modelled as w=9 on both sides and
        # context-free, so any opposite neighbour flips it).
        plant_victims(chip, [
            dict(row=0, phys=8, w_left=1.5, w_right=0.2),
        ])
        # Marginal noise cell: inject via the fault model instead.
        bank = chip.banks[0]
        bank.faults.marginal_row = np.array([1])
        bank.faults.marginal_phys = np.array([30])
        bank.faults.marginal_threshold = np.array([0.1])
        bank.faults.spec = bank.faults.spec.__class__(
            soft_error_rate=0.0, n_marginal_cells=1,
            marginal_fail_prob=1.0)
        p2s = mapping.phys_to_sys()
        noise_sys = int(p2s[30])
        result = self._search(
            chip, [(0, int(p2s[8])), (1, noise_sys)])
        total_marginal = sum(lv.discarded_marginal
                             for lv in result.levels)
        assert total_marginal >= 1

    def test_tests_counted_per_level(self):
        mapping = tiny_mapping()
        chip = quiet_chip(mapping, n_rows=8)
        plant_victims(chip, [dict(row=0, phys=20, w_left=1.5,
                                  w_right=0.2)])
        p2s = mapping.phys_to_sys()
        result = self._search(chip, [(0, int(p2s[20]))])
        # Level 1 always costs exactly its fanout.
        assert result.levels[0].tests == 2
        assert result.total_tests == sum(result.tests_per_level)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=0, max_value=12),
       st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=60, deadline=None)
def test_level_tally_matches_per_victim_sets(seed, n_tests, fraction):
    """The matrix bookkeeping of a level equals the per-victim set loop
    it replaced: the same marginal victims and reporter counts."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    v_region = rng.integers(0, 16, size=n)
    sub_abs = v_region + rng.integers(-3, 4, size=(n_tests, n))
    covered = rng.random((n_tests, n)) < 0.8
    failed = rng.random((n_tests, n)) < rng.random()
    active = rng.random(n) < 0.9
    got = recursion._tally(sub_abs, covered, failed, v_region, active,
                           fraction)
    want = oracle.level_tally(sub_abs, covered, failed, v_region, active,
                              fraction)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
