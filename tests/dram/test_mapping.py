"""Address scrambling: constructions, permutations, distance sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (AddressMapping, boustrophedon_path, find_step_path,
                        identity_mapping, pair_block_path,
                        path_step_magnitudes, residue_interleaved_path,
                        vendor)


def _is_permutation(path, length):
    return sorted(path) == list(range(length))


class TestStepPathGenerators:
    def test_boustrophedon_is_permutation(self):
        path = boustrophedon_path(256, block=64)
        assert _is_permutation(path, 256)

    def test_boustrophedon_magnitudes(self):
        path = boustrophedon_path(256, block=64)
        assert set(path_step_magnitudes(path)) == {1, 64}

    def test_boustrophedon_rejects_odd_blocks(self):
        with pytest.raises(ValueError):
            boustrophedon_path(192, block=64)

    def test_pair_block_is_permutation(self):
        path = pair_block_path(128, half=64)
        assert _is_permutation(path, 128)

    def test_pair_block_magnitudes_and_balance(self):
        path = pair_block_path(128, half=64)
        mags = path_step_magnitudes(path)
        assert set(mags) == {1, 64}
        # The long step occurs on half the moves - that frequency is
        # what makes +-64 survive PARBOR's ranking.
        assert mags[64] >= len(path) // 3

    def test_pair_block_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            pair_block_path(100, half=64)
        with pytest.raises(ValueError):
            pair_block_path(126, half=63)

    def test_residue_interleave_is_permutation(self):
        path = residue_interleaved_path(1024, stride=8)
        assert _is_permutation(path, 1024)

    def test_residue_interleave_run_magnitudes(self):
        path = residue_interleaved_path(1024, stride=8)
        run = 1024 // 8
        mags = set()
        for c in range(8):
            mags |= set(path_step_magnitudes(path[c * run:(c + 1) * run]))
        assert mags == {8, 16, 48}

    def test_residue_interleave_balanced_usage(self):
        path = residue_interleaved_path(1024, stride=8)
        run = 1024 // 8
        counts = {8: 0, 16: 0, 48: 0}
        for c in range(8):
            for m, n in path_step_magnitudes(
                    path[c * run:(c + 1) * run]).items():
                counts[m] += n
        # Balanced pattern: no magnitude rarer than half the most
        # common one (ranking survival requires frequency).
        assert min(counts.values()) >= max(counts.values()) // 2

    def test_residue_interleave_rejects_misaligned(self):
        with pytest.raises(ValueError):
            residue_interleaved_path(1001, stride=8)


class TestFindStepPath:
    def test_vendor_c_steps(self):
        path = find_step_path(512, steps=(16, -16, 33, -33, 49, -49))
        assert _is_permutation(path, 512)
        assert set(path_step_magnitudes(path)) == {16, 33, 49}

    def test_balanced_magnitude_usage(self):
        path = find_step_path(512, steps=(16, -16, 33, -33, 49, -49))
        mags = path_step_magnitudes(path)
        assert min(mags.values()) >= max(mags.values()) // 3

    def test_impossible_set_raises(self):
        # Steps of magnitude 2 can never leave the even residue class.
        with pytest.raises(ValueError):
            find_step_path(8, steps=(2, -2))

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            find_step_path(8, steps=(0, 1))

    @given(st.sampled_from([16, 32, 64, 128]),
           st.sampled_from([(1, 3), (1, 5), (2, 3), (3, 4)]))
    @settings(max_examples=20, deadline=None)
    def test_random_small_sets_are_permutations(self, length, mags):
        steps = [s for m in mags for s in (m, -m)]
        path = find_step_path(length, steps)
        assert _is_permutation(path, length)
        assert set(path_step_magnitudes(path)) <= set(mags)


class TestAddressMapping:
    @pytest.mark.parametrize("name,expected", [
        ("A", [8, 16, 48]), ("B", [1, 64]), ("C", [16, 33, 49])])
    def test_vendor_distance_sets(self, name, expected):
        mapping = vendor(name).mapping(8192)
        assert mapping.distance_magnitudes() == expected

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_vendor_mappings_are_bijections(self, name):
        mapping = vendor(name).mapping(8192)
        s2p = mapping.sys_to_phys()
        p2s = mapping.phys_to_sys()
        assert np.array_equal(p2s[s2p], np.arange(8192))
        assert np.array_equal(s2p[p2s], np.arange(8192))

    def test_distance_set_is_sign_symmetric(self):
        for name in "ABC":
            dists = vendor(name).mapping(8192).neighbour_distance_set()
            assert {-d for d in dists} == set(dists)

    @given(st.integers(min_value=0, max_value=8191))
    @settings(max_examples=50, deadline=None)
    def test_neighbours_are_physically_adjacent(self, s):
        """Bit ``s``'s in-tile physical neighbours are at set distances."""
        mapping = vendor("A").mapping(8192)
        dists = set(mapping.neighbour_distance_set())
        p = int(mapping.sys_to_phys()[s])
        tile = p // mapping.tile_bits
        for q in (p - 1, p + 1):
            if 0 <= q < 8192 and q // mapping.tile_bits == tile:
                assert int(mapping.phys_to_sys()[q]) - s in dists

    def test_tile_edges_have_one_neighbour(self):
        """Cells across a tile edge are not neighbours: the physical
        pair (3, 4) sits at system distance 4, which is not counted."""
        mapping = AddressMapping(row_bits=8, block_bits=8,
                                 block_path=(0, 1, 2, 3, 7, 6, 5, 4),
                                 tile_bits=4)
        assert mapping.neighbour_distance_set() == [-1, 1]

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scramble_descramble_roundtrip(self, seed):
        mapping = vendor("C").mapping(8192)
        rng = np.random.default_rng(seed)
        row = rng.integers(0, 2, size=8192, dtype=np.uint8)
        assert np.array_equal(mapping.descramble(mapping.scramble(row)),
                              row)

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_distance_set_matches_per_tile_loop(self, name, order):
        """The vectorised distance set equals the per-tile loop it
        replaced, element for element and in the same order."""
        for width in (8192, 2048):
            mapping = vendor(name).mapping(width)
            sys = mapping.phys_to_sys()
            dists = set()
            for t in range(mapping.n_tiles):
                tile = sys[t * mapping.tile_bits:
                           (t + 1) * mapping.tile_bits]
                if len(tile) <= order:
                    continue
                diffs = tile[order:] - tile[:-order]
                dists.update(int(d) for d in diffs)
                dists.update(int(-d) for d in diffs)
            want = sorted(dists, key=lambda d: (abs(d), d))
            got = mapping.neighbour_distance_set(order)
            assert got == want
            assert all(type(d) is int for d in got)

    def test_identity_mapping_is_linear(self):
        mapping = identity_mapping(64)
        assert mapping.neighbour_distance_set() == [-1, 1]
        assert np.array_equal(mapping.sys_to_phys(), np.arange(64))

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            AddressMapping(row_bits=100, block_bits=64,
                           block_path=tuple(range(64)))
        with pytest.raises(ValueError):
            AddressMapping(row_bits=128, block_bits=64,
                           block_path=tuple(range(63)) + (0,))
        with pytest.raises(ValueError):
            AddressMapping(row_bits=128, block_bits=64,
                           block_path=tuple(range(64)), tile_bits=48)
