"""Differential tests: the packed engine vs. the dense oracle.

The substrate's hot operations (broadcast writes, patched sparse
writes, coupled-cell decay, batched retention verification) each have
one production implementation, which must be *bit-identical* to the
straight-line per-cell specification in ``tests/oracle.py``.  These
tests drive the same seeded operations through both and require
equality of charge arrays, read-back data, and full campaign outputs
- including the ``profile_signature`` of the detected failures, for
the legacy single pass and for repeat-and-vote rounds.  The memoized
schedule and discovery battery are compared with fresh, uncached
constructions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParborConfig, run_parbor
from repro.core.patterns import (checkerboard, discovery_patterns,
                                 random_pattern, solid, with_inverses)
from repro.core.scheduler import _build_schedule, build_schedule
from repro.dram import Bank, vendor
from repro.dram.controller import MemoryController
from repro.robust.integrity import profile_signature

from tests import oracle
from tests.runtime.test_sweep_kernel import (N_ROWS, _assert_same, _attach,
                                             _chips, _state)


def _chip(vendor_name="A", seed=5, n_rows=32):
    return vendor(vendor_name).make_chip(seed=seed, n_rows=n_rows)


def _bank(vendor_name="A", seed=5, n_rows=32):
    return _chip(vendor_name, seed, n_rows).banks[0]


# -- write path -----------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_write_rows_broadcast_matches_reference(seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, size=8192, dtype=np.uint8)
    rows = np.unique(rng.integers(0, 32, size=12))

    ref = _bank(seed=int(seed) % 97)
    fast = _bank(seed=int(seed) % 97)
    oracle.write_rows(ref, rows, data)
    fast.write_rows(rows, data)
    assert np.array_equal(ref.charge, fast.charge)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=0, max_value=1),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=10, deadline=None)
def test_write_rows_patched_matches_dense_write(seed, base, span_size):
    """Sparse scatter == building the whole system image and writing it."""
    rng = np.random.default_rng(seed)
    n_rows = 16
    rows = np.unique(rng.integers(0, 32, size=n_rows))
    n = len(rows)
    n_spans = int(rng.integers(0, 5))
    span_rows = rng.integers(0, n, size=n_spans)
    starts = rng.integers(0, 8192 - span_size, size=n_spans)
    n_points = int(rng.integers(0, 20))
    point_rows = rng.integers(0, n, size=n_points)
    point_cols = rng.integers(0, 8192, size=n_points)
    value = 1 - base
    spans = (span_rows, starts, span_size, value)
    points = (point_rows, point_cols, base)

    expected = np.full((n, 8192), base, dtype=np.uint8)
    for r, s in zip(span_rows.tolist(), starts.tolist()):
        expected[r, s:s + span_size] = value
    expected[point_rows, point_cols] = base

    dense = _bank(seed=3)
    dense.write_rows(rows, expected)
    ref = _bank(seed=3)
    oracle.write_rows_patched(ref, rows, base, spans=spans, points=points)
    patched = _bank(seed=3)
    patched.write_rows_patched(rows, base, spans=spans, points=points)
    assert np.array_equal(dense.charge, patched.charge)
    assert np.array_equal(ref.charge, patched.charge)


# -- retention verification ----------------------------------------------


def _read_rows(geometry, ecc, noise, seed):
    """Three retention reads of random rows, then every bank's state."""
    (chip,) = _chips(geometry, seed, 1, 1)
    _attach([chip], ecc, noise, seed)
    bank = chip.banks[0]
    rng = np.random.default_rng(seed)
    bank.write_rows(np.arange(N_ROWS), rng.integers(
        0, 2, size=(N_ROWS, bank.row_bits), dtype=np.uint8))
    out = []
    for _ in range(3):
        rows = np.unique(rng.integers(0, N_ROWS, size=5))
        bank.write_rows(rows, rng.integers(0, 2, size=bank.row_bits,
                                           dtype=np.uint8))
        out.append(bank.retention_read_rows(rows))
    out.append(bank.retention_read_all())
    return out + _state([MemoryController(chip)])


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(["B", "64", "128", "200"]),
       st.sampled_from([None, "lens", "recover", "wrong"]),
       st.sampled_from([None, "device", "forced"]))
@settings(max_examples=40, deadline=None)
def test_retention_read_rows_matches_reference(seed, geometry, ecc, noise):
    """Same seeded draws -> same observed data and bank state, both
    paths: the data, the bank stream, ``vrt_leaky``, the ECC counters
    and ambiguous set, and the noise clock and coins."""
    if geometry == "200":
        ecc = None
    got = _read_rows(geometry, ecc, noise, seed)
    with oracle.oracle_substrate():
        want = _read_rows(geometry, ecc, noise, seed)
    _assert_same(got, want)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_retention_check_cells_matches_full_read(seed):
    """The sparse cell check equals comparing the full read-back."""
    rng = np.random.default_rng(seed)
    rows = np.unique(rng.integers(0, 32, size=10))
    data = rng.integers(0, 2, size=8192, dtype=np.uint8)
    n_check = 50
    check_row_idx = rng.integers(0, len(rows), size=n_check)
    check_cols = rng.integers(0, 8192, size=n_check)

    full = _bank("C", seed=int(seed) % 83)
    ref = _bank("C", seed=int(seed) % 83)
    sparse = _bank("C", seed=int(seed) % 83)
    full.write_rows(rows, data)
    observed = full.retention_read_rows(rows)
    expected = observed[check_row_idx, check_cols] != data[check_cols]
    with oracle.oracle_substrate():
        ref.write_rows(rows, data)
        ref_got = ref.retention_check_cells(rows, check_row_idx,
                                            check_cols)
    sparse.write_rows(rows, data)
    got = sparse.retention_check_cells(rows, check_row_idx, check_cols)
    assert np.array_equal(expected, got)
    assert np.array_equal(ref_got, got)


# -- memoized construction ------------------------------------------------


def test_memoized_schedule_matches_reference():
    for distances in ([8, -8, 16, -16, 48, -48], [1, -1, 64, -64]):
        signed = tuple(sorted(set(distances), key=lambda d: (abs(d), d)))
        ref = _build_schedule(8192, signed, "sparse")
        fast = build_schedule(8192, distances)
        assert ref.scheme == fast.scheme
        assert len(ref.patterns) == len(fast.patterns)
        for a, b in zip(ref.patterns, fast.patterns):
            assert np.array_equal(a, b)
        for a, b in zip(ref.victim_masks, fast.victim_masks):
            assert np.array_equal(a, b)


def test_memoized_schedule_is_shared_and_read_only():
    a = build_schedule(8192, [8, -8])
    b = build_schedule(8192, [-8, 8])  # normalised to the same key
    assert a is b
    with pytest.raises(ValueError):
        a.patterns[0][0] ^= 1


def test_memoized_battery_matches_reference():
    rng = np.random.default_rng(4)
    ref = list(with_inverses([
        ("solid0", solid(8192, 0)),
        ("checker1", checkerboard(8192, period=1)),
        ("stripe8", checkerboard(8192, period=8)),
    ]))
    ref += [(f"rand{i}", random_pattern(8192, rng)) for i in range(2)]
    fast = discovery_patterns(8192, 8, np.random.default_rng(4))
    assert [n for n, _ in ref] == [n for n, _ in fast]
    for (_, a), (_, b) in zip(ref, fast):
        assert np.array_equal(a, b)


# -- whole campaign -------------------------------------------------------


def test_oracle_substrate_patches_and_restores():
    engine = (Bank.write_rows, Bank.retention_check_cells,
              Bank.retention_read_rows)
    with oracle.oracle_substrate():
        assert Bank.write_rows is oracle.write_rows
        assert Bank.retention_check_cells is oracle.retention_check_cells
        assert Bank.retention_read_rows is oracle.retention_read_rows
    assert (Bank.write_rows, Bank.retention_check_cells,
            Bank.retention_read_rows) == engine


def _assert_campaigns_identical(ref, fast):
    assert profile_signature(ref.detected) == profile_signature(
        fast.detected)
    assert ref.distances == fast.distances
    assert ref.detected == fast.detected
    assert ref.total_tests == fast.total_tests
    assert ref.recursion.tests_per_level == fast.recursion.tests_per_level
    assert ref.sample.coords() == fast.sample.coords()
    assert ref.stats.tests == fast.stats.tests
    assert ref.stats.rows_written == fast.stats.rows_written
    assert ref.stats.rows_read == fast.stats.rows_read


@pytest.mark.parametrize("vendor_name", ["A", "B", "C"])
def test_campaign_identical_to_reference(vendor_name):
    cfg = ParborConfig(sample_size=300)

    with oracle.oracle_substrate():
        ref = run_parbor(_chip(vendor_name, seed=17, n_rows=32), cfg,
                         seed=18)
    fast = run_parbor(_chip(vendor_name, seed=17, n_rows=32), cfg,
                      seed=18)
    _assert_campaigns_identical(ref, fast)


@pytest.mark.parametrize("vendor_name", ["A", "B", "C"])
def test_robust_campaign_identical_to_reference(vendor_name):
    """Repeat-and-vote rounds re-seed and restore bank streams; the
    oracle must agree on every verdict and the quarantine too."""
    cfg = ParborConfig(sample_size=300)

    with oracle.oracle_substrate():
        ref = run_parbor(_chip(vendor_name, seed=17, n_rows=32), cfg,
                         seed=18, rounds=4)
    fast = run_parbor(_chip(vendor_name, seed=17, n_rows=32), cfg,
                      seed=18, rounds=4)
    _assert_campaigns_identical(ref, fast)
    assert ref.quarantine.signature() == fast.quarantine.signature()
