"""Random (non-data-dependent) failure injectors."""

import numpy as np
import pytest

from repro.dram import FaultSpec, RandomFaultModel


def make_model(seed=0, **kwargs):
    spec = FaultSpec(**kwargs)
    rng = np.random.default_rng(seed)
    return RandomFaultModel(spec, n_rows=64, row_bits=1024, rng=rng)


def charged(n_rows=64, row_bits=1024):
    """Every cell charged (dense, physical order)."""
    return np.ones((n_rows, row_bits), dtype=np.uint8)


def read_flips(model, charge, stress=1.0):
    """``(rows, cols)`` of one read's weak, soft, VRT and marginal flips.

    The model's own draws and decision rule (:meth:`draw`,
    :meth:`hits`), on a dense charge state.
    """
    soft, leaky, coin = model.draw()
    cells = model.cells()
    weak, vrt, marginal = model.hits(
        stress, [charge[r, p] == 1 for r, p in cells], leaky, coin)
    (w_row, w_phys), (v_row, v_phys), (m_row, m_phys) = cells
    rows = (w_row[weak], soft // model.row_bits, v_row[vrt],
            m_row[marginal])
    cols = (w_phys[weak], soft % model.row_bits, v_phys[vrt],
            m_phys[marginal])
    return np.concatenate(rows), np.concatenate(cols)


class TestSoftErrors:
    def test_rate_scales_with_cells(self):
        model = make_model(soft_error_rate=1e-3)
        totals = sum(len(read_flips(model, charged())[0])
                     for _ in range(50))
        expected = 50 * 1e-3 * 64 * 1024
        assert 0.5 * expected <= totals <= 1.5 * expected

    def test_zero_rate_no_flips(self):
        model = make_model(soft_error_rate=0.0)
        rows, cols = read_flips(model, charged())
        assert len(rows) == 0 and len(cols) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(soft_error_rate=-1.0)


class TestVrt:
    def test_leaky_vrt_fails_when_charged(self):
        model = make_model(soft_error_rate=0.0, n_vrt_cells=20,
                           vrt_toggle_prob=0.0,
                           vrt_leaky_start_fraction=1.0)
        rows, cols = read_flips(model, charged())
        assert len(rows) == 20

    def test_vrt_silent_when_discharged(self):
        model = make_model(soft_error_rate=0.0, n_vrt_cells=20,
                           vrt_toggle_prob=0.0,
                           vrt_leaky_start_fraction=1.0)
        empty = np.zeros((64, 1024), dtype=np.uint8)
        rows, _cols = read_flips(model, empty)
        assert len(rows) == 0

    def test_vrt_never_leaky_never_fails(self):
        model = make_model(soft_error_rate=0.0, n_vrt_cells=20,
                           vrt_toggle_prob=0.0,
                           vrt_leaky_start_fraction=0.0)
        rows, _ = read_flips(model, charged())
        assert len(rows) == 0

    def test_vrt_toggles_state(self):
        model = make_model(soft_error_rate=0.0, n_vrt_cells=200,
                           vrt_toggle_prob=1.0,
                           vrt_leaky_start_fraction=0.0)
        # First read: every cell toggles to leaky.
        rows, _ = read_flips(model, charged())
        assert len(rows) == 200
        # Second read: toggles back to healthy.
        rows, _ = read_flips(model, charged())
        assert len(rows) == 0

    def test_toggle_prob_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(vrt_toggle_prob=1.5)


class TestMarginal:
    def test_marginal_fails_about_half_the_time(self):
        model = make_model(soft_error_rate=0.0, n_marginal_cells=100,
                           marginal_fail_prob=0.5)
        totals = sum(len(read_flips(model, charged())[0])
                     for _ in range(40))
        assert 0.35 * 4000 <= totals <= 0.65 * 4000

    def test_marginal_prob_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(marginal_fail_prob=2.0)

    def test_flip_coordinates_in_range(self):
        model = make_model(soft_error_rate=1e-4, n_vrt_cells=10,
                           n_marginal_cells=10)
        rows, cols = read_flips(model, charged())
        assert (rows >= 0).all() and (rows < 64).all()
        assert (cols >= 0).all() and (cols < 1024).all()


class TestDeterminism:
    def test_same_seed_same_flips(self):
        a = make_model(seed=42, soft_error_rate=1e-4, n_vrt_cells=30,
                       n_marginal_cells=30)
        b = make_model(seed=42, soft_error_rate=1e-4, n_vrt_cells=30,
                       n_marginal_cells=30)
        ra, ca = read_flips(a, charged())
        rb, cb = read_flips(b, charged())
        assert np.array_equal(ra, rb) and np.array_equal(ca, cb)
