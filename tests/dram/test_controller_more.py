"""Additional controller and bank coverage."""

import numpy as np
import pytest

from repro.dram import MemoryController, vendor


@pytest.fixture()
def ctrl():
    return MemoryController(vendor("A").make_chip(seed=0, n_rows=16))


class TestPerRowPatterns:
    def test_per_row_pattern_roundtrip(self, ctrl):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 2, size=(16, 8192), dtype=np.uint8)
        ctrl.test_pattern(data)
        for row in (0, 7, 15):
            assert np.array_equal(ctrl.read_row(0, row), data[row])

    def test_per_row_counts_one_test(self, ctrl):
        data = np.zeros((16, 8192), dtype=np.uint8)
        ctrl.test_pattern(data)
        assert ctrl.stats.tests == 1
        assert ctrl.stats.retention_waits == 1

    def test_write_rows_accepts_2d(self, ctrl):
        rows = np.array([2, 5])
        data = np.ones((2, 8192), dtype=np.uint8)
        data[1, :100] = 0
        ctrl.write_rows(0, rows, data)
        assert ctrl.read_row(0, 2).all()
        assert not ctrl.read_row(0, 5)[:100].any()

    def test_fill_covers_all_banks(self):
        chip = vendor("A").make_chip(seed=0, n_rows=8, n_banks=2)
        ctrl = MemoryController(chip)
        ctrl.fill(np.ones(8192, dtype=np.uint8))
        assert ctrl.read_row(0, 3).all()
        assert ctrl.read_row(1, 3).all()
        assert ctrl.stats.rows_written == 16


class TestStatsArithmetic:
    def test_estimated_time_counts_components(self, ctrl):
        data = np.zeros(8192, dtype=np.uint8)
        ctrl.test_pattern(data)
        ctrl.test_pattern(data)
        t = ctrl.stats.estimated_time_ns()
        # Two retention waits dominate: >= 128 ms.
        assert t >= 2 * 64e6
        # Row accesses contribute too.
        assert t > 2 * 64e6
