"""Mitigation mechanisms over PARBOR failure maps."""

import pytest

from repro.core import ParborConfig, run_parbor
from repro.dram import vendor
from repro.mitigate import (CLASSES, classify, compare_mitigations,
                            ecc_coverage, row_retirement)


class TestClassify:
    def test_bands(self):
        assert classify(0) == "clean"
        assert classify(1) == "correctable"
        assert classify(2) == "detect-only"
        for n in (3, 4, 17):
            assert classify(n) == "miscorrection-prone"

    def test_classes_ordered_by_severity(self):
        assert CLASSES == ("clean", "correctable", "detect-only",
                           "miscorrection-prone")

    def test_three_way_report_counts(self):
        # Word 0: one cell; word 1: two cells; word 2: three cells.
        detected = {(0, 0, 0, 5),
                    (0, 0, 0, 64), (0, 0, 0, 100),
                    (0, 0, 0, 128), (0, 0, 0, 150), (0, 0, 0, 190)}
        report = ecc_coverage(detected)
        assert report.correctable_words == 1
        assert report.detect_only_words == 1
        assert report.miscorrection_prone_words == 1
        # The legacy two-way view groups detect-only with
        # miscorrection-prone.
        assert report.uncorrectable_words == 2

    def test_quarantined_cells_consume_correction_budget(self):
        detected = {(0, 0, 0, 5)}

        class Quarantine:
            reasons = {(0, 0, 0, 40): "unstable"}
        report = ecc_coverage(detected, quarantine=Quarantine())
        assert report.correctable_words == 0
        assert report.detect_only_words == 1


class TestEcc:
    def test_single_error_words_correctable(self):
        detected = {(0, 0, 0, 5), (0, 0, 0, 70), (0, 0, 1, 200)}
        report = ecc_coverage(detected)
        # Columns 5 (word 0), 70 (word 1), 200 (word 3): all singles.
        assert report.words_with_failures == 3
        assert report.correctable_words == 3
        assert report.coverage == 1.0

    def test_double_error_word_uncorrectable(self):
        detected = {(0, 0, 0, 5), (0, 0, 0, 60)}   # both in word 0
        report = ecc_coverage(detected)
        assert report.uncorrectable_words == 1
        assert report.coverage == 0.0

    def test_word_grouping_respects_row_and_bank(self):
        detected = {(0, 0, 0, 5), (0, 1, 0, 5), (0, 0, 1, 5)}
        report = ecc_coverage(detected)
        assert report.words_with_failures == 3
        assert report.coverage == 1.0

    def test_storage_overhead(self):
        assert ecc_coverage(set()).storage_overhead == 0.125
        assert ecc_coverage(set()).coverage == 1.0


class TestRetirement:
    def test_rows_counted_once(self):
        detected = {(0, 0, 3, 5), (0, 0, 3, 99), (0, 0, 7, 1)}
        report = row_retirement(detected, n_chips=1, n_banks=1,
                                n_rows=64)
        assert report.retired_rows == 2
        assert report.capacity_overhead == pytest.approx(2 / 64)

    def test_spares_absorb_retirement(self):
        detected = {(0, 0, 3, 5), (0, 0, 7, 1)}
        report = row_retirement(detected, 1, 1, 64, spare_rows=4)
        assert report.within_spares
        assert report.capacity_overhead == 0.0

    def test_empty_map(self):
        report = row_retirement(set(), 1, 1, 64)
        assert report.retired_rows == 0
        assert report.capacity_overhead == 0.0


class TestComparison:
    @pytest.fixture(scope="class")
    def campaign(self):
        chip = vendor("A").make_chip(seed=17, n_rows=64,
                                     vulnerability=0.3)
        result = run_parbor(chip, ParborConfig(sample_size=800), seed=2)
        return chip, result

    def test_report_structure(self, campaign):
        chip, result = campaign
        report = compare_mitigations(chip, result)
        mechanisms = [r.mechanism for r in report.rows]
        assert len(mechanisms) == 3
        assert any("ECC" in m for m in mechanisms)
        rows = report.as_table_rows()
        assert all(len(r) == 4 for r in rows)

    def test_ecc_covers_most_sparse_failures(self, campaign):
        chip, result = campaign
        report = compare_mitigations(chip, result)
        # Failures are sparse relative to 64-bit words; most words hold
        # a single vulnerable cell.
        assert report.ecc.coverage > 0.7

    def test_retirement_total_but_costly(self, campaign):
        chip, result = campaign
        report = compare_mitigations(chip, result)
        retire_row = next(r for r in report.rows
                          if "retirement" in r.mechanism)
        assert retire_row.coverage == 1.0
        assert retire_row.overhead > 0.0
