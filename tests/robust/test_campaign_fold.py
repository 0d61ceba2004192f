"""The campaign's one classification vs the set-based post-sweep fold.

A robust :func:`run_parbor` campaign adds the discovery-only and
remap-recovered cells to the sweep's vote ledger as one key-array
union and classifies the ledger once: ``detected``, ``quarantine``
and ``verdicts`` all come from that call.  ``tests/oracle.py`` keeps
the fold it replaced (:func:`tests.oracle.campaign_fold`): the sweep's
verdicts rebuilt and classified cell by cell with the scalar rule, the
discovery and recovery cells folded into ``discovery_only``, and the
detections classified again.  The two must report the same campaign.
"""

import pytest

from repro.core import ParborConfig, run_parbor
from repro.dram import vendor
from repro.ecc import EccCampaignSpec
from repro.robust import CellVerdicts
from repro.robust.verdicts import VERDICTS
from repro.runtime.chaos import ECC_FAULT_KINDS

from tests import oracle

CFG = ParborConfig(sample_size=300)


def _assert_fold_matches(result):
    detected, quarantine, verdicts = oracle.campaign_fold(result)
    # The ECC layer's own reasons come after the fold's, first reason
    # winning: ambiguous recovery reads, then a degraded campaign's
    # detections.
    quarantine.update(sorted(c for c, r in result.quarantine.reasons.items()
                             if r == "ecc-ambiguous"), "ecc-ambiguous")
    if verdicts.degraded:
        quarantine.update(sorted(detected), "ecc-unrecovered")
    assert result.detected == detected
    assert result.quarantine.signature() == quarantine.signature()
    assert result.verdicts.discovery_only == verdicts.discovery_only
    tally = dict.fromkeys(VERDICTS, 0)
    for coord in verdicts.observed():
        tally[oracle.verdict(verdicts, coord)] += 1
    assert result.verdicts.counts() == tally
    return verdicts


@pytest.mark.parametrize("vendor_name", ["A", "B", "C"])
def test_campaign_fold_matches_oracle(vendor_name):
    result = run_parbor(vendor(vendor_name).make_chip(seed=17, n_rows=32),
                        CFG, seed=18, rounds=4)
    _assert_fold_matches(result)
    assert result.quarantine.reason_counts().get("control-failure")


def test_recovery_fold_matches_oracle():
    result = run_parbor(vendor("B").make_chip(seed=13, n_rows=64),
                        ParborConfig(sample_size=500), seed=4, rounds=4,
                        recover_remapped=True)
    verdicts = _assert_fold_matches(result)
    # Not vacuous: recovered cells without sweep votes joined the
    # ledger as discovery-only detections.
    recovered = set(result.recovery.recovered_coords())
    assert recovered - set(verdicts.votes)
    assert recovered - set(verdicts.votes) <= verdicts.discovery_only


@pytest.mark.parametrize("fault", ECC_FAULT_KINDS)
def test_degraded_ecc_fold_matches_oracle(fault):
    outcome = EccCampaignSpec(
        experiment="characterize", vendor="A", build_seed=7,
        run_seed=2016, n_rows=48, sample_size=500, rounds=4,
        ecc="recover", ecc_fault=fault).run()
    verdicts = _assert_fold_matches(outcome.result)
    assert verdicts.degraded and verdicts.discovery_only


def test_campaign_never_classifies_cell_by_cell(monkeypatch):
    def per_cell(self, coord):
        raise AssertionError("CellVerdicts.verdict called per cell")

    monkeypatch.setattr(CellVerdicts, "verdict", per_cell)
    result = run_parbor(vendor("C").make_chip(seed=17, n_rows=32), CFG,
                        seed=18, rounds=4)
    assert result.detected and result.quarantine
