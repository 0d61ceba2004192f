"""Fault plans compose: stacked faults keep every layer and identity.

Each schedule merges its faults into the plan a spec already carries,
so process chaos on top of device noise, or on top of an on-die ECC
campaign, still measures the noisy / ECC campaign - and, once the
retries absorb the process faults, recovers byte-identical to the
clean run of that same campaign.
"""

import dataclasses

import pytest

from repro.dram import vendor
from repro.dram.faults import NoiseSpec
from repro.ecc import EccCampaignSpec
from repro.runtime import chaos_schedule, device_noise_schedule, run_fleet

from .conftest import small_specs

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

NOISE = NoiseSpec(n_vrt_cells=3, vrt_fail_prob=1.0,
                  n_marginal_cells=3, marginal_fail_prob=0.8)

ECC_KW = dict(experiment="characterize", vendor="A", build_seed=7,
              run_seed=2016, n_rows=48, sample_size=500)


def noisy_specs():
    """The chaos fleet, swept (so noise reaches the verdicts) and noisy."""
    swept = [dataclasses.replace(s, run_sweep=True) for s in small_specs()]
    return device_noise_schedule(11, swept, NOISE, rounds=2)


@pytest.fixture(scope="module")
def clean_noisy():
    """The noisy campaign every stacked process plan must reproduce."""
    return run_fleet(noisy_specs(), jobs=1)


@pytest.mark.parametrize("fault,jobs", [("transient", 1), ("crash", 2)])
def test_process_chaos_on_device_noise_recovers_noisy_run(
        tmp_path, clean_noisy, fault, jobs):
    noisy = noisy_specs()
    stacked = chaos_schedule(3, noisy, str(tmp_path), faults=(fault,),
                             max_faults_per_target=1, fault_rate=1.0)
    # Both layers survive the stacking; only noise joins the identity.
    for spec, base in zip(stacked, noisy):
        assert spec.faults.process == (fault,)
        assert spec.faults.noise == NOISE
        assert spec.faults.noise_seed == base.faults.noise_seed
        assert spec.checkpoint_key() == base.checkpoint_key()
    fleet = run_fleet(stacked, jobs=jobs, retries=2, backoff_base=0.01)
    assert fleet.attempts > len(stacked)
    assert fleet.signatures() == clean_noisy.signatures()


def test_process_chaos_on_ecc_recover_keeps_ecc_identity(tmp_path):
    ecc = EccCampaignSpec(**ECC_KW, ecc="recover")
    clean = run_fleet([ecc], jobs=1)
    (stacked,) = chaos_schedule(5, [ecc], str(tmp_path),
                                faults=("transient",),
                                max_faults_per_target=2, fault_rate=1.0)
    assert isinstance(stacked, EccCampaignSpec)
    assert stacked.label() == "characterize:A1+ecc-recover"
    assert stacked.checkpoint_key() == ecc.checkpoint_key()
    assert stacked.trace_id() == ecc.trace_id()
    fleet = run_fleet([stacked], jobs=1, retries=2, backoff_base=0.0)
    assert fleet.attempts == 3
    assert fleet.signatures() == clean.signatures()


def test_device_noise_on_ecc_spec_attaches_both_layers():
    ecc = EccCampaignSpec(**ECC_KW, ecc="recover")
    (noisy,) = device_noise_schedule(2, [ecc], NOISE)
    (plain_noisy,) = device_noise_schedule(
        2, [EccCampaignSpec(**ECC_KW, ecc="null")], NOISE)
    assert noisy.label() == ecc.label()
    assert noisy.checkpoint_key() not in (ecc.checkpoint_key(),
                                          plain_noisy.checkpoint_key())
    chip = vendor("A").make_chip(seed=7, n_rows=48)
    noisy._prepare_chips([chip])
    assert all(bank.noise is not None and bank.ecc is not None
               for bank in chip.banks)
