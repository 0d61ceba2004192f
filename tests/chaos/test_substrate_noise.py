"""Substrate chaos: the robustness invariant, end to end.

PR 3's chaos suite perturbed the *process* (crashes, hangs); this one
perturbs the *device*.  Seeded device-noise schedules inject VRT cells,
marginal cells, and soft errors into every bank, and the repeat-and-vote
layer must hold three invariants under any such schedule:

1. the ``definite`` cell set is byte-identical to the noise-free run -
   injected noise can add observations but never forge a stable
   data-dependent failure;
2. every injected cell that the campaign observed ends in the
   quarantine, never in the trusted profile;
3. DC-REF bins guardbanded with that quarantine under-refresh zero
   truly-failing rows (clean definite rows plus every injected cell's
   row).
"""

import pytest

from repro.dcref import guardbanded_bins, under_refresh_report
from repro.dram.faults import NoiseSpec
from repro.runtime import CampaignSpec, chip_seed, run_fleet
from repro.runtime.chaos import device_noise_schedule
from tests.oracle import injected_cells

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

ROOT_SEED = 13
VENDORS = ("A", "B", "C")
N_ROWS = 32
N_BANKS = 8
ROUNDS = 3

NOISE = NoiseSpec(n_vrt_cells=3, vrt_fail_prob=1.0,
                  n_marginal_cells=3, marginal_fail_prob=0.8,
                  soft_error_rate=1e-6)


def robust_specs():
    return [
        CampaignSpec(experiment="characterize", vendor=v, index=1,
                     build_seed=chip_seed(ROOT_SEED, v, 0, "build"),
                     run_seed=chip_seed(ROOT_SEED, v, 0, "run"),
                     n_rows=N_ROWS, sample_size=200, run_sweep=True,
                     rounds=ROUNDS)
        for v in VENDORS
    ]


@pytest.fixture(scope="module")
def noise_free():
    """The noise-free robust profile every schedule must reproduce."""
    return run_fleet(robust_specs(), jobs=1)


@pytest.mark.parametrize("noise_seed", [1, 2, 3])
def test_noise_schedule_preserves_definite_profile(noise_seed,
                                                   noise_free):
    wrapped = device_noise_schedule(noise_seed, robust_specs(), NOISE)
    noisy = run_fleet(wrapped, jobs=2)
    assert noisy.ok
    for clean_o, noisy_o, spec in zip(noise_free.outcomes,
                                      noisy.outcomes, wrapped):
        injected = injected_cells(spec)
        assert injected, "schedule injected nothing; pick another seed"

        # (1) definite sets byte-identical to the noise-free run.
        clean_definite = clean_o.result.verdicts.definite()
        assert noisy_o.result.verdicts.definite() == clean_definite

        # (2) every injected cell is quarantined, none is trusted.
        quarantine = noisy_o.quarantine
        assert all(cell in quarantine for cell in injected)
        assert not injected & noisy_o.result.verdicts.detected()

        # (3) guardbanded DC-REF bins never under-refresh a truly
        # failing row.
        bins = guardbanded_bins(noisy_o.detected, quarantine,
                                1, N_BANKS, N_ROWS)
        truth = {(c, b, r)
                 for (c, b, r, _col) in clean_definite | injected}
        report = under_refresh_report(bins, truth)
        assert report.ok, (
            f"{spec.label()}: under-refreshed {report.under_refreshed}")


def test_mid_campaign_noise_strike(noise_free):
    """Noise arming mid-campaign (``active_after``) changes nothing:
    the later the strike, the less it can even be observed, and the
    definite profile stays byte-identical either way."""
    late = NoiseSpec(n_vrt_cells=3, vrt_fail_prob=1.0,
                     n_marginal_cells=3, marginal_fail_prob=0.8,
                     active_after=10)
    wrapped = device_noise_schedule(2, robust_specs(), late)
    noisy = run_fleet(wrapped, jobs=2)
    for clean_o, noisy_o in zip(noise_free.outcomes, noisy.outcomes):
        assert (noisy_o.result.verdicts.definite()
                == clean_o.result.verdicts.definite())
        # Anything the strike did surface is quarantined or voted
        # down - never a new definite cell.
        assert noisy_o.quarantine is not None


def test_noise_free_wrapper_is_identity(noise_free):
    """A schedule with an empty population spec is a no-op wrapper."""
    wrapped = device_noise_schedule(1, robust_specs(), NoiseSpec())
    fleet = run_fleet(wrapped, jobs=2)
    assert fleet.signatures() == noise_free.signatures()
