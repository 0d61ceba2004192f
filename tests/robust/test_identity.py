"""The rounds=1 legacy contract: byte-identical to single-pass output.

The robust layer must be invisible until asked for: ``rounds=1`` with
the noise populations disabled takes the exact legacy code path - same
RNG draw order, same detections, same checkpoint keys and outcome
signatures - so enabling the feature flag nowhere changes nothing.
"""

import numpy as np
import pytest

from repro import ParborConfig, run_parbor
from repro.dram import FaultSpec, vendor
from repro.dram.faults import NoiseSpec, RandomFaultModel
from repro.robust import RoundsPolicy
from repro.runtime import CampaignSpec
from repro.runtime.chaos import device_noise_schedule
from tests.oracle import fault_flips, injected_cells

TINY = dict(seed=5, n_rows=48)


def campaign(rounds):
    chip = vendor("A").make_chip(**TINY)
    return run_parbor(chip, ParborConfig(sample_size=400), seed=6,
                      rounds=rounds)


class TestPipelineIdentity:
    def test_rounds_one_matches_default(self):
        chip = vendor("A").make_chip(**TINY)
        legacy = run_parbor(chip, ParborConfig(sample_size=400), seed=6)
        explicit = campaign(rounds=1)
        assert explicit.detected == legacy.detected
        assert explicit.distances == legacy.distances
        assert explicit.total_tests == legacy.total_tests
        assert (explicit.recursion.tests_per_level
                == legacy.recursion.tests_per_level)
        assert explicit.stats.tests == legacy.stats.tests

    def test_legacy_policy_object_matches_default(self):
        legacy = campaign(rounds=1)
        policied = campaign(rounds=RoundsPolicy())
        assert policied.detected == legacy.detected
        assert policied.total_tests == legacy.total_tests

    def test_legacy_path_produces_no_verdicts(self):
        result = campaign(rounds=1)
        assert result.verdicts is None
        assert result.quarantine is None

    def test_robust_path_fills_verdicts(self):
        result = campaign(rounds=2)
        assert result.verdicts is not None
        assert result.quarantine is not None
        assert result.detected == result.verdicts.detected()


class TestSpecIdentity:
    def spec(self, **kwargs):
        return CampaignSpec(experiment="characterize", vendor="A",
                            build_seed=5, run_seed=6, n_rows=48,
                            sample_size=400, run_sweep=False, **kwargs)

    def test_checkpoint_key_unchanged_for_legacy_rounds(self):
        assert (self.spec().checkpoint_key()
                == self.spec(rounds=1).checkpoint_key())

    def test_checkpoint_key_diverges_for_robust_rounds(self):
        assert (self.spec(rounds=2).checkpoint_key()
                != self.spec(rounds=1).checkpoint_key())

    def test_legacy_outcome_signature_has_no_quarantine_part(self):
        outcome = self.spec().run()
        assert outcome.quarantine is None
        assert len(outcome.signature()) == 5

    def test_empty_noise_spec_is_byte_equivalent(self):
        base = self.spec()
        (noisy,) = device_noise_schedule(3, [base], NoiseSpec())
        assert noisy.checkpoint_key() == base.checkpoint_key()
        assert noisy.run().signature() == base.run().signature()
        assert injected_cells(noisy) == set()


class TestRngConsumption:
    """The divergence the identity test exposed (and its fix): a
    disabled noise population must consume zero RNG state per read."""

    def test_zero_rate_spec_draws_nothing(self):
        spec = FaultSpec(soft_error_rate=0.0)
        rng = np.random.default_rng(42)
        model = RandomFaultModel(spec, n_rows=16, row_bits=64, rng=rng)
        witness = np.random.default_rng(42)
        RandomFaultModel(spec, n_rows=16, row_bits=64, rng=witness)
        charge = np.ones((16, 64), dtype=np.uint8)
        for _ in range(5):
            rows, cols = fault_flips(model, charge)
            assert len(rows) == 0 and len(cols) == 0
        # The model's stream advanced exactly as far as the witness
        # that never evaluated a read: disabled populations are free.
        assert rng.random() == witness.random()

    def test_enabled_rate_still_draws(self):
        spec = FaultSpec(soft_error_rate=1e-9)
        rng = np.random.default_rng(42)
        model = RandomFaultModel(spec, n_rows=16, row_bits=64, rng=rng)
        witness = np.random.default_rng(42)
        RandomFaultModel(spec, n_rows=16, row_bits=64, rng=witness)
        fault_flips(model, np.ones((16, 64), dtype=np.uint8))
        assert rng.random() != witness.random()


class TestCliDefaults:
    def test_rounds_defaults_to_legacy(self):
        from repro.cli import build_parser

        for command in (["characterize"], ["compare"],
                        ["fleet", "--modules-per-vendor", "1"]):
            args = build_parser().parse_args(command)
            assert args.rounds == 1
            assert args.quarantine_out is None
