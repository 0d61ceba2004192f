"""Determinism of the noise populations themselves.

The robust verdict layer is only as deterministic as the substrate it
re-runs: VRT transition sequences, marginal-cell flip streams, and the
injected device-noise model must all be pure functions of the seed
ladder - independent of scheduling, worker count, and call sites.
"""

import numpy as np
import pytest

from repro.dram import FaultSpec, RandomFaultModel
from repro.dram.faults import DeviceNoiseModel, NoiseSpec
from repro.runtime import CampaignSpec, chip_seed, run_fleet
from repro.runtime.chaos import device_noise_schedule

from tests import oracle


def fault_model(seed, **kwargs):
    spec = FaultSpec(soft_error_rate=0.0, **kwargs)
    return RandomFaultModel(spec, n_rows=32, row_bits=256,
                            rng=np.random.default_rng(seed))


def flip_stream(model, reads=20):
    charge = np.ones((32, 256), dtype=np.uint8)
    stream = []
    for _ in range(reads):
        rows, cols = oracle.fault_flips(model, charge)
        stream.append((tuple(rows.tolist()), tuple(cols.tolist())))
    return stream


class TestIntrinsicStreams:
    VRT = dict(n_vrt_cells=30, vrt_toggle_prob=0.3,
               vrt_leaky_start_fraction=0.5,
               vrt_marginal_threshold_range=(0.01, 0.05))
    MARGINAL = dict(n_marginal_cells=30, marginal_fail_prob=0.5,
                    vrt_marginal_threshold_range=(0.01, 0.05))

    def test_vrt_transition_sequence_reproducible(self):
        a = fault_model(11, **self.VRT)
        b = fault_model(11, **self.VRT)
        assert (a.vrt_row == b.vrt_row).all()
        assert (a.vrt_leaky == b.vrt_leaky).all()
        assert flip_stream(a) == flip_stream(b)
        # The telegraph process really transitions (not a static set).
        stream = flip_stream(fault_model(11, **self.VRT))
        assert len({frozenset(zip(r, c)) for r, c in stream}) > 1

    def test_marginal_flip_stream_reproducible(self):
        a = fault_model(12, **self.MARGINAL)
        b = fault_model(12, **self.MARGINAL)
        assert flip_stream(a) == flip_stream(b)

    def test_different_seed_different_stream(self):
        a = fault_model(11, **self.VRT)
        b = fault_model(13, **self.VRT)
        assert flip_stream(a) != flip_stream(b)


class TestDeviceNoiseModel:
    SPEC = NoiseSpec(n_vrt_cells=5, vrt_fail_prob=0.6,
                     n_marginal_cells=5, marginal_fail_prob=0.5,
                     soft_error_rate=1e-5)

    def model(self, seed=77):
        return DeviceNoiseModel(self.SPEC, n_rows=32, row_bits=256,
                                seed=seed)

    def noise_stream(self, model, reads=15):
        return [tuple(map(tuple, (r.tolist(), c.tolist())))
                for r, c in (model.flips() for _ in range(reads))]

    def test_positions_pure_function_of_seed(self):
        a, b = self.model(), self.model()
        assert all((x == y).all()
                   for x, y in zip(a.cells(), b.cells()))
        other = self.model(seed=78)
        assert not all((x == y).all()
                       for x, y in zip(a.cells(), other.cells()))

    def test_coin_stream_reproducible(self):
        assert (self.noise_stream(self.model())
                == self.noise_stream(self.model()))

    def test_reseed_replays_coins_without_moving_positions(self):
        model = self.model()
        first = self.noise_stream(model, reads=5)
        cells_before = model.cells()
        model.reseed_coins(77)
        # Positions never move; the coin stream restarts from the
        # reseeded generator, but the activation clock keeps counting.
        assert all((x == y).all()
                   for x, y in zip(cells_before, model.cells()))
        replay = self.noise_stream(model, reads=5)
        assert replay == first

    def test_activation_clock_gates_injection(self):
        spec = NoiseSpec(n_vrt_cells=5, vrt_fail_prob=1.0,
                         active_after=3)
        model = DeviceNoiseModel(spec, n_rows=32, row_bits=256, seed=9)
        sizes = [len(model.flips()[0]) for _ in range(6)]
        assert sizes[:3] == [0, 0, 0]
        assert all(n == 5 for n in sizes[3:])

    def test_empty_spec_injects_nothing(self):
        model = DeviceNoiseModel(NoiseSpec(), n_rows=32, row_bits=256,
                                 seed=9)
        assert self.noise_stream(model) == [((), ())] * 15


@pytest.mark.slow
class TestJobsIndependence:
    """jobs=1 == jobs=2, with the noise populations switched on."""

    def specs(self):
        return [
            CampaignSpec(experiment="characterize", vendor=v, index=1,
                         build_seed=chip_seed(31, v, 0, "build"),
                         run_seed=chip_seed(31, v, 0, "run"),
                         n_rows=32, sample_size=200, run_sweep=True,
                         rounds=2)
            for v in ("A", "B")
        ]

    def test_noisy_robust_fleet_jobs_independent(self):
        noise = NoiseSpec(n_vrt_cells=3, vrt_fail_prob=0.7,
                          n_marginal_cells=3, marginal_fail_prob=0.6)
        wrapped = device_noise_schedule(4, self.specs(), noise)
        serial = run_fleet(wrapped, jobs=1)
        parallel = run_fleet(device_noise_schedule(4, self.specs(),
                                                   noise), jobs=2)
        assert serial.signatures() == parallel.signatures()
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert a.quarantine.signature() == b.quarantine.signature()
