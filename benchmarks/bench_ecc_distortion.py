"""ECC lens: profile distortion and read-path overhead.

Runs the same seeded characterization campaign three ways - ECC off,
through the on-die SEC-DED lens (``ecc="lens"``), and with BEER-style
recovery (``ecc="recover"``) - then reports how much of the raw
failure profile the lens hides, confirms the recovered profile is
byte-identical to the ECC-off truth, and bounds the cost of the
decode stage: the lens campaign must stay under 1.5x the ECC-off
wall clock.  Timing is warm: one untimed campaign first, then each
configuration's wall clock is the median of :data:`REPEATS` runs.
"""

import statistics
import time

import pytest

from repro.analysis import format_table
from repro.ecc import EccCampaignSpec, ecc_distortion, format_distortion
from repro.runtime import CampaignSpec

from ._report import report

KW = dict(experiment="characterize", vendor="A", build_seed=7,
          run_seed=2016, n_rows=96, sample_size=1000, run_sweep=True)

MAX_OVERHEAD = 1.5

#: Timed runs per configuration (the median is reported).
REPEATS = 5


def _timed(make_spec):
    """Outcome of the last run and median wall clock of REPEATS."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        outcome = make_spec().run()
        times.append(time.perf_counter() - t0)
    return outcome, statistics.median(times)


@pytest.mark.slow
def test_ecc_distortion(benchmark):
    # Warm-up: imports, caches and the allocator settle before any
    # configuration is timed, so ECC-off is not the cold run.
    benchmark.pedantic(lambda: CampaignSpec(**KW).run(), rounds=1,
                       iterations=1)
    base, t_base = _timed(lambda: CampaignSpec(**KW))
    lens, t_lens = _timed(lambda: EccCampaignSpec(**KW, ecc="lens"))
    rec, t_rec = _timed(lambda: EccCampaignSpec(**KW, ecc="recover"))

    # Recovery is exact: every result-bearing signature field matches.
    assert rec.signature()[1:] == base.signature()[1:]
    dist = ecc_distortion(base, lens)
    assert dist.base_detected > 0
    assert dist.hidden_fraction > 0.5

    ratio_lens = t_lens / t_base if t_base > 0 else 1.0
    ratio_rec = t_rec / t_base if t_base > 0 else 1.0
    assert ratio_lens < MAX_OVERHEAD, (
        f"ECC lens overhead {ratio_lens:.2f}x exceeds {MAX_OVERHEAD}x")

    timing = format_table(
        ["Configuration", f"Wall clock (median of {REPEATS}, warm)",
         "vs ECC-off"],
        [["ECC off", f"{t_base:.2f} s", "baseline"],
         ["ECC lens", f"{t_lens:.2f} s", f"{ratio_lens:.2f}x"],
         ["ECC recover (incl. BEER)", f"{t_rec:.2f} s",
          f"{ratio_rec:.2f}x"]])
    table = format_distortion(dist, base.spec.label(), lens.spec.label())
    report("ecc_distortion",
           table + "\n\nrecovered profile: byte-identical to ECC-off\n\n"
           + timing)
