"""ECC lens: profile distortion and read-path overhead.

Runs the same seeded characterization campaign three ways - ECC off,
through the on-die SEC-DED lens (``ecc="lens"``), and with BEER-style
recovery (``ecc="recover"``) - then reports how much of the raw
failure profile the lens hides, confirms the recovered profile is
byte-identical to the ECC-off truth, and bounds the cost of the
decode stage: the lens campaign must stay under 1.5x the ECC-off
wall clock.  Timing is warm and paired: one untimed campaign first,
then :data:`REPEATS` repetitions that each run ECC-off, lens and
recover back to back, so slow spells of the host hit all three alike.
The gate is the median of the per-repetition lens/ECC-off ratios.
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

#: Timed repetitions; each runs every configuration once, in turn.
REPEATS = 21

CONFIGS = {
    "ECC off": lambda: CampaignSpec(**KW),
    "ECC lens": lambda: EccCampaignSpec(**KW, ecc="lens"),
    "ECC recover (incl. BEER)": lambda: EccCampaignSpec(**KW,
                                                        ecc="recover"),
}


def _timed():
    """Per configuration, the outcome of its last run and its wall
    clocks, the configurations interleaved within each repetition."""
    outcomes, times = {}, {name: [] for name in CONFIGS}
    for _ in range(REPEATS):
        for name, make_spec in CONFIGS.items():
            t0 = time.perf_counter()
            outcomes[name] = make_spec().run()
            times[name].append(time.perf_counter() - t0)
    return outcomes, times


def _spread(values, fmt):
    """``median [q1-q3]`` of a sample, each value through ``fmt``."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{fmt(q2)} [{fmt(q1)}-{fmt(q3)}]"


@pytest.mark.slow
def test_ecc_distortion(benchmark):
    # Warm-up: imports, caches and the allocator settle before any
    # configuration is timed, so ECC-off is not the cold run.
    benchmark.pedantic(lambda: CampaignSpec(**KW).run(), rounds=1,
                       iterations=1)
    outcomes, times = _timed()
    base, lens, rec = (outcomes[name] for name in CONFIGS)

    # Recovery is exact: every result-bearing signature field matches.
    assert rec.signature()[1:] == base.signature()[1:]
    dist = ecc_distortion(base, lens)
    assert dist.base_detected > 0
    assert dist.hidden_fraction > 0.5

    t_base = times["ECC off"]
    ratios = {name: [t / b for t, b in zip(ts, t_base)]
              for name, ts in times.items()}
    ratio_lens = statistics.median(ratios["ECC lens"])
    assert ratio_lens < MAX_OVERHEAD, (
        f"ECC lens overhead {ratio_lens:.2f}x exceeds {MAX_OVERHEAD}x")

    def seconds(t):
        return f"{t * 1e3:.1f} ms"

    def factor(r):
        return f"{r:.2f}x"

    timing = format_table(
        ["Configuration", "Wall clock, median [quartiles]",
         "vs ECC-off, per repetition"],
        [[name, _spread(times[name], seconds),
          "baseline" if name == "ECC off"
          else _spread(ratios[name], factor)] for name in CONFIGS])
    lens_ratios = ratios["ECC lens"]
    table = format_distortion(dist, base.spec.label(), lens.spec.label())
    report("ecc_distortion",
           table + "\n\nrecovered profile: byte-identical to ECC-off\n\n"
           + f"{REPEATS} warm repetitions, configurations interleaved\n"
           + timing + f"\n\nlens ratio range {min(lens_ratios):.2f}x-"
           f"{max(lens_ratios):.2f}x, gate: median < {MAX_OVERHEAD}x")
