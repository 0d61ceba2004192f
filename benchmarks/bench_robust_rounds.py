"""Repeat-and-vote cost/benefit: rounds=1/2/4 vs false positives.

The robust layer's overhead contract (docs/ROBUSTNESS.md): thanks to
the adaptive early exit - re-testing stops for every cell whose
verdict is already decided (definite sweeps, control failures,
vote-bounded cells) and region re-votes are sequential best-of-three -
a ``rounds=4`` campaign must stay under 2x the single-pass test time,
while shrinking the noise contamination of the trusted profile and
quarantining the injected populations.

False positives are measured against the noise-free run at the same
rounds setting: any cell the noisy campaign *trusts* (its ``detected``
set) that the clean campaign does not is injected-noise contamination.
Timings are best-of-``ROUNDS`` interleaved, the standard robust
estimator under external load.  The results file also reports each
repetition's rounds=4 / single-pass ratio, and the rounds=4 per-layer
split - the robust sweep, the recursion's re-votes and the reseeding
(inside both) - timed by wall-clock wrappers in a separate pass of
``SPLIT_CAMPAIGNS`` campaigns, so the gated timings run unwrapped.
"""

import statistics
import time

import pytest

from repro import ParborConfig, run_parbor
from repro.analysis import format_table
from repro.core import recursion
from repro.dram import vendor
from repro.dram.faults import DeviceNoiseModel, NoiseSpec
from repro.robust import vote
from repro.runtime.seeds import ladder_seed

from ._report import report

BUILD_SEED = 5
RUN_SEED = 6
N_ROWS = 96
SAMPLE = 1000
ROUNDS = 3  # timing repetitions (best-of)
OVERHEAD_BUDGET = 2.0  # rounds=4 must stay under 2x single-pass
SPLIT_CAMPAIGNS = 5  # wrapped rounds=4 campaigns (medians reported)

NOISE = NoiseSpec(n_vrt_cells=4, vrt_fail_prob=1.0,
                  n_marginal_cells=4, marginal_fail_prob=0.8,
                  soft_error_rate=1e-6)


def campaign(rounds, noisy):
    chip = vendor("A").make_chip(seed=BUILD_SEED, n_rows=N_ROWS)
    if noisy:
        for bank_idx, bank in enumerate(chip.banks):
            bank.noise = DeviceNoiseModel(
                NOISE, n_rows=bank.n_rows, row_bits=bank.row_bits,
                seed=ladder_seed(17, "device-noise", 0, bank_idx))
    return run_parbor(chip, ParborConfig(sample_size=SAMPLE),
                      seed=RUN_SEED, rounds=rounds)


def timed(rounds):
    t0 = time.perf_counter()
    result = campaign(rounds, noisy=True)
    return time.perf_counter() - t0, result


def layer_split(monkeypatch):
    """Median ms per rounds=4 campaign: total, then per robust layer."""
    spent = {}

    def timer(name, fn):
        def timed_fn(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] = (spent.get(name, 0.0)
                               + time.perf_counter() - t0)
        return timed_fn

    batched = vote.bank_reseeds
    monkeypatch.setattr(vote, "robust_sweep",
                        timer("robust sweep", vote.robust_sweep))
    monkeypatch.setattr(recursion, "_revote_uncorroborated",
                        timer("re-votes", recursion._revote_uncorroborated))
    monkeypatch.setattr(vote, "bank_reseeds", timer(
        "reseeding", lambda *a: timer("reseeding", batched(*a))))
    runs = []
    for _ in range(SPLIT_CAMPAIGNS):
        spent.clear()
        timed_fn = timer("campaign", campaign)
        timed_fn(4, noisy=True)
        runs.append(dict(spent))
    monkeypatch.undo()
    return {name: statistics.median(run.get(name, 0.0) for run in runs)
            * 1e3 for name in ("campaign", "robust sweep", "re-votes",
                               "reseeding")}


@pytest.mark.slow
def test_robust_rounds_overhead_and_false_positives(benchmark,
                                                     monkeypatch):
    clean = {r: campaign(r, noisy=False) for r in (1, 2, 4)}

    def first_pass():
        return timed(1)

    times = {}
    noisy = {}
    t, noisy[1] = benchmark.pedantic(first_pass, rounds=1,
                                     iterations=1)
    times[1] = t
    per_rep = []
    for _ in range(ROUNDS):
        rep = {}
        for r in (1, 2, 4):
            t, result = timed(r)
            noisy[r] = result
            times[r] = min(times.get(r, t), t)
            rep[r] = t
        per_rep.append(rep)
    split = layer_split(monkeypatch)

    rows = []
    false_positives = {}
    for r in (1, 2, 4):
        fp = noisy[r].detected - clean[r].detected
        false_positives[r] = len(fp)
        quarantined = (len(noisy[r].quarantine)
                       if noisy[r].quarantine is not None else 0)
        rows.append([
            r, f"{times[r]:.2f} s",
            f"{times[r] / times[1]:.2f}x",
            len(fp), quarantined,
        ])
    reps = [[i, f"{rep[1] * 1e3:.1f} ms", f"{rep[4] * 1e3:.1f} ms",
             f"{rep[4] / rep[1]:.2f}x"] for i, rep in enumerate(per_rep)]
    layers = [[name, f"{ms:.1f} ms"] for name, ms in split.items()]
    report("robust_rounds", "\n\n".join([
        format_table(["Rounds", "Wall clock", "vs single-pass",
                      "False positives", "Quarantined"], rows),
        format_table(["Repetition", "rounds=1", "rounds=4", "Ratio"],
                     reps),
        format_table(["rounds=4 layer (median per campaign)",
                      "Wall clock"], layers),
        "Reseeding runs inside the robust sweep and the re-votes."]))

    # Single-pass trusts every injected observation; voting
    # quarantines the injected populations instead and shrinks the
    # contamination of the trusted profile.
    assert false_positives[1] > 0, "noise never contaminated rounds=1"
    assert false_positives[4] < false_positives[1]
    quarantined = {r: len(noisy[r].quarantine)
                   if noisy[r].quarantine is not None else 0
                   for r in (1, 2, 4)}
    assert quarantined[1] == 0 and quarantined[4] > quarantined[1]
    # The definite core is noise-immune at every voting depth.
    for r in (2, 4):
        assert (noisy[r].verdicts.definite()
                == clean[r].verdicts.definite())
    # Adaptive early exit keeps the 4x policy under 2x wall clock.
    overhead = times[4] / times[1]
    assert overhead < OVERHEAD_BUDGET, (
        f"rounds=4 cost {overhead:.2f}x single-pass "
        f"(budget {OVERHEAD_BUDGET:.1f}x)")
