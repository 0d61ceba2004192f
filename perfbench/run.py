"""The repository benchmark: three closed-loop workloads, one command.

    python3 perfbench/run.py --workload characterize|ecc-recover|service
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from
``src/``.  With ``--trace 0`` the workload's ops run for ``--seconds``
with nothing wrapped, and the end-to-end metrics are reported.  With
``--trace 1`` the first half of the window runs untraced and the second
half with the span tracer of ``tracing.py`` installed, and the
per-layer metrics are reported.  Every op's output is checked; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``setup_s`` is the median of three set-ups - this process's and two
fresh ``--setup-only`` processes' - each timed from before the program
is imported to the end of the warm-up (and, for ``service``, daemon
start).

Every end-to-end time is in reference seconds: wall time scaled by the
host speed that ``hostspeed.py`` samples beside the ops.  The raw wall
figures go to standard error.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Any, Callable, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_ROOT = os.path.join(ROOT, ".perfbench_run")
SETUP_PROBES = 2

END_TO_END_UNITS = {
    "setup_s": "s", "targets_per_s": "1/s", "cpu_ms_per_target": "ms",
    "op_p50_ms": "ms", "chip_tests_per_s": "1/s", "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "dram.write_s": "s/target", "dram.rows_written": "count/target",
    "dram.ns_per_row_written": "ns", "dram.read_s": "s/target",
    "dram.rows_read": "count/target",
    "dram.retention_waits": "count/target", "dram.ns_per_row_read": "ns",
    "core.discovery_s": "s/target", "core.recursion_s": "s/target",
    "core.schedule_s": "s/target", "core.sweep_s": "s/target",
    "core.tests.discovery": "count/target",
    "core.tests.recursion": "count/target",
    "core.tests.sweep": "count/target", "core.detected_per_test": "ratio",
    "robust.sweep_s": "s/target",
    "robust.rounds_executed": "count/target",
    "robust.control_rounds": "count/target",
    "robust.quarantined": "count/target",
    "robust.rounds_per_schedule_round": "ratio",
    "ecc.infer_s": "s/target", "ecc.validate_s": "s/target",
    "ecc.transform_read_s": "s/target",
    "ecc.transform_read_calls": "count/target",
    "ecc.ambiguous_cells": "count/target", "fleet.run_s": "s",
    "fleet.target_busy_s": "s", "fleet.parallel_efficiency": "ratio",
    "fleet.outcome_kb": "KB", "fleet.attempts_per_target": "ratio",
    "checkpoint.record_ms": "ms", "service.queue_submit_ms": "ms",
    "service.protocol_ms": "ms", "service.queue_wait_ms": "ms",
    "service.shard_s": "s", "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio", "op_tail_ms": "ms", "op_tail_pct": "%",
    "ack_p50_ms": "ms", "ack_tail_ms": "ms", "op_fail_frac": "ratio",
    "host.kernel_ms": "ms",
}

#: Calibration samples taken right after a set-up.
SETUP_SAMPLES = 5


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=("characterize", "ecc-recover",
                                 "service"))
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit")
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int, env: Dict[str, str]) -> float:
    """Time one set-up in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(workload, untraced, traced, spans) -> Dict[str, float]:
    """Per-layer metrics from the traced phase's spans (see README)."""
    import workloads as wl
    from tracing import summarise

    s = summarise(spans)
    targets = max(s.calls.get("campaign", 0), 1)
    out: Dict[str, float] = {}

    def self_per_target(name: str) -> float:
        return s.self_s.get(name, 0.0) / targets

    def count_per_target(name: str, key: str) -> float:
        return s.count(name, key) / targets

    def ns_per_row(name: str) -> float:
        rows = s.count(name, "rows")
        return 1e9 * s.self_s.get(name, 0.0) / rows if rows else 0.0

    out["dram.write_s"] = self_per_target("dram.write")
    out["dram.rows_written"] = count_per_target("dram.write", "rows")
    out["dram.ns_per_row_written"] = ns_per_row("dram.write")
    out["dram.read_s"] = self_per_target("dram.read")
    out["dram.rows_read"] = count_per_target("dram.read", "rows")
    out["dram.retention_waits"] = count_per_target("campaign",
                                                   "retention_waits")
    out["dram.ns_per_row_read"] = ns_per_row("dram.read")
    for layer in ("discovery", "recursion", "schedule", "sweep"):
        out[f"core.{layer}_s"] = self_per_target(f"core.{layer}")
    out["core.tests.discovery"] = count_per_target("core.discovery",
                                                   "tests")
    out["core.tests.recursion"] = count_per_target("core.recursion",
                                                   "tests")
    out["core.tests.sweep"] = (count_per_target("core.sweep", "tests")
                               + count_per_target("robust.sweep", "tests"))
    total_tests = s.count("campaign", "total_tests")
    out["core.detected_per_test"] = (s.count("campaign", "detected")
                                     / total_tests if total_tests else 0.0)
    out["robust.sweep_s"] = self_per_target("robust.sweep")
    for key in ("rounds_executed", "control_rounds", "quarantined"):
        out[f"robust.{key}"] = count_per_target("robust.sweep", key)
    schedule_rounds = s.count("robust.sweep", "schedule_rounds")
    out["robust.rounds_per_schedule_round"] = (
        s.count("robust.sweep", "rounds_executed") / schedule_rounds
        if schedule_rounds else 0.0)
    out["ecc.infer_s"] = self_per_target("ecc.infer")
    out["ecc.validate_s"] = self_per_target("ecc.validate")
    out["ecc.transform_read_s"] = self_per_target("ecc.transform_read")
    out["ecc.transform_read_calls"] = (s.calls.get("ecc.transform_read", 0)
                                       / targets)
    out["ecc.ambiguous_cells"] = count_per_target("campaign",
                                                  "ecc_ambiguous")

    fleet_spans = [sp for sp in spans if sp[2] == "fleet.run"]
    calls = len(fleet_spans)
    run_s = sum(sp[4] - sp[3] for sp in fleet_spans)
    slot_s = sum((sp[4] - sp[3]) * sp[7]["jobs"] for sp in fleet_spans)
    busy_s = s.wall.get("campaign", 0.0) if calls else 0.0
    fleet_targets = s.count("fleet.run", "targets")
    out["fleet.run_s"] = run_s / calls if calls else 0.0
    out["fleet.target_busy_s"] = busy_s / calls if calls else 0.0
    out["fleet.parallel_efficiency"] = busy_s / slot_s if slot_s else 0.0
    out["fleet.outcome_kb"] = (s.count("fleet.run", "outcome_bytes")
                               / 1024 / calls if calls else 0.0)
    out["fleet.attempts_per_target"] = (s.count("fleet.run", "attempts")
                                        / fleet_targets
                                        if fleet_targets else 0.0)

    def mean_ms(name: str) -> float:
        n = s.calls.get(name, 0)
        return 1e3 * s.wall.get(name, 0.0) / n if n else 0.0

    out["checkpoint.record_ms"] = mean_ms("checkpoint.record")
    out["service.queue_submit_ms"] = mean_ms("service.queue_submit")
    submits = s.calls.get("service.queue_submit", 0)
    out["service.protocol_ms"] = (1e3 * s.self_s.get("service.protocol", 0.0)
                                  / submits if submits else 0.0)
    acked = {sp[7]["first_seed"]: sp[4] for sp in spans
             if sp[2] == "service.queue_submit"}
    started: Dict[int, float] = {}
    for sp in sorted(fleet_spans, key=lambda sp: sp[3]):
        started.setdefault(sp[7]["first_seed"], sp[3])
    waits = [started[k] - t for k, t in acked.items() if k in started]
    out["service.queue_wait_ms"] = (1e3 * statistics.median(waits)
                                    if waits else 0.0)
    out["service.shard_s"] = out["fleet.run_s"] if submits else 0.0

    untraced_tps = untraced.targets / untraced.ref_s
    traced_tps = traced.targets / traced.ref_s
    out["trace.overhead_frac"] = (untraced_tps / traced_tps - 1.0
                                  if traced_tps else 0.0)
    # Share of the traced window's op time (for ``service``, the
    # daemon's wall time) that the layers' self time accounts for.
    if workload.name == "service":
        capacity = traced.elapsed_s
    else:
        capacity = sum(op.latency_s for op in traced.ops)
    out["trace.coverage"] = (s.layer_self_s / capacity if capacity
                             else 0.0)

    ops = untraced.ops + traced.ops
    latency_tail = wl.tail([op.latency_s for op in ops])
    out["op_tail_ms"] = 1e3 * latency_tail[0] if latency_tail else 0.0
    out["op_tail_pct"] = latency_tail[1] if latency_tail else 0.0
    acks = [op.ack_s for op in ops if op.ack_s is not None]
    out["ack_p50_ms"] = 1e3 * statistics.median(acks) if acks else 0.0
    ack_tail = wl.tail(acks)
    out["ack_tail_ms"] = 1e3 * ack_tail[0] if ack_tail else 0.0
    out["op_fail_frac"] = sum(not op.ok for op in ops) / len(ops)
    out["host.kernel_ms"] = 1e3 * statistics.median(
        cost for _, cost in workload.speed.samples)
    return out


def run(args: argparse.Namespace, run_dir: str,
        prepare: Optional[Callable[[Any], None]] = None) -> Dict[str, Any]:
    """One benchmark run; ``prepare`` (self-test hook) may adjust the
    workload before it starts."""
    import workloads as wl
    from tracing import Tracer, load_spool

    workload = wl.WORKLOADS[args.workload](args.seed, run_dir)
    if prepare is not None:
        prepare(workload)
    try:
        workload.warm_up()
        ready = time.perf_counter()
        wall_s = ready - T0 - workload.speed.foreground_s
        workload.speed.sample(SETUP_SAMPLES)
        setup_s = wall_s * workload.speed.scale(T0, ready)
        if args.setup_only:
            return {"setup_s": setup_s, "wall_s": wall_s}
        if not args.trace:
            phase = workload.run_phase(args.seconds)
            workload.close()
            env = wl.child_env(run_dir)
            setups = [setup_s] + [setup_probe(args.workload, args.seed, env)
                                  for _ in range(SETUP_PROBES)]
            metrics = wl.end_to_end(phase, statistics.median(setups))
            units = END_TO_END_UNITS
            ops = phase.ops
            p50_s = statistics.median(op.latency_s for op in ops)
            print(f"wall: {phase.targets / phase.elapsed_s:.4f} targets/s,"
                  f" op p50 {1e3 * p50_s:.1f} ms; reference s per wall s"
                  f" {phase.ref_s / phase.active_s:.4f}", file=sys.stderr)
        else:
            untraced = workload.run_phase(args.seconds / 2)
            spool = os.path.join(run_dir, "spool")
            os.makedirs(spool)
            tracer = Tracer(spool)
            if args.workload == "service":
                workload.start(spool_dir=spool)
            else:
                tracer.install()
            try:
                traced = workload.run_phase(args.seconds / 2)
            finally:
                tracer.uninstall()
            workload.close()
            spans = [sp for sp in tracer.spans + load_spool(spool)
                     if traced.start <= sp[3] <= traced.end]
            metrics = layer_metrics(workload, untraced, traced, spans)
            units = PER_LAYER_UNITS
            ops = untraced.ops + traced.ops
    finally:
        workload.close()
    for op in ops:
        for problem in op.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
    failed = sum(not op.ok for op in ops)
    if workload.pins.digests:
        print(f"{workload.pins.checked} op digests checked against "
              f"pins", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.4f} {units[name]}")
    return {"correct": failed == 0, "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run_in_scratch(args: argparse.Namespace,
                   prepare: Optional[Callable[[Any], None]] = None
                   ) -> Dict[str, Any]:
    """:func:`run` inside a fresh run directory that is removed after."""
    run_dir = os.path.join(RUN_ROOT, f"{os.getpid()}-{time.time_ns()}")
    os.makedirs(os.path.join(run_dir, "tmp"))
    tempfile.tempdir = os.path.join(run_dir, "tmp")
    try:
        return run(args, run_dir, prepare)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    print(json.dumps(run_in_scratch(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
