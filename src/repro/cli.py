"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the evaluation drivers:

* ``characterize`` - run PARBOR's neighbour search on one vendor's
  chip (Table 1 / Figure 11).
* ``compare`` - PARBOR vs. the equal-budget random test on one module
  (Figure 12/13).
* ``dcref`` - the refresh-policy comparison (Figure 16).
* ``appendix`` - the test-time arithmetic.
* ``report`` - render a ``--trace`` JSONL capture (and/or a
  checkpoint journal via ``--journal``) as breakdown tables
  (see ``docs/OBSERVABILITY.md``).
* ``serve`` / ``submit`` / ``status`` - the campaign service: a
  crash-safe daemon executing sharded submissions over a unix socket
  (see ``docs/SERVICE.md``).

Every command prints a human table and optionally dumps machine-
readable JSON with ``--json FILE``.  ``characterize``, ``compare``,
and ``fleet`` share one set of campaign options (``--jobs``, the
``--trace``/``--metrics`` observability capture of :mod:`repro.obs`,
the resilience options of :func:`repro.runtime.run_fleet` and the
robust ``--rounds``) and run through one fleet path.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from typing import Any, Dict, List, Optional

from . import obs
from .analysis import (campaign_to_json, comparisons_to_csv,
                       comparisons_to_json, format_distance_set,
                       format_table)
from .core import (MARCH_B, MARCH_C_MINUS, MATS_PLUS, ParborConfig,
                   checkerboard, controllers_for, exhaustive_cost_table,
                   module_test_time_s, plan_campaign, reduction_factor,
                   run_march)
from .dcref import run_fig16
from .sim import DEFAULT_CONFIG_16G, DEFAULT_CONFIG_32G

__all__ = ["main", "build_parser"]


def _int_arg(low: int):
    """An argparse ``type``: an integer of at least ``low``."""
    def integer(value: str) -> int:
        number = int(value)
        if number < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {number}")
        return number
    return integer


def _positive_float(value: str) -> float:
    """An argparse ``type``: a number greater than zero."""
    number = float(value)
    if not number > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return number


def _dump_json(path: Optional[str], payload: Dict[str, Any]) -> None:
    if not path:
        return
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _fleet_trace_id(specs) -> str:
    """Deterministic session ID for a CLI-observed fleet run."""
    from .runtime.seeds import ladder_seed
    first = specs[0]
    digest = ladder_seed(first.build_seed, "trace", "fleet", len(specs),
                         first.run_seed)
    return f"fleet:{len(specs)}#{digest:016x}"


def _run_campaign(args: argparse.Namespace, specs, render) -> int:
    """Run a campaign command's specs as one fleet and render it.

    The one path of ``characterize``, ``compare`` and ``fleet``:
    refuse inconsistent campaign options before any campaign runs, add
    the ``--ecc``/``--ecc-recover`` twin of the first spec (refused the
    same way when its spec is impossible), and run the
    fleet with the resilience options.  Under ``--trace``/``--metrics``
    every spec is marked ``trace=True`` and the run happens inside a
    parent observability session: in-process targets record into it
    directly, worker-process targets ship their records back on the
    outcome, and the two streams are merged before writing.  The
    campaign outcomes are identical either way.

    A degraded fleet's status table goes to stderr, ``--quarantine-out``
    gets the completed targets' quarantine sets, and
    ``render(args, outcomes)`` prints the command's table and returns
    its ``--json`` payload.  ``fleet`` renders the targets that
    completed; a single-target command renders only a complete fleet.
    The exit status is 1 whenever a target failed.
    """
    from . import runtime
    if args.quarantine_out and args.rounds <= 1:
        raise SystemExit("error: --quarantine-out requires --rounds > 1")
    if args.resume and not args.checkpoint:
        raise SystemExit("error: --resume requires --checkpoint FILE")
    if getattr(args, "ecc", False) or getattr(args, "ecc_recover", False):
        from .ecc import EccCampaignSpec
        mode = "recover" if args.ecc_recover else "lens"
        try:
            twin = EccCampaignSpec(
                ecc=mode, **{f.name: getattr(specs[0], f.name)
                             for f in dataclasses.fields(specs[0])})
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        specs = specs + [twin]
    observed = args.trace or args.metrics
    if observed:
        specs = [dataclasses.replace(s, trace=True) for s in specs]
    with (obs.session(_fleet_trace_id(specs), label="fleet") if observed
          else contextlib.nullcontext()) as sess:
        fleet = runtime.run_fleet(
            specs, jobs=args.jobs, checkpoint=args.checkpoint,
            resume=args.resume, timeout_s=args.timeout,
            strict=args.max_failures is None,
            max_failures=args.max_failures)
    if not fleet.ok:
        print(runtime.render_degraded(fleet), file=sys.stderr)
    if observed:
        _write_observations(args, sess, fleet)
    if args.quarantine_out:
        payload = {o.spec.label(): o.quarantine.to_json()
                   for o in fleet.outcomes if o.quarantine is not None}
        with open(args.quarantine_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote quarantine sets to {args.quarantine_out}")
    if fleet.ok or args.command == "fleet":
        _dump_json(args.json, render(args, fleet.outcomes))
    return 0 if fleet.ok else 1


def _write_observations(args, sess, fleet) -> None:
    """Honour ``--trace`` / ``--metrics`` for an observed fleet."""
    if args.trace:
        records = sess.export_records() + fleet.trace_records()
        n = obs.write_jsonl(args.trace, records)
        print(f"wrote {n} trace records to {args.trace}")
    if args.metrics:
        from .analysis import metrics_to_json
        merged = obs.MetricsRegistry.merge([sess.metrics, fleet.metrics])
        with open(args.metrics, "w") as fh:
            metrics_to_json(merged, fh)
        print(f"wrote metrics to {args.metrics}")


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .runtime import CampaignSpec
    spec = CampaignSpec(experiment="characterize", vendor=args.vendor,
                        build_seed=args.seed, run_seed=args.seed + 1,
                        n_rows=args.rows, sample_size=args.sample,
                        run_sweep=args.rounds > 1, rounds=args.rounds)
    return _run_campaign(args, [spec], _render_characterize)


def _render_characterize(args, outcomes) -> Dict[str, Any]:
    result = outcomes[0].result
    rows = [[f"L{lv.level}", lv.region_size, lv.tests,
             format_distance_set(lv.kept_distances)]
            for lv in result.recursion.levels]
    print(f"Vendor {args.vendor}: distances "
          f"{format_distance_set(result.distances)} in "
          f"{result.recursion.total_tests} tests")
    print(format_table(["Level", "Region size", "Tests", "Distances"],
                       rows))
    payload = {
        "vendor": args.vendor,
        "distances": result.distances,
        "tests_per_level": result.recursion.tests_per_level,
        "total_tests": result.recursion.total_tests,
    }
    if args.rounds > 1 and result.verdicts is not None:
        counts = result.verdicts.counts()
        print(f"verdicts ({args.rounds} rounds): "
              + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        payload["verdicts"] = counts
        payload["quarantined"] = len(result.quarantine)
    if len(outcomes) > 1:
        _report_ecc(*outcomes, payload)
    return payload


def _cmd_compare(args: argparse.Namespace) -> int:
    from .runtime import CampaignSpec
    spec = CampaignSpec(experiment="compare", vendor=args.vendor, index=1,
                        build_seed=args.seed, run_seed=args.seed + 1,
                        n_rows=args.rows, rounds=args.rounds)
    return _run_campaign(args, [spec], _render_compare)


def _render_compare(args, outcomes) -> Dict[str, Any]:
    comparison = outcomes[0].comparison
    result = outcomes[0].result
    rows = [
        ["budget (whole-module tests)", comparison.budget],
        ["PARBOR failures", comparison.parbor_failures],
        ["random-test failures", comparison.random_failures],
        ["extra failures", comparison.extra_failures],
        ["increase", f"{comparison.extra_percent:+.1f}%"],
        ["only PARBOR / only random / both",
         f"{comparison.parbor_only} / {comparison.random_only} / "
         f"{comparison.both}"],
        ["distances", format_distance_set(result.distances)],
    ]
    if args.rounds > 1 and result.quarantine is not None:
        rows.append(["quarantined (unstable)", len(result.quarantine)])
    print(format_table(["Quantity", "Value"], rows))
    payload = {
        "module": comparison.module_id,
        "budget": comparison.budget,
        "parbor_failures": comparison.parbor_failures,
        "random_failures": comparison.random_failures,
        "extra_percent": comparison.extra_percent,
        "distances": result.distances,
    }
    if len(outcomes) > 1:
        _report_ecc(*outcomes, payload)
    return payload


def _cmd_dcref(args: argparse.Namespace) -> int:
    config = (DEFAULT_CONFIG_32G if args.density == 32
              else DEFAULT_CONFIG_16G)
    summary = run_fig16(n_workloads=args.workloads, config=config,
                        seed=args.seed,
                        n_instructions=args.instructions)
    rows = [
        ["RAIDR speedup", f"{summary.mean_improvement('raidr'):+.1f}%"],
        ["DC-REF speedup", f"{summary.mean_improvement('dcref'):+.1f}%"],
        ["DC-REF vs RAIDR",
         f"{summary.mean_improvement('dcref', 'raidr'):+.1f}%"],
        ["refresh cut vs baseline",
         f"{summary.mean_refresh_reduction('dcref'):.1f}%"],
        ["refresh cut vs RAIDR",
         f"{summary.mean_refresh_reduction('dcref', 'raidr'):.1f}%"],
        ["fast-rate rows (DC-REF)",
         f"{100 * summary.mean_high_rate_fraction('dcref'):.1f}%"],
    ]
    print(f"{args.workloads} workloads at {args.density} Gbit:")
    print(format_table(["Quantity", "Value"], rows))
    _dump_json(args.json, {
        "density_gbit": args.density,
        "workloads": args.workloads,
        "dcref_speedup_pct": summary.mean_improvement("dcref"),
        "raidr_speedup_pct": summary.mean_improvement("raidr"),
        "refresh_cut_pct": summary.mean_refresh_reduction("dcref"),
    })
    return 0


def _cmd_march(args: argparse.Namespace) -> int:
    from .dram import vendor
    tests = {"mats+": MATS_PLUS, "march-c-": MARCH_C_MINUS,
             "march-b": MARCH_B}
    test = tests[args.test]
    chip = vendor(args.vendor).make_chip(seed=args.seed, n_rows=args.rows)
    ctrls = controllers_for(chip)
    background = (checkerboard(chip.row_bits) if args.background ==
                  "checker" else None)
    outcome = run_march(ctrls, test, background=background)
    truth = chip.coupled_cell_count()
    rows = [
        ["test", str(test)],
        ["background", args.background],
        ["row operations", outcome.row_operations],
        ["retention waits", outcome.retention_waits],
        ["cells detected", len(outcome.detected)],
        ["coupled cells on chip", truth],
    ]
    print(format_table(["Quantity", "Value"], rows))
    _dump_json(args.json, {
        "test": test.name, "background": args.background,
        "detected": len(outcome.detected), "coupled_cells": truth,
    })
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .analysis import fleet_specs
    specs = fleet_specs(args.modules_per_vendor, seed=args.seed,
                        n_rows=args.rows, rounds=args.rounds)
    return _run_campaign(args, specs, _render_fleet)


def _render_fleet(args, outcomes) -> Dict[str, Any]:
    comparisons = [o.comparison for o in outcomes]
    rows = [[c.module_id, c.budget, c.parbor_failures,
             c.random_failures, f"{c.extra_percent:+.1f}%"]
            for c in comparisons]
    print(format_table(["Module", "Budget", "PARBOR", "Random",
                        "Increase"], rows))
    if args.csv:
        with open(args.csv, "w") as fh:
            comparisons_to_csv(comparisons, fh)
        print(f"wrote {args.csv}")
    return {"modules": [{"module": c.module_id,
                         "extra_percent": c.extra_percent}
                        for c in comparisons]}


def _cmd_dataset(args: argparse.Namespace) -> int:
    """Generate the release dataset: per-module campaign records.

    The paper promised releasing "the source code of PARBOR and data
    for all DRAM chips we tested"; this is the simulated-fleet
    equivalent: one campaign JSON per module plus a fleet-level CSV
    and JSON of the Figure 12 comparison.
    """
    import os

    from . import runtime
    from .analysis import fleet_specs

    os.makedirs(args.out, exist_ok=True)
    fleet = runtime.run_fleet(fleet_specs(args.modules_per_vendor,
                                          seed=args.seed, n_rows=args.rows))
    comparisons = [o.comparison for o in fleet.outcomes]
    for c, outcome in zip(comparisons, fleet.outcomes):
        path = os.path.join(args.out, f"campaign_{c.module_id}.json")
        with open(path, "w") as fh:
            campaign_to_json(outcome.result, fh)
        print(f"{c.module_id}: budget={c.budget} "
              f"extra={c.extra_percent:+.1f}% -> {path}")
    with open(os.path.join(args.out, "fleet.csv"), "w") as fh:
        comparisons_to_csv(comparisons, fh)
    with open(os.path.join(args.out, "fleet.json"), "w") as fh:
        comparisons_to_json(comparisons, fh)
    print(f"wrote {args.out}/fleet.csv and fleet.json")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    distances = sorted({d for m in args.distances for d in (m, -m)})
    config = ParborConfig(ranking_threshold=args.threshold)
    try:
        plan = plan_campaign(distances, config=config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [[f"L{i + 1}", tests,
             format_distance_set(kept)]
            for i, (tests, kept) in enumerate(plan.levels)]
    rows.append(["discovery", plan.discovery_tests, ""])
    rows.append(["sweep", plan.sweep_rounds, ""])
    rows.append(["total", plan.total_tests,
                 f"~{plan.wall_clock_s():.0f} s per 2 GB module"])
    print(format_table(["Stage", "Tests", "Kept distances"], rows))
    _dump_json(args.json, {
        "distances": distances,
        "tests_per_level": [t for t, _ in plan.levels],
        "total_tests": plan.total_tests,
        "wall_clock_s": plan.wall_clock_s(),
    })
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a ``--trace`` capture and/or a checkpoint journal."""
    # Imported lazily: obs.report pulls in repro.analysis, which the
    # always-imported repro.obs package deliberately does not.
    from .obs.report import render_journal, render_report, summarise
    from .obs.trace import read_jsonl
    if not args.trace_file and not args.journal:
        print("error: nothing to render - give a TRACE file and/or "
              "--journal FILE", file=sys.stderr)
        return 2
    if args.journal:
        try:
            print(render_journal(args.journal))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.trace_file:
            print()
    if not args.trace_file:
        return 0
    try:
        records = read_jsonl(args.trace_file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"error: {args.trace_file} holds no trace records",
              file=sys.stderr)
        return 2
    print(render_report(records, include_timing=not args.no_timing))
    _dump_json(args.json, summarise(records))
    return 0


def _build_submit_specs(args: argparse.Namespace):
    """Specs for ``repro submit``: a file of wire-form objects, or
    one spec per ``--vendors`` entry derived from the seed ladder."""
    from .runtime import CampaignSpec, chip_seed
    if args.spec_json:
        from .service import spec_from_json
        with open(args.spec_json) as fh:
            payload = json.load(fh)
        if not isinstance(payload, list) or not payload:
            raise SystemExit(f"error: {args.spec_json} must hold a "
                             f"non-empty JSON list of specs")
        return [spec_from_json(item) for item in payload]
    return [CampaignSpec(experiment=args.experiment, vendor=v, index=1,
                         build_seed=chip_seed(args.seed, v, 0, "build"),
                         run_seed=chip_seed(args.seed, v, 0, "run"),
                         n_rows=args.rows, sample_size=args.sample,
                         run_sweep=args.sweep)
            for v in args.vendors]


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceConfig, serve
    try:
        config = ServiceConfig(
            socket_path=args.socket, state_dir=args.state_dir,
            jobs=args.jobs, shard_size=args.shard_size,
            max_queued_targets=args.max_queued_targets,
            retries=args.retries, shard_retries=args.shard_retries,
            timeout_s=args.timeout,
            max_tenant_failures=args.max_tenant_failures,
            fsync=not args.no_fsync,
            resume_mode=(True if args.resume == "skip" else "verify"))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"serving campaigns on {args.socket} "
          f"(state in {args.state_dir})", flush=True)
    return serve(config)


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceRejected, client, spec_to_json
    try:
        specs = _build_submit_specs(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        response = client.submit(args.socket, specs,
                                 tenant=args.tenant,
                                 priority=args.priority)
    except ServiceRejected as exc:
        print(f"rejected: {exc} (retry after "
              f"{exc.retry_after:g} s)", file=sys.stderr)
        return 75  # EX_TEMPFAIL: back off and resubmit
    except (OSError, client.ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    campaign = response["campaign"]
    attached = " (attached to existing campaign)" \
        if response.get("attached") else ""
    print(f"campaign {campaign}: {response['targets']} target(s) in "
          f"{response['shards']} shard(s){attached}")
    _dump_json(args.json, {"campaign": campaign,
                           "specs": [spec_to_json(s) for s in specs],
                           **{k: response[k] for k in
                              ("targets", "shards", "done")}})
    if not args.wait:
        return 0
    results = client.wait_results(args.socket, campaign)
    out = open(args.results, "w") if args.results else sys.stdout
    try:
        for record in results["results"]:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
            print(f"wrote {len(results['results'])} result records "
                  f"to {args.results}")
    end = results["end"]
    if not end["ok"]:
        print(f"campaign {campaign} finished degraded: shards "
              f"{end['failed_shards']} failed", file=sys.stderr)
        return 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .service import client
    try:
        status = client.status(args.socket, campaign=args.campaign)
    except (OSError, client.ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"service {status['state']}, "
          f"{status['pending_targets']}/{status['max_queued_targets']}"
          f" targets queued, "
          f"{status['corrupt_records']} corrupt queue record(s)")
    if status["campaigns"]:
        rows = [[c["id"], c["tenant"], c["priority"], c["targets"],
                 f"{c['shards_done']}/{c['shards']}",
                 c["shards_failed"], "yes" if c["done"] else ""]
                for c in status["campaigns"]]
        print(format_table(["Campaign", "Tenant", "Prio", "Targets",
                            "Shards", "Failed", "Done"], rows))
    if status["tenants"]:
        rows = [[name, t["served"], t["failures"],
                 "degraded" if t["degraded"] else "ok"]
                for name, t in status["tenants"].items()]
        print(format_table(["Tenant", "Served", "Failures", "State"],
                           rows))
    _dump_json(args.json, status)
    return 0


def _cmd_appendix(args: argparse.Namespace) -> int:
    rows = [[f"O(n^{r.k_neighbours})", f"{r.tests:.3g}", r.human]
            for r in exhaustive_cost_table()]
    rows.append(["one module test", "",
                 f"{module_test_time_s(1) * 1000:.2f} ms"])
    rows.append(["PARBOR (92 tests)", "",
                 f"{module_test_time_s(92):.1f} s"])
    rows.append(["reduction vs O(n^2)", "",
                 f"{reduction_factor(8192, 2, 90):,.0f}x"])
    print(format_table(["Test", "Bit tests", "Wall clock"], rows))
    _dump_json(args.json, {
        "module_test_s": module_test_time_s(1),
        "campaign_92_s": module_test_time_s(92),
        "reduction_n2": reduction_factor(8192, 2, 90),
    })
    return 0


def _add_campaign_flags(p: argparse.ArgumentParser) -> None:
    """The campaign options of ``characterize``, ``compare`` and
    ``fleet``: fan-out, observability, resilience and robustness."""
    p.add_argument("--jobs", type=_int_arg(0), default=1,
                   help="worker processes (results are identical "
                        "for any value)")
    p.add_argument("--trace", metavar="FILE",
                   help="capture an observability trace as JSON Lines "
                        "(render it with `repro report FILE`)")
    p.add_argument("--metrics", metavar="FILE",
                   help="write the run's merged metrics registry as "
                        "JSON")
    p.add_argument("--checkpoint", metavar="FILE",
                   help="journal every completed target to FILE "
                        "(JSON Lines) as soon as it finishes")
    p.add_argument("--resume", action="store_true",
                   help="load targets already completed in "
                        "--checkpoint FILE instead of re-running them")
    p.add_argument("--timeout", type=_positive_float, default=None,
                   metavar="S",
                   help="per-target deadline in seconds; a hung "
                        "worker is killed and the target retried")
    p.add_argument("--max-failures", type=_int_arg(0), default=None,
                   metavar="N",
                   help="degrade gracefully: tolerate up to N failed "
                        "targets (reported in a status table) instead "
                        "of aborting on the first one")
    p.add_argument("--rounds", type=_int_arg(1), default=1, metavar="N",
                   help="repeat-and-vote repetitions per test round; "
                        "1 (default) is the legacy single-pass path, "
                        "N>1 classifies failures definite / "
                        "probabilistic / unstable and quarantines "
                        "the unstable ones")
    p.add_argument("--quarantine-out", metavar="FILE",
                   help="write the quarantined (unstable) cells as "
                        "JSON, keyed by campaign label (requires "
                        "--rounds > 1)")


def _add_ecc_flags(p: argparse.ArgumentParser) -> None:
    """``--ecc`` / ``--ecc-recover`` for the single-target commands."""
    p.add_argument("--ecc", action="store_true",
                   help="also run the campaign through a vendor-true "
                        "on-die SEC-DED lens and report how the "
                        "post-correction view distorts the profile")
    p.add_argument("--ecc-recover", action="store_true",
                   help="like --ecc, but BEER-infer the code on a "
                        "probe device first and un-distort every "
                        "read; a failed inference degrades the "
                        "campaign fail-closed (implies --ecc)")


def _report_ecc(base_outcome, ecc_outcome, payload) -> None:
    """Print the ECC distortion table and extend the JSON payload."""
    from .ecc import ecc_distortion, format_distortion
    dist = ecc_distortion(base_outcome, ecc_outcome)
    print(format_distortion(dist, base_outcome.spec.label(),
                            ecc_outcome.spec.label()))
    degraded = getattr(getattr(ecc_outcome.result, "verdicts", None),
                       "degraded", False)
    if degraded:
        print("ECC inference failed validation: campaign degraded "
              "fail-closed (all detections quarantined, verdicts "
              "capped at probabilistic)")
    payload["ecc"] = {
        "mode": ecc_outcome.spec.ecc,
        "base_detected": dist.base_detected,
        "observed_detected": dist.observed_detected,
        "hidden": dist.hidden,
        "hidden_fraction": dist.hidden_fraction,
        "spurious": dist.spurious,
        "base_distances": dist.base_distances,
        "observed_distances": dist.observed_distances,
        "degraded": bool(degraded),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PARBOR (DSN 2016) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize",
                       help="locate a vendor's neighbour distances")
    p.add_argument("--vendor", choices=["A", "B", "C"], default="A")
    p.add_argument("--rows", type=_int_arg(1), default=128)
    p.add_argument("--sample", type=_int_arg(0), default=2000)
    p.add_argument("--seed", type=int, default=2016)
    _add_campaign_flags(p)
    _add_ecc_flags(p)
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("compare",
                       help="PARBOR vs equal-budget random test")
    p.add_argument("--vendor", choices=["A", "B", "C"], default="A")
    p.add_argument("--rows", type=_int_arg(1), default=96)
    p.add_argument("--seed", type=int, default=2016)
    _add_campaign_flags(p)
    _add_ecc_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("dcref", help="refresh-policy comparison")
    p.add_argument("--workloads", type=int, default=8)
    p.add_argument("--density", type=int, choices=[16, 32], default=32)
    p.add_argument("--instructions", type=int, default=80_000)
    p.add_argument("--seed", type=int, default=2016)
    p.set_defaults(func=_cmd_dcref)

    p = sub.add_parser("march", help="run a classic March test")
    p.add_argument("--test", choices=["mats+", "march-c-", "march-b"],
                   default="march-c-")
    p.add_argument("--vendor", choices=["A", "B", "C"], default="A")
    p.add_argument("--background", choices=["solid", "checker"],
                   default="solid")
    p.add_argument("--rows", type=_int_arg(1), default=64)
    p.add_argument("--seed", type=int, default=2016)
    p.set_defaults(func=_cmd_march)

    p = sub.add_parser("fleet", help="Figure 12 fleet comparison")
    p.add_argument("--modules-per-vendor", type=_int_arg(1), default=2)
    p.add_argument("--rows", type=_int_arg(1), default=96)
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument("--csv", metavar="FILE",
                   help="write per-module rows as CSV")
    _add_campaign_flags(p)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser("report",
                       help="render a --trace capture and/or a "
                            "checkpoint journal as breakdown tables")
    p.add_argument("trace_file", metavar="TRACE", nargs="?",
                   default=None,
                   help="JSON Lines file written by --trace")
    p.add_argument("--journal", metavar="FILE",
                   help="also render a checkpoint journal (tolerates "
                        "the truncated tail of a live or killed run)")
    p.add_argument("--no-timing", action="store_true",
                   help="omit the wall-clock sections (deterministic "
                        "output for goldens/diffs)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("serve",
                       help="run the campaign service daemon")
    p.add_argument("--socket", required=True, metavar="PATH",
                   help="unix socket to listen on")
    p.add_argument("--state-dir", required=True, metavar="DIR",
                   help="durable state: queue journal, per-campaign "
                        "checkpoints, shutdown trace")
    p.add_argument("--jobs", type=_int_arg(1), default=1,
                   help="worker processes per shard (>= 2 enables "
                        "the hung-target watchdog)")
    p.add_argument("--shard-size", type=int, default=4, metavar="N",
                   help="targets per schedulable shard")
    p.add_argument("--max-queued-targets", type=int, default=64,
                   metavar="N",
                   help="admission bound; beyond it submissions are "
                        "rejected with a retry-after hint")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="per-target retry budget inside a shard")
    p.add_argument("--shard-retries", type=int, default=1,
                   metavar="N",
                   help="extra attempts for a shard whose fleet "
                        "raised")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-target watchdog deadline (needs "
                        "--jobs >= 2)")
    p.add_argument("--max-tenant-failures", type=int, default=None,
                   metavar="N",
                   help="failed shards a tenant may accumulate "
                        "before being degraded")
    p.add_argument("--resume", choices=["verify", "skip"],
                   default="verify",
                   help="how restarts treat already-journaled "
                        "targets: verify (re-run and require "
                        "byte-identical signatures, default) or skip")
    p.add_argument("--no-fsync", action="store_true",
                   help="trade crash-safety for speed: flush but do "
                        "not fsync the queue/checkpoint journals")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("submit",
                       help="submit a campaign to a running service")
    p.add_argument("--socket", required=True, metavar="PATH")
    p.add_argument("--tenant", default="default")
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--spec-json", metavar="FILE",
                   help="JSON list of wire-form specs to submit "
                        "(overrides the spec-building flags)")
    p.add_argument("--experiment", choices=["characterize", "compare"],
                   default="characterize")
    p.add_argument("--vendors", nargs="+", choices=["A", "B", "C"],
                   default=["A"], metavar="V",
                   help="one spec per vendor (A B C)")
    p.add_argument("--rows", type=_int_arg(1), default=64)
    p.add_argument("--sample", type=_int_arg(0), default=1000)
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument("--sweep", action="store_true",
                   help="include the full verification sweep")
    p.add_argument("--wait", action="store_true",
                   help="block until the campaign settles and stream "
                        "its results as JSON Lines")
    p.add_argument("--results", metavar="FILE",
                   help="with --wait, write the result records to "
                        "FILE instead of stdout")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("status",
                       help="query a running campaign service")
    p.add_argument("--socket", required=True, metavar="PATH")
    p.add_argument("--campaign", metavar="ID",
                   help="limit to one campaign")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("dataset",
                       help="generate the release dataset (per-module "
                            "campaign JSONs + fleet CSV)")
    p.add_argument("--out", default="dataset")
    p.add_argument("--modules-per-vendor", type=_int_arg(1), default=6)
    p.add_argument("--rows", type=_int_arg(1), default=96)
    p.add_argument("--seed", type=int, default=2016)
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("plan",
                       help="predict a campaign budget analytically")
    p.add_argument("distances", type=int, nargs="+", metavar="D",
                   help="unsigned neighbour distances, e.g. 8 16 48")
    p.add_argument("--threshold", type=float, default=0.06)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("appendix", help="test-time arithmetic")
    p.set_defaults(func=_cmd_appendix)

    for sub_parser in sub.choices.values():
        sub_parser.add_argument("--json", metavar="FILE",
                                help="also write results as JSON")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
