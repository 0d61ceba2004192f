"""Self-test of the benchmark: every workload at a tiny scale.

    python3 perfbench/selftest.py

For each workload it makes one untraced and one traced run and asserts
that every metric ``BENCHMARK.json`` names is emitted with its unit and
that clean ops pass their checks.  In the traced run the first op's
signature is deliberately corrupted, and the run must count exactly
that op in ``failed`` and ``op_fail_frac``.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

SEED = 7
SECONDS = 0.5

#: Per-workload attribute overrides that shrink each op.
TINY: Dict[str, Dict[str, Any]] = {
    "characterize": {"n_rows": 48, "sample_size": 500},
    "ecc-recover": {"n_rows": 32, "sample_size": 300},
    "service": {"n_rows": 32, "sample_size": 300,
                "targets_per_campaign": 2},
}


def corrupt_first(index: int, signatures: List[Any]) -> None:
    """Replace op 0's first distance set with an impossible one."""
    if index == 0 and signatures:
        forged = list(signatures[0])
        forged[1] = [999]
        signatures[0] = forged


def check_units(result: Dict[str, Any], expected: List[Dict[str, str]],
                label: str) -> None:
    emitted = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    wanted = {entry["name"]: entry["unit"] for entry in expected}
    assert emitted == wanted, f"{label}: metrics {emitted} != {wanted}"
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), (label, name)


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        def shrink(instance: Any, tamper: bool = False) -> None:
            for attr, value in TINY[workload].items():
                setattr(instance, attr, value)
            if tamper:
                instance.tamper = corrupt_first

        args = SimpleNamespace(workload=workload, seed=SEED,
                               seconds=SECONDS, trace=0, setup_only=False)
        clean = bench.run_in_scratch(args, shrink)
        check_units(clean, spec["end_to_end"], f"{workload} trace 0")
        assert clean["correct"] and clean["failed"] == 0, clean

        args.trace = 1
        traced = bench.run_in_scratch(
            args, lambda instance: shrink(instance, tamper=True))
        check_units(traced, spec["per_layer"], f"{workload} trace 1")
        frac = traced["metrics"]["op_fail_frac"]["value"]
        # Op 0 runs in both the untraced and the traced half.
        assert not traced["correct"] and traced["failed"] == 2, traced
        assert frac == traced["failed"] / traced["attempted"], frac
        print(f"selftest {workload}: ok ({clean['attempted']} + "
              f"{traced['attempted']} ops)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
