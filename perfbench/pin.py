"""Regenerate ``pins.json``: per-op signature digests at the default seed.

    python3 perfbench/pin.py

For each workload, runs the first ``PIN_OPS[workload]`` ops' campaign
specs through ``run_fleet(jobs=2)`` (outcomes are identical for every
``jobs`` value) and records each op's digest.  A benchmark run at the
default seed checks every op within that range against its pin; ops
beyond it get the distance-set check only.  Re-run this only when a
workload's inputs change on purpose.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from repro.runtime.fleet import run_fleet  # noqa: E402

#: Ops pinned per workload: about twice what one 30-second run
#: completes on a 2-CPU host.
PIN_OPS = {"characterize": 200, "ecc-recover": 30, "service": 75}


def op_specs(workload: wl.Workload, index: int) -> list:
    if isinstance(workload, wl.Characterize):
        return [workload.spec(index)]
    return workload.specs(index)


def main() -> int:
    pins = {}
    for name, n_ops in PIN_OPS.items():
        workload = wl.WORKLOADS[name](wl.DEFAULT_SEED, run_dir="")
        ops = [op_specs(workload, i) for i in range(n_ops)]
        flat = [spec for specs in ops for spec in specs]
        signatures = iter(run_fleet(flat, jobs=2).signatures())
        pins[name] = [wl.digest([next(signatures) for _ in specs])
                      for specs in ops]
        print(f"{name}: {n_ops} ops pinned", file=sys.stderr)
    with open(wl.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
