"""The three closed-loop workloads and the checks on their outputs.

Each workload turns ``(seed, op index)`` into the inputs of one
operation, runs it, times it and checks its result:

* ``characterize`` - one ``CampaignSpec("characterize")`` per op at
  the fig. 11 geometry, cycling vendors A/B/C and alternating legacy
  ``rounds=1`` with robust ``rounds=4``;
* ``ecc-recover`` - one ``EccCampaignSpec(ecc="recover")``
  characterize campaign per op, cycling vendors;
* ``service`` - one four-target campaign per op, submitted to a real
  daemon subprocess by a client that keeps at most two campaigns
  outstanding.

Every op's output is checked: the distance magnitudes must be the
vendor's set, ECC recovery must not have degraded, service campaigns
must end ok with one signed result per target, and at the default seed
the op's signature digest must equal the one pinned in ``pins.json``.

Times are scaled to reference seconds by :mod:`hostspeed`: a fixed
calibration kernel runs between in-process ops (one 5-ms sample per
100 ms of op) or, for ``service``, whose main thread only waits on the
daemon, every 100 ms in a background thread.  A window always ends on
a whole cycle of the workload's vendor/rounds mix, so every run
measures the same mix.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.ecc.spec import EccCampaignSpec  # noqa: E402
from repro.runtime.resilience import CheckpointJournal, \
    signature_json  # noqa: E402
from repro.runtime.specs import CampaignSpec  # noqa: E402
from repro.service import client  # noqa: E402

DEFAULT_SEED = 2016
PINS_PATH = os.path.join(HERE, "pins.json")

#: Paper fig. 11 neighbour-distance magnitudes per vendor.
VENDOR_MAGNITUDES = {"A": [8, 16, 48], "B": [1, 64], "C": [16, 33, 49]}

#: Warm-up geometry: small, but large enough that every vendor's full
#: distance set is found, so the schedule caches fill.
WARMUP_ROWS, WARMUP_SAMPLE = 16, 200


def derive(seed: int, *path: Any) -> int:
    """A 31-bit input seed for ``path`` under the workload seed."""
    blob = json.dumps([seed, *path]).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "little") >> 1


def digest(signatures: Sequence[Any]) -> str:
    """Short hash of the canonical JSON form of outcome signatures."""
    canon = json.dumps([signature_json(s) for s in signatures],
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def check_distances(vendor: str, distances: Sequence[int]) -> List[str]:
    found = sorted({abs(int(d)) for d in distances})
    if found != VENDOR_MAGNITUDES[vendor]:
        return [f"vendor {vendor} distances {found} != "
                f"{VENDOR_MAGNITUDES[vendor]}"]
    return []


def characterize_spec(vendor: str, seed: int, *path: Any, n_rows: int,
                      sample_size: int, rounds: int = 1,
                      cls: type = CampaignSpec, **extra: Any
                      ) -> CampaignSpec:
    return cls(experiment="characterize", vendor=vendor,
               build_seed=derive(seed, "build", *path),
               run_seed=derive(seed, "run", *path), n_rows=n_rows,
               sample_size=sample_size, run_sweep=True, rounds=rounds,
               **extra)


def warmup_specs(seed: int) -> List[CampaignSpec]:
    """One small campaign per vendor and rounds mode, on seeds
    disjoint from every timed op's."""
    return [characterize_spec(v, seed, "warmup", v, r, n_rows=WARMUP_ROWS,
                              sample_size=WARMUP_SAMPLE, rounds=r)
            for r in (1, 4) for v in "ABC"]


@dataclass
class Op:
    """One completed (or failed) operation."""

    start: float = 0.0
    end: float = 0.0
    latency_s: float = 0.0
    #: Latency in reference seconds (see :mod:`hostspeed`).
    ref_s: float = 0.0
    targets: int = 0
    chip_tests: int = 0
    problems: List[str] = field(default_factory=list)
    ack_s: Optional[float] = None
    campaign: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Phase:
    """The ops of one timed window plus its resource use.

    ``active_s`` is the wall time the ops account for (the window less
    the serial calibration samples) and ``ref_s`` the same in reference
    seconds; ``cpu_s`` excludes the calibration kernel's CPU."""

    ops: List[Op]
    elapsed_s: float
    active_s: float
    ref_s: float
    cpu_s: float
    peak_rss_mb: float
    start: float = 0.0
    end: float = 0.0

    @property
    def targets(self) -> int:
        return sum(op.targets for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)


def _rusage_cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _self_and_children_cpu() -> float:
    return (_rusage_cpu(resource.RUSAGE_SELF)
            + _rusage_cpu(resource.RUSAGE_CHILDREN))


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


class Pins:
    """Pinned per-op digests at the default seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self.digests: List[str] = []
        if seed == DEFAULT_SEED and os.path.exists(PINS_PATH):
            with open(PINS_PATH) as fh:
                self.digests = json.load(fh).get(workload, [])
        self.checked = 0

    def check(self, index: int, value: str) -> List[str]:
        if index >= len(self.digests):
            return []
        self.checked += 1
        if value != self.digests[index]:
            return [f"op {index} digest {value} != pinned "
                    f"{self.digests[index]}"]
        return []


class Workload:
    """Base: an in-process closed loop of ops."""

    name = ""
    #: Ops per cycle of the input mix; a window ends on a whole cycle.
    cycle = 1

    def __init__(self, seed: int, run_dir: str) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.pins = Pins(self.name, seed)
        self.speed = HostSpeed()
        #: Test hook: called with (index, signatures) before checking.
        self.tamper: Optional[Callable[[int, List[Any]], None]] = None

    def warm_up(self) -> None:
        for spec in warmup_specs(self.seed):
            spec.run()
            self.speed.sample(2)

    def execute(self, index: int) -> Op:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def verify(self, index: int, vendors: Sequence[str],
               signatures: List[Any]) -> List[str]:
        """Check op ``index``'s outcome signatures: each one's distance
        magnitudes (``signature[1]``) against its vendor's set, and the
        op's digest against the pinned one."""
        if self.tamper is not None:
            self.tamper(index, signatures)
        problems: List[str] = []
        for vendor, signature in zip(vendors, signatures):
            problems += check_distances(vendor, signature[1])
        return problems + self.pins.check(index, digest(signatures))

    def more(self, index: int, deadline: float) -> bool:
        """Whether op ``index`` is sent: until the deadline, then to
        the end of the cycle."""
        return (index == 0 or index % self.cycle != 0
                or time.perf_counter() < deadline)

    def kernel_cpu_s(self, start: float, end: float) -> float:
        return sum(cost for t, cost in self.speed.samples
                   if start <= t <= end)

    def run_phase(self, seconds: float) -> Phase:
        ops: List[Op] = []
        cpu0 = _self_and_children_cpu()
        start = time.perf_counter()
        deadline = start + seconds
        index = 0
        while self.more(index, deadline):
            t0 = time.perf_counter()
            try:
                op = self.execute(index)
            except Exception as exc:  # noqa: BLE001 - a failed op
                op = Op(problems=[f"op {index}: {exc!r}"])
            op.start, op.end = t0, time.perf_counter()
            op.latency_s = op.end - t0
            ops.append(op)
            index += 1
            self.speed.sample(min(10, max(1, round(op.latency_s / 0.1))))
        end = time.perf_counter()
        for op in ops:
            op.ref_s = self.speed.seconds(op.start, op.end)
        return Phase(ops=ops, elapsed_s=end - start,
                     active_s=sum(op.latency_s for op in ops),
                     ref_s=sum(op.ref_s for op in ops),
                     cpu_s=_self_and_children_cpu() - cpu0
                     - self.kernel_cpu_s(start, end),
                     peak_rss_mb=_peak_rss_mb(), start=start, end=end)


class Characterize(Workload):
    name = "characterize"
    cycle = 6
    n_rows, sample_size = 128, 2000

    def spec(self, index: int) -> CampaignSpec:
        return characterize_spec("ABC"[index % 3], self.seed, "op", index,
                                 n_rows=self.n_rows,
                                 sample_size=self.sample_size,
                                 rounds=1 if index % 2 == 0 else 4)

    def execute(self, index: int) -> Op:
        spec = self.spec(index)
        outcome = spec.run()
        problems = self.check(outcome)
        problems += self.verify(index, [spec.vendor], [outcome.signature()])
        return Op(targets=1, chip_tests=outcome.stats.tests,
                  problems=problems)

    def check(self, outcome: Any) -> List[str]:
        return []


class EccRecover(Characterize):
    name = "ecc-recover"
    cycle = 3

    def spec(self, index: int) -> CampaignSpec:
        return characterize_spec("ABC"[index % 3], self.seed, "op", index,
                                 n_rows=self.n_rows,
                                 sample_size=self.sample_size,
                                 cls=EccCampaignSpec, ecc="recover")

    def warm_up(self) -> None:
        for v in "ABC":
            characterize_spec(v, self.seed, "warmup", v,
                              n_rows=WARMUP_ROWS,
                              sample_size=WARMUP_SAMPLE,
                              cls=EccCampaignSpec, ecc="recover").run()
            self.speed.sample(2)

    def check(self, outcome: Any) -> List[str]:
        if outcome.quarantine is not None and \
                outcome.quarantine.reason_counts().get("ecc-unrecovered"):
            return ["ECC recovery degraded (ecc-unrecovered)"]
        return []


# -- service -----------------------------------------------------------------

SUBMIT_TIMEOUT_S = 10.0
RESULTS_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 30.0


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def child_env(run_dir: str) -> Dict[str, str]:
    """Environment for processes the benchmark starts: the program from
    ``src`` and temporary files inside the run directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = os.path.join(run_dir, "tmp")
    return env


class Daemon:
    """One ``repro.service`` daemon subprocess with fresh state."""

    def __init__(self, run_dir: str, tag: str,
                 spool_dir: Optional[str] = None) -> None:
        self.state_dir = os.path.join(run_dir, f"svc-{tag}")
        os.makedirs(self.state_dir)
        # AF_UNIX paths are limited to 107 bytes: use a short path
        # relative to the working directory both processes share.
        self.socket = os.path.relpath(os.path.join(self.state_dir, "s"),
                                      ROOT)
        cmd = [sys.executable, os.path.join(HERE, "daemon_main.py"),
               "--socket", self.socket, "--state-dir", self.state_dir]
        if spool_dir:
            cmd += ["--spool-dir", spool_dir]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(run_dir),
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
        try:
            client.wait_for_service(self.socket, timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def campaign(self, specs: Sequence[CampaignSpec], tenant: str
                 ) -> Dict[str, Any]:
        ack = client.submit(self.socket, specs, tenant=tenant,
                            timeout=SUBMIT_TIMEOUT_S)
        return client.wait_results(self.socket, ack["campaign"],
                                   timeout=RESULTS_TIMEOUT_S)

    def cpu_s(self) -> float:
        return _proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return _proc_peak_rss_mb(self.proc.pid)

    def chip_tests(self, campaign: str) -> int:
        """Whole-chip tests of a finished campaign, from the outcomes
        the daemon journaled (pickles this benchmark's daemon wrote)."""
        path = os.path.join(self.state_dir, f"{campaign}.ckpt")
        tests = 0
        for record in CheckpointJournal.read(path):
            raw = zlib.decompress(base64.b64decode(record["payload"]))
            tests += pickle.loads(raw).stats.tests
        return tests

    def stop(self) -> int:
        """Drain the daemon; kill it if it does not exit in time."""
        if self.proc.poll() is None:
            try:
                client.drain(self.socket, timeout=5.0)
            except (OSError, client.ServiceError):
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


class Service(Workload):
    name = "service"
    cycle = 3
    targets_per_campaign, n_rows, sample_size = 4, 64, 1000
    outstanding = 2

    def __init__(self, seed: int, run_dir: str) -> None:
        super().__init__(seed, run_dir)
        self.daemon: Optional[Daemon] = None
        self._daemons = 0

    def specs(self, index: int) -> List[CampaignSpec]:
        # Distinct seeds for every target: campaign IDs are content
        # addressed, so a repeated spec would attach to cached results.
        return [characterize_spec("ABC"[(index * 4 + k) % 3], self.seed,
                                  "op", index, k, n_rows=self.n_rows,
                                  sample_size=self.sample_size)
                for k in range(self.targets_per_campaign)]

    def start(self, spool_dir: Optional[str] = None) -> None:
        """Start a fresh daemon and warm it up."""
        self.close()
        self._daemons += 1
        self.speed.start()
        try:
            self.daemon = Daemon(self.run_dir, str(self._daemons), spool_dir)
            result = self.daemon.campaign(warmup_specs(self.seed), "warmup")
        finally:
            self.speed.stop()
        if not result["end"]["ok"]:
            raise RuntimeError("service warm-up campaign failed")

    def warm_up(self) -> None:
        self.start()

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def _check(self, index: int, ack: Dict[str, Any],
               results: Dict[str, Any]) -> List[str]:
        problems: List[str] = []
        if ack.get("attached"):
            problems.append("campaign attached to an existing one")
        if not results["end"].get("ok"):
            problems.append(f"campaign failed: {results['end']}")
        records = results["results"]
        specs = self.specs(index)
        if len(records) != len(specs):
            problems.append(f"{len(records)} results for "
                            f"{len(specs)} targets")
        signed = [(spec.vendor, record["signature"])
                  for spec, record in zip(specs, records)
                  if "signature" in record and not record.get("missing")]
        if len(signed) != len(records):
            problems.append(f"{len(records) - len(signed)} results "
                            f"without a signature")
        return problems + self.verify(index, [v for v, _ in signed],
                                      [s for _, s in signed])

    def run_phase(self, seconds: float) -> Phase:
        daemon = self.daemon
        ops: List[Op] = []
        cpu0, daemon_cpu0 = _rusage_cpu(resource.RUSAGE_SELF), daemon.cpu_s()
        start = time.perf_counter()
        deadline = start + seconds
        self.speed.start()
        try:
            self._loop(daemon, ops, deadline)
        finally:
            self.speed.stop()
        end = time.perf_counter()
        # The daemon's CPU time and peak RSS are read before it is reaped.
        cpu = (_rusage_cpu(resource.RUSAGE_SELF) - cpu0
               - self.kernel_cpu_s(start, end))
        peak = _peak_rss_mb()
        if daemon.proc.poll() is None:
            cpu += daemon.cpu_s() - daemon_cpu0
            peak = max(peak, daemon.peak_rss_mb())
        for op in ops:
            if op.campaign:
                op.chip_tests = daemon.chip_tests(op.campaign)
            if op.end > op.start:
                op.ref_s = self.speed.seconds(op.start, op.end)
        return Phase(ops=ops, elapsed_s=end - start, active_s=end - start,
                     ref_s=self.speed.seconds(start, end), cpu_s=cpu,
                     peak_rss_mb=peak, start=start, end=end)

    def _loop(self, daemon: Daemon, ops: List[Op], deadline: float
              ) -> None:
        pending: deque = deque()
        index = 0
        stalled = False
        while True:
            # Closed loop: at most `outstanding` campaigns in flight; a
            # new one is sent only when an earlier one has completed.
            while (len(pending) < self.outstanding and not stalled
                   and self.more(index, deadline)):
                op = Op(start=time.perf_counter())
                try:
                    ack = client.submit(daemon.socket, self.specs(index),
                                        tenant="bench",
                                        timeout=SUBMIT_TIMEOUT_S)
                    op.ack_s = time.perf_counter() - op.start
                except (OSError, client.ServiceError) as exc:
                    op.problems.append(f"submit {index}: {exc!r}")
                    op.end = time.perf_counter()
                    op.latency_s = op.end - op.start
                    ops.append(op)
                    stalled = True
                    break
                pending.append((index, op, ack))
                index += 1
            if not pending:
                break
            i, op, ack = pending.popleft()
            if stalled:
                op.problems.append(f"op {i}: abandoned after a failure")
                ops.append(op)
                continue
            try:
                results = client.wait_results(daemon.socket,
                                              ack["campaign"],
                                              timeout=RESULTS_TIMEOUT_S)
                op.end = time.perf_counter()
                op.latency_s = op.end - op.start
                op.problems += self._check(i, ack, results)
                op.targets = len(results["results"])
                op.campaign = ack["campaign"]
            except (OSError, client.ServiceError) as exc:
                op.end = time.perf_counter()
                op.latency_s = op.end - op.start
                op.problems.append(f"results {i}: {exc!r}")
                stalled = True
            ops.append(op)


WORKLOADS = {cls.name: cls
             for cls in (Characterize, EccRecover, Service)}


# -- metrics -----------------------------------------------------------------

def tail(values: Sequence[float]) -> Optional[tuple]:
    """``(value, percentile)`` of the highest percentile that has at
    least ten samples beyond it; None when that percentile would not
    lie above the median (fewer than 21 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return None
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(phase: Phase, setup_s: float) -> Dict[str, float]:
    """End-to-end metrics; times in reference seconds."""
    done = [op for op in phase.ops if op.targets]
    targets = max(phase.targets, 1)
    return {
        "setup_s": setup_s,
        "targets_per_s": phase.targets / phase.ref_s,
        "cpu_ms_per_target": 1e3 * phase.cpu_s * phase.ref_s
        / phase.active_s / targets,
        "op_p50_ms": 1e3 * statistics.median(
            op.ref_s for op in (done or phase.ops)),
        "chip_tests_per_s": sum(op.chip_tests for op in phase.ops)
        / phase.ref_s,
        "peak_rss_mb": phase.peak_rss_mb,
    }
