"""Deterministic chaos harness for the fleet runtime.

Real memory-testing campaigns die in four characteristic ways: a
worker process crashes outright, a worker hangs past any useful
deadline, a transient infrastructure error surfaces as an exception,
and - nastiest - a run completes but returns a silently corrupted
result.  This module injects all four from a **seeded schedule**, so a
chaos run is exactly as reproducible as a clean one and the recovery
tests in ``tests/chaos`` can assert byte-identical outcomes.

Every injected fault of one target lives in its spec's
:class:`FaultPlan` (``CampaignSpec.faults``; the default, empty plan
injects nothing).  *Process* faults fire per execution attempt,
counted across process boundaries in files under ``chaos_dir``
because a crashed worker cannot remember anything in memory.  They
never touch the spec's seeds or identity, so a fleet whose
``retries`` cover the plan recovers an outcome identical to an
unperturbed run.  *Device* noise - seeded VRT, marginal and soft-error
populations - is attached to every bank of the rebuilt chips and
joins the checkpoint key; with ``rounds > 1`` it drives the
robustness invariant tests (definite cells match the noise-free
profile, every injected cell ends in quarantine).

The schedules - :func:`chaos_schedule` (process faults),
:func:`device_noise_schedule` (device noise) and
:func:`service_chaos_plan` (one daemon-level fault) - derive their
draws from a root seed via the SHA-256 seed ladder: same seed, same
faults, regardless of scheduling, ``--jobs``, or platform.  Each
returns ``dataclasses.replace(spec, faults=...)`` merged into the plan
the spec already carries, so schedules stack and a subclass spec
(e.g. :class:`repro.ecc.EccCampaignSpec`) keeps its identity.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from ..dram.faults import DeviceNoiseModel, NoiseSpec
from .seeds import ladder_seed

if TYPE_CHECKING:  # specs.py imports FaultPlan from here
    from .specs import CampaignSpec

__all__ = ["ECC_FAULT_KINDS", "FAULT_KINDS", "SERVICE_FAULT_KINDS",
           "ChaosError", "FaultPlan", "chaos_schedule",
           "corrupt_inferred_ecc", "corrupt_queue_record",
           "device_noise_schedule", "service_chaos_plan"]

FAULT_KINDS = ("crash", "hang", "transient", "corrupt")

#: On-die-ECC inference faults (see :func:`corrupt_inferred_ecc`):
#: ``stuck-syndrome`` zeroes one recovered parity-check row (a stuck
#: syndrome bit - structurally detectable: the basis loses rank),
#: ``wrong-matrix`` flips a single bit of one row (a plausible but
#: wrong inference - only behavioral validation can catch it).
ECC_FAULT_KINDS = ("stuck-syndrome", "wrong-matrix")

#: Service-level failure modes (see :func:`service_chaos_plan`):
#: ``kill-daemon`` takes the whole daemon down mid-shard,
#: ``hang-shard`` stalls one target past the shard watchdog,
#: ``corrupt-queue`` tampers with a durable queue record on disk.
SERVICE_FAULT_KINDS = ("kill-daemon", "hang-shard", "corrupt-queue")

CRASH_EXIT_CODE = 23


class ChaosError(RuntimeError):
    """An injected (deliberate) failure."""


@dataclass(frozen=True)
class FaultPlan:
    """Every fault injected into one campaign target, layer by layer.

    Attributes:
        process: process layer - the fault to inject on each execution
            attempt (1-based); ``""`` means the attempt runs clean, and
            attempts beyond the plan always run clean.
        chaos_dir: directory holding the cross-process attempt
            counters (one file per spec); must exist.  An empty value
            disables process injection entirely.
        hang_s: how long the ``"hang"`` fault sleeps.  Kept finite so
            an unwatched chaos run eventually fails loudly instead of
            stalling forever; a watchdog is expected to kill it first.
        noise: device layer - the :class:`~repro.dram.faults.NoiseSpec`
            describing the injected populations (its ``active_after``
            is the "when"); ``None`` (or an empty spec) runs clean,
            leaving the spec byte-equivalent to its base.
        noise_seed: root of the per-bank noise seed ladder.  Each bank
            gets its own :class:`~repro.dram.faults.DeviceNoiseModel`
            seeded by ``ladder_seed(noise_seed, "device-noise",
            chip, bank)``, so the injected cell set is a pure function
            of ``(noise_seed, geometry)`` - never of scheduling.

    The process layer never joins a spec's ``label``,
    ``checkpoint_key`` or ``trace_id`` (a recovered chaos target is
    indistinguishable from a clean run); a non-empty device layer joins
    the checkpoint key, because it changes what the campaign measures.
    """

    process: Tuple[str, ...] = ()
    chaos_dir: str = ""
    hang_s: float = 60.0
    noise: Optional[NoiseSpec] = None
    noise_seed: int = 0

    def __post_init__(self) -> None:
        for fault in self.process:
            if fault and fault not in FAULT_KINDS:
                raise ValueError(f"unknown chaos fault {fault!r}; "
                                 f"expected one of {FAULT_KINDS}")

    # -- device layer --------------------------------------------------

    def identity(self) -> Tuple:
        """The plan's result-affecting identity parts (noise only)."""
        if self.noise is None or self.noise.empty:
            return ()
        return ("device-noise", repr(self.noise), self.noise_seed)

    def attach_noise(self, chips) -> None:
        """Attach the seeded per-bank noise models to ``chips``."""
        if self.noise is None or self.noise.empty:
            return
        for chip_idx, chip in enumerate(chips):
            for bank_idx, bank in enumerate(chip.banks):
                bank.noise = DeviceNoiseModel(
                    self.noise, n_rows=bank.n_rows,
                    row_bits=bank.row_bits,
                    seed=ladder_seed(self.noise_seed, "device-noise",
                                     chip_idx, bank_idx))

    # -- process layer -------------------------------------------------

    def _next_attempt(self, key: str) -> int:
        """Increment and return the execution count of spec ``key``.

        The count lives on disk so it survives worker crashes.  The
        update must be write-to-temp + ``os.replace``: a worker can be
        SIGKILLed at any point (watchdog kill, pool-break collateral),
        and an in-place truncating rewrite killed between open and
        flush would leave an *empty* counter, rewinding the count and
        replaying already-fired faults until the retry budget drains.
        With the atomic replace a killed update merely loses its own
        increment - the count is monotonic, so a plan slot can never
        fire twice.
        """
        path = os.path.join(self.chaos_dir,
                            key.replace(":", "_") + ".attempts")
        try:
            with open(path) as fh:
                count = int(fh.read().strip() or 0)
        except (FileNotFoundError, ValueError):
            count = 0
        count += 1
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            fh.write(str(count))
        os.replace(tmp, path)
        return count

    def fire(self, key: str) -> str:
        """Count one attempt of spec ``key`` and fire its fault.

        ``crash``, ``hang`` and ``transient`` fire here, before the
        campaign runs; ``corrupt`` is returned for the caller to apply
        to the finished outcome.  Returns ``""`` for a clean attempt.
        Requires ``chaos_dir``; the caller skips plans without one.
        """
        attempt = self._next_attempt(key)
        fault = (self.process[attempt - 1]
                 if attempt <= len(self.process) else "")
        if fault == "crash":
            os._exit(CRASH_EXIT_CODE)  # simulates a segfaulting worker
        if fault == "hang":
            time.sleep(self.hang_s)
            raise ChaosError(f"injected hang survived {self.hang_s:g} s "
                             f"without a watchdog")
        if fault == "transient":
            raise ChaosError("injected transient fault")
        return fault


def chaos_schedule(seed: int, specs: Sequence[CampaignSpec],
                   chaos_dir: str,
                   faults: Sequence[str] = FAULT_KINDS,
                   max_faults_per_target: int = 2,
                   fault_rate: float = 0.75,
                   hang_s: float = 60.0) -> list:
    """Give ``specs`` a seeded, scheduling-independent process plan.

    Every draw comes from ``ladder_seed(seed, "chaos", <target
    identity>, ...)``, so the schedule depends only on the root seed
    and each target's identity - never on list order or process
    layout.

    Args:
        seed: chaos root seed.
        specs: targets to perturb.
        chaos_dir: scratch directory for the attempt counters.
        faults: fault kinds to draw from (e.g. exclude ``"crash"`` for
            in-process serial fleets, ``"corrupt"`` when no verifying
            checkpoint will catch it).
        max_faults_per_target: plan-length cap; keep it at or below
            the fleet's ``retries`` so recovery is guaranteed.
        fault_rate: probability (per plan slot) that a fault fires.
        hang_s: sleep length of injected hangs.

    Returns:
        One spec per input spec, in input order, each carrying its
        input's identity and fault plan plus the drawn process plan.
    """
    if not 0 <= fault_rate <= 1:
        raise ValueError("fault_rate must be in [0, 1]")
    if max_faults_per_target < 0:
        raise ValueError("max_faults_per_target must be non-negative")
    faults = tuple(faults)
    for fault in faults:
        if fault not in FAULT_KINDS:
            raise ValueError(f"unknown chaos fault {fault!r}")
    scale = float(2 ** 63)
    wrapped = []
    for spec in specs:
        identity = (spec.experiment, spec.vendor, spec.index,
                    spec.run_seed)
        plan = []
        for slot in range(max_faults_per_target):
            roll = ladder_seed(seed, "chaos", *identity, "fire",
                               slot) / scale
            if roll < fault_rate and faults:
                pick = ladder_seed(seed, "chaos", *identity, "kind",
                                   slot) % len(faults)
                plan.append(faults[pick])
            else:
                plan.append("")
        wrapped.append(spec.with_faults(process=tuple(plan),
                                        chaos_dir=chaos_dir,
                                        hang_s=hang_s))
    return wrapped


def corrupt_inferred_ecc(inferred, kind: str, seed: int):
    """Corrupt a BEER inference result with a seeded ECC fault.

    Models the two failure modes of code recovery on real silicon: a
    stuck syndrome bit in the probe path (one parity-check row reads
    all-zero) and a subtly wrong recovered matrix (one bit off).  The
    campaign must never turn either into wrong definite verdicts - the
    validation gate has to catch both and degrade to quarantine, which
    is exactly what ``tests/chaos/test_ecc_chaos.py`` asserts.

    Returns a new :class:`repro.ecc.beer.InferredEcc`; the input is
    untouched (it is frozen).
    """
    import dataclasses

    if kind not in ECC_FAULT_KINDS:
        raise ValueError(f"unknown ecc fault {kind!r}; expected one "
                         f"of {ECC_FAULT_KINDS}")
    basis = list(inferred.basis)
    if not basis:
        return inferred
    row = ladder_seed(seed, "ecc-fault", "row") % len(basis)
    if kind == "stuck-syndrome":
        basis[row] = 0
    else:
        bit = ladder_seed(seed, "ecc-fault", "bit") % 64
        basis[row] ^= 1 << bit
    return dataclasses.replace(
        inferred, basis=tuple(basis),
        note=f"chaos:{kind}@row{row}")


# -- service-level chaos ---------------------------------------------------


def service_chaos_plan(seed: int, specs: Sequence[CampaignSpec],
                       chaos_dir: str, shard_size: int,
                       kinds: Sequence[str] = SERVICE_FAULT_KINDS,
                       hang_s: float = 60.0) -> list:
    """Arm one seeded service fault on a campaign's ``specs``.

    Every draw comes from ``ladder_seed(seed, "service-chaos", ...)``:
    same seed, same fault, same victim - regardless of platform or
    scheduling.  The victim is located by shard and position in
    *checkpoint-key order*, the same pure-function shard layout the
    service's queue uses (:func:`repro.service.queue.partition_shards`),
    so the plan names the identical victim on every replay,
    resubmission, or restart.  Distinct seeds move the fault around,
    so a test sweeping a handful of seeds exercises kills in different
    shards and positions.

    The victim's process plan gains one fault on its *first*
    execution:

    * ``kill-daemon`` -> a ``"crash"`` fault.  Under the daemon's
      in-process shard execution (``jobs=1``) the ``os._exit`` takes
      the whole daemon down mid-shard - the moral equivalent of a
      SIGKILL between two checkpoint appends, and exactly as
      deterministic as the seed.
    * ``hang-shard`` -> a ``"hang"`` fault: the target sleeps past
      the shard watchdog (requires the daemon to run shards with
      ``jobs >= 2``, where ``run_fleet``'s watchdog can kill it).
    * ``corrupt-queue`` targets the journal file, not a spec - use
      :func:`corrupt_queue_record`; the specs pass through unchanged.

    The attempt counter in ``chaos_dir`` survives the daemon (put it
    inside the service's state dir), so after a restart the retry
    runs clean and recovery can be asserted byte-identical.

    Returns the specs in their input order, victim armed.
    """
    n_targets = len(specs)
    if n_targets < 1:
        raise ValueError("n_targets must be >= 1")
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in SERVICE_FAULT_KINDS:
            raise ValueError(f"unknown service fault {kind!r}")
    n_shards = (n_targets + shard_size - 1) // shard_size
    kind = kinds[ladder_seed(seed, "service-chaos", "kind")
                 % len(kinds)]
    if kind == "corrupt-queue":
        return list(specs)
    shard = ladder_seed(seed, "service-chaos", "shard") % n_shards
    width = min(shard_size, n_targets - shard * shard_size)
    target = ladder_seed(seed, "service-chaos", "target") % width
    ordered = sorted(specs, key=lambda s: s.checkpoint_key())
    victim = ordered[shard * shard_size + target]
    fault = "crash" if kind == "kill-daemon" else "hang"
    armed = victim.with_faults(process=(fault,), chaos_dir=chaos_dir,
                               hang_s=hang_s)
    return [armed if spec is victim else spec for spec in specs]


def corrupt_queue_record(path: str, seed: int,
                         kinds: Sequence[str] = ("shard_done",)
                         ) -> int:
    """Tamper with one seeded record of a service queue journal.

    Rewrites the victim line as still-valid JSON whose content no
    longer matches its CRC stamp (the signature of bit rot or a torn
    overwrite, as opposed to a truncated tail).  Replay must *detect*
    the mismatch and drop only that record; dropping a ``shard_done``
    merely re-runs the shard, which the checkpoint journal then
    verifies.

    Returns the zero-based line index that was corrupted.

    Raises ValueError when the journal holds no record of ``kinds``.
    """
    import json

    with open(path) as fh:
        lines = fh.read().splitlines()
    victims = []
    for idx, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and record.get("kind") in kinds:
            victims.append((idx, record))
    if not victims:
        raise ValueError(f"{path}: no record of kind {tuple(kinds)} "
                         f"to corrupt")
    pick = ladder_seed(seed, "service-chaos", "corrupt") % len(victims)
    idx, record = victims[pick]
    record["tampered"] = True  # content changes, stale CRC stays
    lines[idx] = json.dumps(record, sort_keys=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
    return idx


def device_noise_schedule(seed: int, specs: Sequence[CampaignSpec],
                          noise: NoiseSpec,
                          rounds: Optional[int] = None) -> list:
    """Give ``specs`` seeded device noise (substrate chaos).

    Every target keeps its own identity seeds; only the *noise* seed
    is drawn from the ladder (``ladder_seed(seed, "device-noise",
    <target identity>)``), so the injected populations depend on the
    root seed and the target - never on list order, ``--jobs``, or
    platform.

    Args:
        seed: noise root seed.
        specs: targets to perturb.
        noise: the population spec shared by every target (use
            ``active_after`` to arm the noise mid-campaign).
        rounds: optionally override every spec's repeat-and-vote
            rounds at the same time (``None`` keeps each spec's own).

    Returns:
        One spec per input spec, in input order, each carrying its
        input's identity and fault plan plus the device noise.
    """
    wrapped = []
    for spec in specs:
        identity = (spec.experiment, spec.vendor, spec.index,
                    spec.run_seed)
        noisy = spec.with_faults(
            noise=noise,
            noise_seed=ladder_seed(seed, "device-noise", *identity))
        if rounds is not None:
            noisy = dataclasses.replace(noisy, rounds=rounds)
        wrapped.append(noisy)
    return wrapped
