"""Parallel fleet-campaign runtime.

The paper characterizes 96 DIMMs from three vendors; this package is
the engine that makes such fleet campaigns cheap in the simulator:

* :mod:`repro.runtime.seeds` - a SHA-256 seed ladder that derives
  every target's randomness from one root seed and the target's
  identity, independent of scheduling;
* :mod:`repro.runtime.specs` - frozen, picklable campaign specs that
  rebuild their chip/module inside any process;
* :mod:`repro.runtime.fleet` - :func:`run_fleet`, fanning specs over
  a ``ProcessPoolExecutor`` with crash recovery, returning outcomes
  byte-identical to the serial path for every ``jobs`` setting.
"""

from .chaos import (ChaosError, ChaosSpec, NoisySpec,
                    ServiceFaultPlan, apply_service_fault,
                    chaos_schedule, corrupt_queue_record,
                    device_noise_schedule, service_chaos_plan,
                    wrap_spec)
from .fleet import FleetExecutionError, FleetResult, run_fleet
from .resilience import (CheckpointJournal, CheckpointMismatch,
                         TargetError, TargetTimeout, backoff_delay,
                         render_degraded)
from .seeds import chip_seed, ladder_seed, module_seed, seed_ladder
from .specs import CampaignOutcome, CampaignSpec

__all__ = [
    "CampaignOutcome", "CampaignSpec", "FleetExecutionError",
    "FleetResult", "run_fleet",
    "CheckpointJournal", "CheckpointMismatch", "TargetError",
    "TargetTimeout", "backoff_delay", "render_degraded",
    "ChaosError", "ChaosSpec", "NoisySpec", "ServiceFaultPlan",
    "apply_service_fault", "chaos_schedule", "corrupt_queue_record",
    "device_noise_schedule", "service_chaos_plan", "wrap_spec",
    "ladder_seed", "chip_seed", "module_seed", "seed_ladder",
]
