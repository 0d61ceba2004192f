"""Campaign specs that thread an on-die ECC stage into the substrate.

:class:`EccCampaignSpec` extends :class:`repro.runtime.specs.CampaignSpec`
with three modes:

* ``"null"`` - attach the ECC plumbing with the null code (0 check
  bits).  The transform is the identity, ``label``/``checkpoint_key``/
  ``trace_id`` stay byte-identical to the plain spec, and the CI
  differential gate asserts the whole campaign outcome is too.
* ``"lens"`` - the chips carry their vendor's secret
  :class:`repro.ecc.HammingSecDed` code and every retention read
  returns the post-correction view: the fig12/fig13-style analyses
  then quantify how many data-dependent failures on-die ECC hides.
* ``"recover"`` - BEER inference first recovers the code from a probe
  device of the same build (same ``(build_seed, vendor)`` ladder
  identity, so the same ECC circuit), validates it on held-out probe
  rounds, and - only if the
  :func:`repro.robust.integrity.check_ecc_inference` gate passes -
  un-distorts every read back to the raw error set.  A failed or
  chaos-corrupted inference degrades fail-closed: the campaign runs
  through the lens, every detection is quarantined
  (``"ecc-unrecovered"``) and the verdicts are flagged degraded
  (definite becomes probabilistic), never silently wrong.

The probe device is rebuilt from its own ladder seed so probing never
perturbs the campaign chips' sequential RNG streams - the recovered
campaign stays byte-comparable to the ECC-off ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import obs
from ..robust.integrity import check_ecc_inference
from ..runtime.chaos import ECC_FAULT_KINDS, corrupt_inferred_ecc
from ..runtime.seeds import ladder_seed
from ..runtime.specs import CampaignOutcome, CampaignSpec
from .beer import infer_ecc, validate_inference
from .ondie import attach_on_die_ecc
from .secded import HammingSecDed

__all__ = ["EccCampaignSpec", "EccDistortion", "ecc_distortion",
           "format_distortion", "ECC_MODES"]

ECC_MODES = ("null", "lens", "recover")


@dataclass(frozen=True)
class EccCampaignSpec(CampaignSpec):
    """A campaign spec whose chips carry an on-die ECC stage.

    Attributes:
        ecc: ``"null"`` | ``"lens"`` | ``"recover"`` (see module doc).
        ecc_fault: optional chaos fault corrupting the BEER inference
            (one of :data:`repro.runtime.chaos.ECC_FAULT_KINDS`;
            ``"recover"`` mode only).
    """

    ecc: str = "lens"
    ecc_fault: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.ecc not in ECC_MODES:
            raise ValueError(f"unknown ecc mode {self.ecc!r}; "
                             f"expected one of {ECC_MODES}")
        if self.ecc_fault:
            if self.ecc_fault not in ECC_FAULT_KINDS:
                raise ValueError(
                    f"unknown ecc fault {self.ecc_fault!r}; expected "
                    f"one of {ECC_FAULT_KINDS}")
            if self.ecc != "recover":
                raise ValueError("ecc faults corrupt the inference and "
                                 "only apply to ecc='recover'")

    # -- identity -----------------------------------------------------

    def label(self) -> str:
        suffix = {"lens": "+ecc", "recover": "+ecc-recover"}
        return super().label() + suffix.get(self.ecc, "")

    def _identity_extras(self) -> Tuple:
        # The null code measures exactly what the plain spec measures:
        # no ECC extras, so checkpoint keys (and outcome signatures)
        # stay byte-identical - the differential gate depends on this.
        extras = super()._identity_extras()
        if self.ecc == "null":
            return extras
        extras += ("ecc", self.ecc)
        if self.ecc_fault:
            extras += ("ecc-fault", self.ecc_fault)
        return extras

    def trace_id(self) -> str:
        digest = ladder_seed(self.build_seed, "trace", self.experiment,
                             self.vendor, self.index, self.run_seed,
                             *self._identity_extras())
        return f"{self.label()}#{digest:016x}"

    # -- chip preparation ---------------------------------------------

    def code(self) -> Optional[HammingSecDed]:
        """The secret code this build's chips carry (None for null)."""
        if self.ecc == "null":
            return None
        return HammingSecDed.for_vendor(self.vendor, self.build_seed)

    def _prepare_chips(self, chips: List) -> None:
        super()._prepare_chips(chips)
        code = self.code()
        recovery = None
        if self.ecc == "recover":
            recovery = self._recover_code(code)
        for chip in chips:
            attach_on_die_ecc(chip, code, recovery=recovery)

    def _recover_code(self, code: HammingSecDed):
        """BEER-infer the code on a probe device; gate fail-closed."""
        from ..dram.vendors import vendor as vendor_profile

        probe = vendor_profile(self.vendor).make_chip(
            seed=ladder_seed(self.build_seed, "ecc", "probe-chip"),
            n_rows=self.n_rows)
        attach_on_die_ecc(probe, code)
        inferred = infer_ecc(
            probe, seed=ladder_seed(self.run_seed, "beer", self.vendor))
        if self.ecc_fault:
            inferred = corrupt_inferred_ecc(
                inferred, self.ecc_fault,
                ladder_seed(self.run_seed, "ecc-fault"))
        report = validate_inference(
            probe, inferred,
            seed=ladder_seed(self.run_seed, "beer", "validate",
                             self.vendor))
        ok = check_ecc_inference(report, strict=False,
                                 context=self.label())
        object.__setattr__(self, "_ecc_degraded", not ok)
        return inferred if ok else None

    # -- degraded mode ------------------------------------------------

    def _dispatch(self) -> CampaignOutcome:
        outcome = super()._dispatch()
        if getattr(self, "_ecc_degraded", False):
            self._degrade(outcome)
        return outcome

    def _degrade(self, outcome: CampaignOutcome) -> None:
        """Fail closed after an unrecovered/corrupted inference.

        The campaign ran through the (distorted) lens; its detections
        cannot be trusted as raw-cell verdicts, so every one of them
        is quarantined and any robust verdicts are flagged degraded -
        :meth:`repro.robust.CellVerdicts.verdict` then caps cells at
        probabilistic instead of definite.
        """
        from ..robust.quarantine import QuarantineSet

        quarantine = outcome.quarantine or QuarantineSet()
        quarantine.update(sorted(outcome.detected), "ecc-unrecovered")
        outcome.quarantine = quarantine
        result = outcome.result
        if result is not None:
            result.quarantine = quarantine
            verdicts = getattr(result, "verdicts", None)
            if verdicts is not None:
                verdicts.degraded = True
        if obs.enabled():
            obs.event("ecc.degraded", label=self.label(),
                      detections=len(outcome.detected))
            obs.inc("profile.ecc.degraded")


# -- distortion analysis --------------------------------------------------

@dataclass
class EccDistortion:
    """How an ECC-lens campaign's view differs from the raw truth."""

    base_detected: int
    observed_detected: int
    hidden: int
    spurious: int
    base_distances: List[int]
    observed_distances: List[int]

    @property
    def hidden_fraction(self) -> float:
        if self.base_detected == 0:
            return 0.0
        return self.hidden / self.base_detected


def ecc_distortion(base: CampaignOutcome, ecc: CampaignOutcome
                   ) -> EccDistortion:
    """Compare an ECC-off ground-truth outcome with an ECC-on one.

    ``hidden`` counts raw failures the lens masked away, ``spurious``
    post-ECC detections with no raw counterpart (miscorrections the
    sweep caught).  For a successful ``"recover"`` outcome both are
    zero by construction.
    """
    raw = set(base.detected)
    observed = set(ecc.detected)
    return EccDistortion(
        base_detected=len(raw), observed_detected=len(observed),
        hidden=len(raw - observed), spurious=len(observed - raw),
        base_distances=list(base.distances),
        observed_distances=list(ecc.distances))


def format_distortion(dist: EccDistortion, base_label: str,
                      ecc_label: str) -> str:
    """Render the distortion comparison as a report table."""
    from ..analysis import format_table

    rows = [
        ["detected failures", str(dist.base_detected),
         str(dist.observed_detected)],
        ["hidden by ECC", "-",
         f"{dist.hidden} ({dist.hidden_fraction:.1%} of raw)"],
        ["spurious (miscorrections)", "-", str(dist.spurious)],
        ["distances", str(dist.base_distances),
         str(dist.observed_distances)],
    ]
    return format_table(["", base_label, ecc_label], rows)
