"""On-die ECC: the lens between the substrate and every observation.

Modern DRAM devices scrub each read through an internal SEC-DED code,
so a system-level profiler like PARBOR never sees the raw cell array -
it sees the post-correction view, with single-bit data-dependent
failures masked and multi-bit patterns occasionally *miscorrected*
onto healthy cells.  This package models that lens bit-exactly and
then recovers the view back:

* :mod:`repro.ecc.secded` - the (72,64) extended-Hamming SEC-DED code
  type (overall-parity row carries the double-error detection): the
  device's secret code and a BEER-recovered one alike, each 64 data
  columns with one packed decode of data-bit error masks.
* :mod:`repro.ecc.ondie` - the per-bank read-path stage
  (:class:`OnDieEcc`) in lens, recovery, and null-code modes.
* :mod:`repro.ecc.beer` - BEER-style inference of the secret
  parity-check matrix from carefully chosen data backgrounds plus
  miscorrection observations, and its held-out validation.
* :mod:`repro.ecc.spec` - :class:`EccCampaignSpec`, the campaign
  integration (``repro characterize --ecc`` / ``--ecc-recover``) and
  the distortion analysis comparing ECC-on and ECC-off outcomes.
"""

from .beer import (EccInferenceReport, InferredEcc, beer_backgrounds,
                   infer_ecc, validate_inference)
from .ondie import COMPANION_PASSES, OnDieEcc, attach_on_die_ecc
from .secded import CLEAN, CORRECTED, DETECTED, HammingSecDed
from .spec import (ECC_MODES, EccCampaignSpec, EccDistortion,
                   ecc_distortion, format_distortion)

__all__ = [
    "CLEAN", "CORRECTED", "DETECTED", "COMPANION_PASSES", "ECC_MODES",
    "EccCampaignSpec", "EccDistortion", "EccInferenceReport",
    "HammingSecDed", "InferredEcc", "OnDieEcc", "attach_on_die_ecc",
    "beer_backgrounds", "ecc_distortion",
    "format_distortion", "infer_ecc", "validate_inference",
]
