"""Failure-mitigation mechanisms enabled by PARBOR's failure maps.

The paper's Section 1 motivates system-level detection as the enabler
of "better scaling of DRAM by manufacturing smaller and unreliable
cells, but providing reliability guarantees by detecting and
mitigating failures at the system level" (its refs [6, 35, 47, 59,
62]). This subpackage implements the classic mitigation mechanisms its
ref [35] (Khan et al., SIGMETRICS 2014) compares - word-level ECC and
row retirement - on top of a PARBOR campaign's detected failure map,
plus a comparison driver that reports each mechanism's coverage and
overhead.
"""

from .compare import MitigationReport, compare_mitigations
from .ecc import CLASSES, EccReport, classify, ecc_coverage
from .retire import RetirementReport, row_retirement

__all__ = [
    "CLASSES", "EccReport", "MitigationReport", "RetirementReport",
    "classify", "compare_mitigations", "ecc_coverage", "row_retirement",
]
