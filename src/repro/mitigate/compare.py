"""Side-by-side comparison of mitigation mechanisms on one chip.

Given one PARBOR campaign, report what each mechanism would cost and
cover - the system-level trade-off study that detection enables (the
paper's ref [35] runs this comparison on real chips; we run it on the
simulated ones):

* **ECC (SEC-DED)**: 12.5% storage overhead; covers words with at most
  one vulnerable cell.
* **Row retirement**: total coverage; costs the retired capacity.
* **DC-REF / RAIDR refresh binning**: no capacity cost; covers
  retention-class failures by refreshing vulnerable rows fast (rated
  here by the fraction of rows kept at the fast rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.detector import ParborResult
from ..dram.chip import DramChip
from .ecc import EccReport, ecc_coverage
from .retire import RetirementReport, row_retirement

__all__ = ["MitigationReport", "compare_mitigations"]


@dataclass
class MitigationRow:
    """One mechanism's coverage/overhead summary."""

    mechanism: str
    coverage: float
    overhead_kind: str
    overhead: float


@dataclass
class MitigationReport:
    """The full comparison for one chip."""

    rows: List[MitigationRow]
    ecc: EccReport
    retirement: RetirementReport

    def as_table_rows(self) -> List[List[str]]:
        return [[r.mechanism, f"{r.coverage:.1%}", r.overhead_kind,
                 f"{r.overhead:.1%}"] for r in self.rows]


def compare_mitigations(chip: DramChip, result: ParborResult
                        ) -> MitigationReport:
    """Build the mechanism comparison from a campaign's failure map.

    Args:
        chip: the characterised chip (for geometry).
        result: the PARBOR campaign against it.

    Returns:
        A :class:`MitigationReport`.
    """
    ecc = ecc_coverage(result.detected)
    retirement = row_retirement(result.detected, n_chips=1,
                                n_banks=chip.n_banks,
                                n_rows=chip.n_rows)
    vulnerable_row_fraction = (retirement.retired_rows
                               / max(1, retirement.total_rows))

    rows = [
        MitigationRow("ECC (SEC-DED 72,64)", ecc.coverage,
                      "storage", ecc.storage_overhead),
        MitigationRow("Row retirement", 1.0, "capacity",
                      retirement.capacity_overhead),
        MitigationRow("Refresh binning (RAIDR-style)", 1.0,
                      "fast-refresh rows", vulnerable_row_fraction),
    ]
    return MitigationReport(rows=rows, ecc=ecc, retirement=retirement)
