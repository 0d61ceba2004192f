"""High-level drivers for every evaluation experiment in the paper.

Each function regenerates one table or figure of the paper's Section 7
against the simulated chip fleet. The benchmarks under ``benchmarks/``
call these drivers and print paper-style rows; the examples use them
interactively. Figure 16 (DC-REF) lives in :mod:`repro.sim` /
:mod:`repro.dcref`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import ParborConfig
from ..core.baselines import random_pattern_test
from ..core.detector import ParborResult, controllers_for, run_parbor
from ..core.ranking import normalised_ranking
from ..dram.module import DramModule
from ..dram.vendors import make_module, vendor
from ..runtime.fleet import run_fleet
from ..runtime.specs import CampaignSpec

__all__ = [
    "ModuleComparison", "CoverageSplit", "recursion_for_vendor",
    "compare_module", "fleet_comparison", "fleet_specs",
    "coverage_split", "ranking_histogram", "sample_size_sweep",
    "temperature_sensitivity", "random_budget_sweep", "DEFAULT_N_ROWS",
]

#: Rows per simulated bank in the fleet experiments. The paper's chips
#: have 32 K rows; we scale down for tractable pure-Python runs - the
#: per-module failure counts scale accordingly (see EXPERIMENTS.md).
DEFAULT_N_ROWS = 128


def recursion_for_vendor(vendor_name: str, seed: int = 2016,
                         n_rows: int = DEFAULT_N_ROWS,
                         sample_size: int = 2000,
                         config: Optional[ParborConfig] = None,
                         rounds: int = 1,
                         noise=None) -> ParborResult:
    """Run PARBOR's neighbour search on one chip of a vendor.

    Drives Table 1 (tests per level) and Figure 11 (distances per
    level).

    Args:
        rounds: repeat-and-vote repetitions (``1`` = legacy).
        noise: optional :class:`repro.dram.faults.NoiseSpec` - injects
            a seeded device-noise model into every bank before the
            campaign (the Figure 14/15 robustness goldens).
    """
    profile = vendor(vendor_name)
    chip = profile.make_chip(seed=seed, n_rows=n_rows)
    if noise is not None:
        from ..dram.faults import DeviceNoiseModel
        from ..runtime.seeds import ladder_seed

        for bank_idx, bank in enumerate(chip.banks):
            bank.noise = DeviceNoiseModel(
                noise, n_rows=bank.n_rows, row_bits=bank.row_bits,
                seed=ladder_seed(seed, "device-noise", 0, bank_idx))
    cfg = config or ParborConfig(sample_size=sample_size)
    return run_parbor(chip, cfg, seed=seed + 1, run_sweep=False,
                      rounds=rounds)


@dataclass
class ModuleComparison:
    """PARBOR vs. equal-budget random test on one module (Figure 12)."""

    module_id: str
    budget: int
    parbor_failures: int
    random_failures: int
    parbor_only: int
    random_only: int
    both: int

    @property
    def extra_failures(self) -> int:
        return self.parbor_failures - self.random_failures

    @property
    def extra_percent(self) -> float:
        if self.random_failures == 0:
            return 0.0
        return 100.0 * self.extra_failures / self.random_failures


def compare_module(module: DramModule, seed: int = 0,
                   config: Optional[ParborConfig] = None,
                   rounds: int = 1
                   ) -> Tuple[ModuleComparison, ParborResult]:
    """Run the full PARBOR campaign and the equal-budget random test.

    ``rounds > 1`` runs PARBOR with the repeat-and-vote policy; the
    random baseline keeps the (now larger) equal budget.
    """
    cfg = config or ParborConfig(sample_size=4000)
    result = run_parbor(module, cfg, seed=seed, rounds=rounds)
    controllers = controllers_for(module)
    rng = np.random.default_rng(seed + 7919)
    rand = random_pattern_test(controllers, n_tests=max(1, result.total_tests),
                               rng=rng)
    p, r = result.detected, rand
    comparison = ModuleComparison(
        module_id=module.module_id, budget=result.total_tests,
        parbor_failures=len(p), random_failures=len(r),
        parbor_only=len(p - r), random_only=len(r - p), both=len(p & r))
    return comparison, result


def fleet_specs(modules_per_vendor: int, seed: int = 2016,
                n_rows: int = DEFAULT_N_ROWS,
                config: Optional[ParborConfig] = None,
                trace: bool = False,
                rounds: int = 1) -> List[CampaignSpec]:
    """Module-compare specs with the historical seed-draw order.

    The per-module seeds are drawn from one generator in the exact
    sequence the original serial loop used (build seed then run seed,
    vendors A/B/C outer, modules inner), so fleets stay byte-identical
    to the pre-runtime code for any ``jobs``.

    Args:
        trace: mark every spec for observability collection (the
            ``--trace``/``--metrics`` CLI path); results are identical
            either way.
        rounds: repeat-and-vote repetitions (``1`` = legacy).
    """
    rng = np.random.default_rng(seed)
    specs: List[CampaignSpec] = []
    for name in ("A", "B", "C"):
        for i in range(modules_per_vendor):
            build_seed = int(rng.integers(0, 2**63))
            run_seed = int(rng.integers(0, 2**31))
            specs.append(CampaignSpec(
                experiment="compare", vendor=name, index=i + 1,
                build_seed=build_seed, run_seed=run_seed,
                n_rows=n_rows, config=config, trace=trace,
                rounds=rounds))
    return specs


def fleet_comparison(modules_per_vendor: int = 6, seed: int = 2016,
                     n_rows: int = DEFAULT_N_ROWS,
                     config: Optional[ParborConfig] = None,
                     jobs: int = 1) -> List[ModuleComparison]:
    """Figure 12: extra failures across the whole 18-module fleet.

    Args:
        jobs: worker processes for the campaign fan-out; results are
            identical for every value (see :mod:`repro.runtime`).
    """
    specs = fleet_specs(modules_per_vendor, seed, n_rows, config)
    fleet = run_fleet(specs, jobs=jobs)
    return [o.comparison for o in fleet.outcomes]


@dataclass
class CoverageSplit:
    """Figure 13: who found which share of the union of failures."""

    module_id: str
    only_parbor: float
    only_random: float
    both: float

    @classmethod
    def from_comparison(cls, comparison: ModuleComparison
                        ) -> "CoverageSplit":
        union = comparison.parbor_only + comparison.random_only \
            + comparison.both
        if union == 0:
            return cls(comparison.module_id, 0.0, 0.0, 0.0)
        return cls(module_id=comparison.module_id,
                   only_parbor=comparison.parbor_only / union,
                   only_random=comparison.random_only / union,
                   both=comparison.both / union)


def coverage_split(seed: int = 2016, n_rows: int = DEFAULT_N_ROWS,
                   config: Optional[ParborConfig] = None,
                   jobs: int = 1) -> List[CoverageSplit]:
    """Figure 13 for the first module of each vendor (A1, B1, C1)."""
    fleet = run_fleet(fleet_specs(1, seed, n_rows, config), jobs=jobs)
    return [CoverageSplit.from_comparison(o.comparison)
            for o in fleet.outcomes]


def ranking_histogram(vendor_name: str, level: int = 4, seed: int = 2016,
                      n_rows: int = DEFAULT_N_ROWS,
                      sample_size: int = 2000, rounds: int = 1,
                      noise=None) -> Dict[int, float]:
    """Figure 14: normalised frequency of region distances at a level."""
    result = recursion_for_vendor(vendor_name, seed=seed, n_rows=n_rows,
                                  sample_size=sample_size, rounds=rounds,
                                  noise=noise)
    for lv in result.recursion.levels:
        if lv.level == level:
            return normalised_ranking(lv.reporters)
    raise ValueError(f"recursion never reached level {level}")


def sample_size_sweep(vendor_name: str, sample_sizes: Sequence[int],
                      level: int = 4, seed: int = 2016,
                      n_rows: int = 256, rounds: int = 1,
                      noise=None) -> Dict[int, Dict[int, float]]:
    """Figure 15: ranking histograms for several initial sample sizes.

    The same module is re-tested with progressively larger victim
    samples; small samples leave noise distances looking frequent.
    """
    out: Dict[int, Dict[int, float]] = {}
    for size in sample_sizes:
        result = recursion_for_vendor(vendor_name, seed=seed,
                                      n_rows=n_rows, sample_size=size,
                                      rounds=rounds, noise=noise)
        for lv in result.recursion.levels:
            if lv.level == level:
                out[size] = normalised_ranking(lv.reporters)
                break
        else:
            out[size] = {}
    return out


def temperature_sensitivity(vendor_name: str,
                            temperatures_c: Sequence[float] = (40.0, 45.0,
                                                               50.0),
                            seed: int = 2016,
                            n_rows: int = DEFAULT_N_ROWS,
                            sample_size: int = 2000):
    """Section 6's sensitivity study: PARBOR across temperatures.

    The paper runs at 45 degC with sensitivity tests at 40 and 50 degC
    and finds that the neighbour locations PARBOR determines are *not*
    temperature dependent (more cells fail when hotter, but they fail
    at the same distances). Returns ``{temperature: ParborResult}`` for
    the same chip re-tested at each temperature.
    """
    profile = vendor(vendor_name)
    chip = profile.make_chip(seed=seed, n_rows=n_rows)
    cfg = ParborConfig(sample_size=sample_size)
    results = {}
    for t in temperatures_c:
        chip.set_conditions(temperature_c=t)
        results[t] = run_parbor(chip, cfg, seed=seed + 1, run_sweep=False)
    chip.set_conditions()
    return results


def random_budget_sweep(vendor_name: str,
                        budget_multipliers: Sequence[float] = (1, 2, 4,
                                                               8, 16),
                        seed: int = 2016,
                        n_rows: int = DEFAULT_N_ROWS,
                        config: Optional[ParborConfig] = None):
    """How much budget must random testing burn to match PARBOR?

    The paper's Section 3 argues random-pattern testing "takes very
    long ... and makes it difficult to provide any guarantees". This
    driver runs PARBOR once, then gives the random test multiples of
    PARBOR's budget and reports the coverage of PARBOR's detected set
    it reaches at each multiple.

    Returns:
        ``(parbor_result, {multiplier: coverage_fraction})``.
    """
    from .experiments import DEFAULT_N_ROWS  # self-import guard
    profile = vendor(vendor_name)
    chip = profile.make_chip(seed=seed, n_rows=n_rows)
    cfg = config or ParborConfig(sample_size=2000)
    result = run_parbor(chip, cfg, seed=seed + 1)

    controllers = controllers_for(chip)
    rng = np.random.default_rng(seed + 7919)
    coverages: Dict[float, float] = {}
    found: set = set()
    spent = 0
    target = result.detected
    for multiplier in sorted(budget_multipliers):
        budget = int(round(multiplier * result.total_tests))
        extra = budget - spent
        if extra > 0:
            found |= random_pattern_test(controllers, n_tests=extra,
                                         rng=rng)
            spent = budget
        coverages[multiplier] = (len(found & target) / len(target)
                                 if target else 1.0)
    return result, coverages
