"""Non-data-dependent failure injectors.

PARBOR must distinguish data-dependent failures from failures with
other root causes (paper Section 5.2.1/5.2.4): soft errors, variable
retention time (VRT) cells, and marginal cells that barely hold their
charge across a refresh interval. These populations are what make the
ranking/filtering stage non-trivial, and they produce the infrequent
noise distances in Figures 14-15.

All injectors act on the cells' *charge* at retention-read time; they
are polarity-symmetric except where the underlying physics is not
(weak/VRT/marginal cells lose charge, so only charged cells fail).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["FaultSpec", "RandomFaultModel", "NoiseSpec",
           "DeviceNoiseModel", "ForcedFlipNoise"]

#: Separates a noise model's coin stream from other streams of its
#: seed: the coins come from ``default_rng([seed, COIN_TAG])``.
COIN_TAG = 0xC01


class ForcedFlipNoise:
    """Deterministic read-time forced corruption at fixed cells.

    The probe injector of the BEER harness (:mod:`repro.ecc.beer`) and
    of the on-die-ECC recovery passes: every retention read of the
    bank sees exactly these ``(row, phys_col)`` cells read back
    corrupted, with the same union semantics as
    :class:`DeviceNoiseModel` - written data (and hence the
    data-dependent failure pattern) is untouched.  Stateless: no RNG,
    no activation clock, so attaching it never perturbs the bank's
    seeded streams.
    """

    def __init__(self, rows: np.ndarray, phys_cols: np.ndarray) -> None:
        self.rows = np.asarray(rows, dtype=np.int64)
        self.phys_cols = np.asarray(phys_cols, dtype=np.int64)

    def reseed_coins(self, coins: np.random.Generator) -> None:
        """No coin stream to reseed (kept for noise-model duck type)."""

    def cells(self):
        return self.rows, self.phys_cols

    def flips(self):
        return self.rows, self.phys_cols


@dataclass(frozen=True)
class FaultSpec:
    """Rates and population sizes for non-data-dependent failures.

    Attributes:
        soft_error_rate: probability that any given cell suffers a
            random transient flip during one retention read of its
            bank. Applied with a Poisson draw over the bank.
        n_vrt_cells: number of VRT cells in the bank. Each VRT cell is
            a two-state random telegraph process; in the leaky state a
            charged cell fails the retention read.
        vrt_toggle_prob: per-read probability that a VRT cell switches
            between its retention states.
        vrt_leaky_start_fraction: fraction of VRT cells that begin in
            the leaky state.
        n_marginal_cells: number of marginal cells; each fails a
            retention read (while charged) with ``marginal_fail_prob``.
        marginal_fail_prob: per-read failure probability of a marginal
            cell.
        vrt_marginal_threshold_range: log-uniform range of the stress
            at which a VRT or marginal cell's weakness manifests.
            These cells are marginal *around the elevated test
            condition* (stress 1.0), so most are quiet at operational
            refresh intervals - but a small tail stays active there,
            which is AVATAR's motivation (paper ref [62]).
        n_weak_cells: number of content-independent *weak cells* - low
            retention cells that fail (while charged) whenever the
            retention stress reaches their threshold, regardless of
            neighbour content (paper Section 5.2.1, its ref [47]).
            These are what RAIDR's retention profiling bins rows by.
        weak_threshold_range: log-uniform range of the weak cells'
            failure stress (1.0 = the 45 degC / 4 s test condition;
            a 256 ms operational interval is stress 0.064).
    """

    soft_error_rate: float = 1e-8
    n_vrt_cells: int = 0
    vrt_toggle_prob: float = 0.05
    vrt_leaky_start_fraction: float = 0.5
    n_marginal_cells: int = 0
    marginal_fail_prob: float = 0.5
    n_weak_cells: int = 0
    weak_threshold_range: tuple = (0.01, 1.0)
    vrt_marginal_threshold_range: tuple = (0.05, 1.0)

    def __post_init__(self) -> None:
        if self.soft_error_rate < 0:
            raise ValueError("soft_error_rate must be non-negative")
        if not 0 <= self.marginal_fail_prob <= 1:
            raise ValueError("marginal_fail_prob must be a probability")
        if not 0 <= self.vrt_toggle_prob <= 1:
            raise ValueError("vrt_toggle_prob must be a probability")
        lo, hi = self.weak_threshold_range
        if not 0 < lo <= hi:
            raise ValueError("weak_threshold_range must be positive and "
                             "ordered")


class RandomFaultModel:
    """Stateful injector of soft errors, VRT, and marginal failures."""

    def __init__(self, spec: FaultSpec, n_rows: int, row_bits: int,
                 rng: np.random.Generator) -> None:
        self.spec = spec
        self.n_rows = n_rows
        self.row_bits = row_bits
        self._rng = rng
        self.vrt_row = rng.integers(0, n_rows, size=spec.n_vrt_cells)
        self.vrt_phys = rng.integers(0, row_bits, size=spec.n_vrt_cells)
        self.vrt_leaky = (rng.random(spec.n_vrt_cells)
                          < spec.vrt_leaky_start_fraction)
        self.marginal_row = rng.integers(0, n_rows,
                                         size=spec.n_marginal_cells)
        self.marginal_phys = rng.integers(0, row_bits,
                                          size=spec.n_marginal_cells)
        v_lo, v_hi = spec.vrt_marginal_threshold_range
        self.vrt_threshold = np.exp(rng.uniform(
            np.log(v_lo), np.log(v_hi), size=spec.n_vrt_cells))
        self.marginal_threshold = np.exp(rng.uniform(
            np.log(v_lo), np.log(v_hi), size=spec.n_marginal_cells))
        self.weak_row = rng.integers(0, n_rows, size=spec.n_weak_cells)
        self.weak_phys = rng.integers(0, row_bits,
                                      size=spec.n_weak_cells)
        lo, hi = spec.weak_threshold_range
        self.weak_threshold = np.exp(rng.uniform(np.log(lo), np.log(hi),
                                                 size=spec.n_weak_cells))

    def cells(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """``(rows, phys)`` of the weak, VRT and marginal populations."""
        return ((self.weak_row, self.weak_phys),
                (self.vrt_row, self.vrt_phys),
                (self.marginal_row, self.marginal_phys))

    def draw(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The draws of one retention read, all charge-independent.

        Consumes the stream in a fixed order - the soft-error Poisson
        count and positions, the VRT toggles (applied to
        :attr:`vrt_leaky`), the marginal coins - and returns
        ``(soft_flat, vrt_leaky, marginal_coin)``, where ``soft_flat``
        holds flat ``row * row_bits + phys`` cells; :meth:`hits`
        decides the rest from the cells' charge.
        Draw nothing for a disabled population: a zero-rate spec must
        consume zero RNG state per read so that chips with noise
        populations switched off share the coupled-cell coin stream
        of a noise-free chip bit for bit.
        """
        rng = self._rng
        soft = np.empty(0, dtype=np.int64)
        if self.spec.soft_error_rate > 0:
            n_cells = self.n_rows * self.row_bits
            n_soft = rng.poisson(self.spec.soft_error_rate * n_cells)
            if n_soft:
                soft = rng.integers(0, n_cells, size=n_soft)
        if len(self.vrt_row):
            toggle = rng.random(len(self.vrt_row)) < self.spec.vrt_toggle_prob
            self.vrt_leaky = self.vrt_leaky ^ toggle
        coin = np.empty(0)
        if len(self.marginal_row):
            coin = rng.random(len(self.marginal_row))
        return soft, self.vrt_leaky, coin

    def hits(self, stress: float, charged, leaky: np.ndarray,
             coin: np.ndarray, sel=(slice(None),) * 3
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weak, VRT and marginal failure masks of one or more reads.

        Args:
            stress: retention stress of the read(s).
            charged: per population (weak, VRT, marginal), the bool
                charge of the selected cells - any leading axes (one
                per read) broadcast.
            leaky / coin: :meth:`draw` outputs restricted to the
                selected VRT / marginal cells, same leading axes.
            sel: per population, the selected cells (index arrays or
                slices into the population).
        """
        w_sel, v_sel, m_sel = sel
        weak = (self.weak_threshold[w_sel] <= stress) & charged[0]
        vrt = leaky & (self.vrt_threshold[v_sel] <= stress) & charged[1]
        marginal = ((coin < self.spec.marginal_fail_prob)
                    & (self.marginal_threshold[m_sel] <= stress)
                    & charged[2])
        return weak, vrt, marginal


@dataclass(frozen=True)
class NoiseSpec:
    """Injected device-noise populations for substrate chaos runs.

    Unlike :class:`FaultSpec` (the substrate's intrinsic noise, which
    rides the bank RNG), these populations model *injected* disturbance
    for robustness experiments: they draw from their own seeded RNG so
    switching them on never perturbs the data-dependent failure
    evaluation, and they corrupt the read-back unconditionally
    (content-independent forced corruption) so noise can only **add**
    observed failures, never mask one.

    Attributes:
        n_vrt_cells: injected VRT cells; each corrupts a retention read
            with ``vrt_fail_prob`` once active.
        vrt_fail_prob: per-read corruption probability of an injected
            VRT cell.
        n_marginal_cells: injected marginal cells.
        marginal_fail_prob: per-read corruption probability of an
            injected marginal cell.
        soft_error_rate: per-cell probability of a transient injected
            flip per retention read (Poisson over the bank).
        active_after: number of retention reads of the bank before the
            injected populations switch on - lets a schedule strike
            mid-campaign rather than from the first read.
    """

    n_vrt_cells: int = 0
    vrt_fail_prob: float = 1.0
    n_marginal_cells: int = 0
    marginal_fail_prob: float = 0.8
    soft_error_rate: float = 0.0
    active_after: int = 0

    def __post_init__(self) -> None:
        for name in ("vrt_fail_prob", "marginal_fail_prob"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be a probability")
        if self.soft_error_rate < 0:
            raise ValueError("soft_error_rate must be non-negative")
        if self.active_after < 0:
            raise ValueError("active_after must be non-negative")

    @property
    def empty(self) -> bool:
        return (self.n_vrt_cells == 0 and self.n_marginal_cells == 0
                and self.soft_error_rate == 0)


class DeviceNoiseModel:
    """Seeded injector of mid-campaign device noise (substrate chaos).

    Two RNG streams keep the injection orthogonal to the device model:
    *positions* are drawn once from the base seed (so the injected cell
    set is the schedule's ground truth, exposed via :meth:`cells`), and
    *coins* come from a separate stream that the robust sweep reseeds
    per (pass, round) via :meth:`reseed_coins`, making every read's
    corruption a pure function of ``(seed, round)`` rather than of
    scheduling order.
    """

    def __init__(self, spec: NoiseSpec, n_rows: int, row_bits: int,
                 seed: int) -> None:
        self.spec = spec
        self.n_rows = n_rows
        self.row_bits = row_bits
        self.seed = seed
        pos_rng = np.random.default_rng([seed, 0x705])
        self.vrt_row = pos_rng.integers(0, n_rows,
                                        size=spec.n_vrt_cells)
        self.vrt_phys = pos_rng.integers(0, row_bits,
                                         size=spec.n_vrt_cells)
        self.marginal_row = pos_rng.integers(0, n_rows,
                                             size=spec.n_marginal_cells)
        self.marginal_phys = pos_rng.integers(0, row_bits,
                                              size=spec.n_marginal_cells)
        self._coin_rng = np.random.default_rng([seed, COIN_TAG])
        #: retention reads of the bank seen so far (activation clock).
        self.reads = 0

    def reseed_coins(self, coins: np.random.Generator) -> None:
        """Restart the coin stream from ``coins`` (positions and clock
        are kept).  A model seeded ``seed`` starts from
        ``default_rng([seed, COIN_TAG])``."""
        self._coin_rng = coins

    def cells(self) -> Tuple[np.ndarray, np.ndarray]:
        """Ground truth: ``(rows, phys_cols)`` of all injected cells."""
        rows = np.concatenate([self.vrt_row, self.marginal_row])
        phys = np.concatenate([self.vrt_phys, self.marginal_phys])
        return rows.astype(np.int64), phys.astype(np.int64)

    def flips(self) -> Tuple[np.ndarray, np.ndarray]:
        """Injected corruptions for one retention read of the bank.

        Returns ``(rows, phys_cols)`` of cells whose read-back is
        force-corrupted (union semantics - the caller must OR these
        into the observed failures, never XOR them with other flips).
        """
        self.reads += 1
        empty = np.empty(0, dtype=np.int64)
        if self.spec.empty or self.reads <= self.spec.active_after:
            return empty, empty
        rng = self._coin_rng
        rows_list = []
        cols_list = []
        if len(self.vrt_row):
            hit = rng.random(len(self.vrt_row)) < self.spec.vrt_fail_prob
            rows_list.append(self.vrt_row[hit])
            cols_list.append(self.vrt_phys[hit])
        if len(self.marginal_row):
            hit = (rng.random(len(self.marginal_row))
                   < self.spec.marginal_fail_prob)
            rows_list.append(self.marginal_row[hit])
            cols_list.append(self.marginal_phys[hit])
        if self.spec.soft_error_rate > 0:
            n_cells = self.n_rows * self.row_bits
            n_soft = rng.poisson(self.spec.soft_error_rate * n_cells)
            if n_soft:
                flat = rng.integers(0, n_cells, size=n_soft)
                rows_list.append(flat // self.row_bits)
                cols_list.append(flat % self.row_bits)
        if not rows_list:
            return empty, empty
        return (np.concatenate(rows_list).astype(np.int64),
                np.concatenate(cols_list).astype(np.int64))
