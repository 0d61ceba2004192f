"""Executable specification of the DRAM substrate (test-side oracle).

The production substrate (:mod:`repro.dram.bank`,
:mod:`repro.dram.cells`) runs every hot operation once, as word-wise
kernels over bit-packed rows (``docs/KERNELS.md``).  This module is
the same semantics written the straight-line way, on dense per-cell
``uint8`` arrays: the original loops the packed kernels were derived
from.  It is a test fake, never a production option:

* **write** - :func:`write_rows` scrambles and polarity-inverts whole
  system-order rows; :func:`write_rows_patched` materialises the full
  background-plus-patches image and writes it wholesale;
* **decay** - :func:`evaluate_failures` decides every coupled victim
  from dense gathers of its victim, aggressor and context cells, with
  the same single ``rng.random(len(pop))`` draw as the packed
  evaluator;
* **read** - :func:`retention_read_rows` and
  :func:`retention_check_cells` apply each retention flip event to the
  dense read-back one by one (XOR semantics) and then force injected
  noise (union semantics).

:func:`oracle_substrate` patches these onto :class:`~repro.dram.Bank`
and :class:`~repro.dram.CoupledCellPopulation`, so a whole campaign can
run on the oracle::

    with oracle_substrate():
        expected = run_parbor(chip, cfg, seed=7)

The differential tests in ``tests/runtime`` require the packed engine
to match it bit for bit: charge state, read-back data, RNG
consumption and campaign signatures.

:func:`injected_cells` is the ground truth of a device-noise fault
plan, for the chaos suite's quarantine assertions.
"""

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

import numpy as np

from repro._kernels import WORD_BITS, pack_rows, unpack_rows
from repro.dram.bank import Bank
from repro.dram.cells import NO_NEIGHBOUR, CoupledCellPopulation

__all__ = ["write_rows", "write_rows_patched", "evaluate_failures",
           "retention_read_rows", "retention_check_cells",
           "oracle_substrate", "injected_cells"]


# -- write ----------------------------------------------------------------


def _store(bank: Bank, rows: np.ndarray, data_sys: np.ndarray) -> None:
    """Scramble + polarity-invert dense system-order rows, then store."""
    phys = data_sys[:, bank.mapping.phys_to_sys()]
    anti = bank.anti_rows[rows].astype(np.uint8)
    bank.charge_words[rows] = pack_rows(phys ^ anti[:, None])


def write_rows(bank: Bank, rows: np.ndarray, data_sys: np.ndarray) -> None:
    """Dense image of :meth:`Bank.write_rows` (1-D data broadcasts)."""
    rows = np.asarray(rows)
    data_sys = np.asarray(data_sys, dtype=np.uint8)
    if data_sys.ndim == 1:
        data_sys = np.broadcast_to(data_sys, (len(rows), bank.row_bits))
    _store(bank, rows, data_sys)


def write_rows_patched(bank: Bank, rows: np.ndarray, base: int,
                       spans: Optional[Tuple[np.ndarray, np.ndarray,
                                             int, int]] = None,
                       points: Optional[Tuple[np.ndarray, np.ndarray,
                                              int]] = None) -> None:
    """Dense image of :meth:`Bank.write_rows_patched`.

    Materialises the system-order data - ``base`` everywhere, spans
    next, points last - and writes it wholesale.
    """
    rows = np.asarray(rows)
    data = np.full((len(rows), bank.row_bits), base, dtype=np.uint8)
    if spans is not None:
        row_idx, starts, size, value = spans
        for r, s in zip(np.asarray(row_idx).tolist(),
                        np.asarray(starts).tolist()):
            data[r, s:s + size] = value
    if points is not None:
        row_idx, cols, value = points
        data[row_idx, cols] = value
    _store(bank, rows, data)


# -- decay ----------------------------------------------------------------


def evaluate_failures(pop: CoupledCellPopulation, charge: np.ndarray,
                      rng: np.random.Generator,
                      stress: float = 1.0) -> np.ndarray:
    """Which victims flip on a retention read of the given bank state.

    Args:
        pop: the coupled-cell population.
        charge: 2-D uint8 array ``(n_rows, row_bits)`` of cell
            *charge* states in physical order (1 = charged).
        rng: randomness source for the per-exposure coin flips.
        stress: retention stress of the read (1.0 = the paper's
            45 degC / 4 s test condition); victims whose
            ``min_stress`` exceeds it hold enough charge to ride
            out the interference.

    Returns:
        Boolean mask over the population: True where the victim's
        stored value is corrupted by this read.
    """
    v = charge[pop.row, pop.phys]
    left_ok = pop.left_phys != NO_NEIGHBOUR
    right_ok = pop.right_phys != NO_NEIGHBOUR
    l_charge = np.ones(len(pop), dtype=np.uint8)
    r_charge = np.ones(len(pop), dtype=np.uint8)
    l_charge[left_ok] = charge[pop.row[left_ok],
                               pop.left_phys[left_ok]]
    r_charge[right_ok] = charge[pop.row[right_ok],
                                pop.right_phys[right_ok]]

    interference = (pop.w_left * ((v == 1) & (l_charge == 0))
                    + pop.w_right * ((v == 1) & (r_charge == 0)))
    candidate = interference >= 1.0

    # Context condition: every present context cell must hold the
    # victim's charge (no shielding of the victim bitline).
    ctx_ok = np.ones(len(pop), dtype=bool)
    for j in range(pop.context.shape[1]):
        pos = pop.context[:, j]
        present = pos != NO_NEIGHBOUR
        if not present.any():
            continue
        same = np.ones(len(pop), dtype=bool)
        same[present] = (charge[pop.row[present], pos[present]]
                         == v[present])
        ctx_ok &= same

    exposed = (candidate & ctx_ok & (pop.min_stress <= stress)
               & (rng.random(len(pop)) < pop.p_fail))
    return exposed


def _evaluate_packed_state(pop: CoupledCellPopulation,
                           charge_words: np.ndarray,
                           rng: np.random.Generator,
                           stress: float = 1.0) -> np.ndarray:
    """:func:`evaluate_failures` behind the production signature.

    Unpacks the whole word width; the tail bits past ``row_bits`` are
    zero and no victim reads them.
    """
    charge = unpack_rows(charge_words, charge_words.shape[1] * WORD_BITS)
    return evaluate_failures(pop, charge, rng, stress=stress)


# -- read -----------------------------------------------------------------


def _read_back(bank: Bank, rows: np.ndarray, coupled_rows_only: bool
               ) -> Tuple[np.ndarray, np.ndarray]:
    """One retention wait over ``rows``: ``(written, observed)`` data.

    Both arrays are dense system-order ``(len(rows), row_bits)``.  Flip
    events toggle their cell one at a time (an even count cancels);
    injected noise then forces its cells to the opposite of the
    written value, whatever the flips did.
    """
    f_rows, f_cols, n_rows, n_cols = bank._observed_errors(
        visible_rows=rows if coupled_rows_only else None)
    data_phys = bank.charge[rows] ^ bank.anti_rows[
        rows, None].astype(np.uint8)
    written = data_phys[:, bank.mapping.sys_to_phys()]
    observed = written.copy()
    row_pos = {int(r): i for i, r in enumerate(rows)}
    for r, c in zip(f_rows, f_cols):
        i = row_pos.get(int(r))
        if i is not None:
            observed[i, c] ^= 1
    for r, c in zip(n_rows, n_cols):
        i = row_pos.get(int(r))
        if i is not None:
            observed[i, c] = written[i, c] ^ 1
    return written, observed


def retention_read_rows(bank: Bank, rows: np.ndarray,
                        coupled_rows_only: bool = False) -> np.ndarray:
    """Dense image of :meth:`Bank.retention_read_rows`."""
    rows = np.asarray(rows)
    return _read_back(bank, rows, coupled_rows_only)[1]


def retention_check_cells(bank: Bank, rows: np.ndarray,
                          check_row_idx: np.ndarray,
                          check_cols: np.ndarray,
                          coupled_rows_only: bool = False) -> np.ndarray:
    """Dense image of :meth:`Bank.retention_check_cells`.

    Reads the rows back in full and compares the checked cells with
    what was written.
    """
    rows = np.asarray(rows)
    written, observed = _read_back(bank, rows, coupled_rows_only)
    return (observed[check_row_idx, check_cols]
            != written[check_row_idx, check_cols])


# -- campaign-level switch -----------------------------------------------


_PATCHES = (
    (Bank, "write_rows", write_rows),
    (Bank, "write_rows_patched", write_rows_patched),
    (Bank, "retention_read_rows", retention_read_rows),
    (Bank, "retention_check_cells", retention_check_cells),
    (CoupledCellPopulation, "evaluate_failures", _evaluate_packed_state),
)


@contextmanager
def oracle_substrate() -> Iterator[None]:
    """Run the substrate on the oracle for the duration of the block.

    Every bank write, coupled-cell decay and retention read - including
    the ones :meth:`Bank.write_all`, :meth:`Bank.retention_failures`
    and :meth:`Bank.retention_read_all` make - goes through the dense
    formulations above.  In-process only: worker processes started
    inside the block do not inherit the patch on spawn-start
    platforms.
    """
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in _PATCHES]
    for cls, name, fn in _PATCHES:
        setattr(cls, name, fn)
    try:
        yield
    finally:
        for cls, name, fn in saved:
            setattr(cls, name, fn)


# -- device-noise ground truth ---------------------------------------------


def injected_cells(spec) -> set:
    """Every cell a spec's device-noise plan injects, as sweep coords.

    Rebuilds the per-bank noise models (cheap - position draws only)
    and maps their physical columns through each bank's address
    scrambling, yielding ``(chip, bank, row, sys_col)`` tuples
    comparable with campaign detections.
    """
    from repro.dram.vendors import make_module, vendor

    noise = spec.faults.noise
    if noise is None or noise.empty:
        return set()
    if spec.experiment == "characterize":
        chips = [vendor(spec.vendor).make_chip(seed=spec.build_seed,
                                               n_rows=spec.n_rows)]
    else:
        chips = list(make_module(spec.vendor, spec.index,
                                 seed=spec.build_seed,
                                 n_rows=spec.n_rows).chips)
    spec.faults.attach_noise(chips)
    coords = set()
    for chip_idx, chip in enumerate(chips):
        for bank_idx, bank in enumerate(chip.banks):
            rows, phys = bank.noise.cells()
            sys_cols = bank.mapping.phys_to_sys()[phys]
            coords.update(
                (chip_idx, bank_idx, int(r), int(c))
                for r, c in zip(rows.tolist(), sys_cols.tolist()))
    return coords
