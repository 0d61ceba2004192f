"""The system-level memory controller interface PARBOR drives.

In the paper, PARBOR runs on a host PC and talks to DRAM through an
FPGA memory controller: it can only write data at *system* addresses,
wait out a refresh interval, and read the data back. This class is
that interface, plus the bookkeeping a test campaign needs (test
counts and estimated wall-clock time, used to report the paper's
appendix numbers).

One *test* = write a pattern, wait one retention interval, read back
and compare (paper Section 2.3, "Manufacturing Tests"). Rows tested in
different banks/rows simultaneously still count as one test - that
parallelism is PARBOR's second key idea.

When a bank carries an on-die ECC stage (:class:`repro.ecc.OnDieEcc`),
every retention read the controller issues returns the
*post-correction* view: single-bit failures are masked, multi-bit
patterns may be miscorrected onto healthy cells, and injected
miscorrections are indistinguishable from real flips at this
interface - exactly the visibility a system-level tester has against
a modern device.  See ``docs/ECC.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Tuple

import numpy as np

from .. import obs
from .chip import DramChip
from .timing import DDR3_1600, DramTiming

__all__ = ["MemoryController", "TestStats"]


@dataclass
class TestStats:
    """Counters for a test campaign against one chip."""

    tests: int = 0
    rows_written: int = 0
    rows_read: int = 0
    retention_waits: int = 0
    _timing: DramTiming = field(default_factory=lambda: DDR3_1600)

    def estimated_time_ns(self, row_bytes: int = 1024) -> float:
        """Rough wall-clock estimate of the campaign.

        Each retention wait costs one refresh interval; each row write
        or read costs one full-row access (appendix arithmetic).
        """
        t_row = self._timing.full_row_access_ns(row_bytes=row_bytes)
        wait_ns = (self.retention_waits
                   * self._timing.refresh_interval_ms * 1e6)
        return wait_ns + (self.rows_written + self.rows_read) * t_row

    @classmethod
    def merge(cls, stats: Iterable["TestStats"]) -> "TestStats":
        """Sum counters over several campaigns into a fresh record.

        This is the aggregation primitive fleet campaigns use: each
        worker process accumulates its own per-chip counters, and the
        parent merges the (pickled) records instead of relying on
        in-place mutation of shared state.  Timing parameters are
        taken from the first record (fleets are homogeneous).
        """
        merged: Optional[TestStats] = None
        for s in stats:
            if merged is None:
                merged = cls(_timing=s._timing)
            merged.tests += s.tests
            merged.rows_written += s.rows_written
            merged.rows_read += s.rows_read
            merged.retention_waits += s.retention_waits
        return merged if merged is not None else cls()

    def __add__(self, other: "TestStats") -> "TestStats":
        """Merged copy of two counter records (timing from ``self``)."""
        return TestStats.merge([self, other])


class MemoryController:
    """System-address access to one DRAM chip, with test accounting."""

    def __init__(self, chip: DramChip,
                 timing: Optional[DramTiming] = None) -> None:
        self.chip = chip
        self.timing = timing or DDR3_1600
        self.stats = TestStats(_timing=self.timing)

    @property
    def row_bits(self) -> int:
        return self.chip.row_bits

    @property
    def n_rows(self) -> int:
        return self.chip.n_rows

    @property
    def n_banks(self) -> int:
        return self.chip.n_banks

    # -- raw access ------------------------------------------------------

    def write_row(self, bank: int, row: int, data_sys: np.ndarray) -> None:
        """Write one row (system-order bits)."""
        self.chip.bank(bank).write_row(row, data_sys)
        self.stats.rows_written += 1

    def write_rows(self, bank: int, rows: np.ndarray,
                   data_sys: np.ndarray) -> None:
        """Write several rows; ``data_sys`` broadcasts if 1-D."""
        self.chip.bank(bank).write_rows(rows, data_sys)
        self.stats.rows_written += len(rows)

    def fill(self, data_sys: np.ndarray) -> None:
        """Write every row of every bank with the same pattern."""
        for bank in self.chip.banks:
            bank.write_all(data_sys)
            self.stats.rows_written += bank.n_rows

    def read_row(self, bank: int, row: int) -> np.ndarray:
        """Immediate read (no retention wait, no failures)."""
        self.stats.rows_read += 1
        return self.chip.bank(bank).read_row(row)

    # -- tests -------------------------------------------------------------

    def _account_test(self, rows: int, tests: int = 1) -> None:
        self.stats.rows_written += rows
        self.stats.retention_waits += tests
        self.stats.tests += tests
        self.stats.rows_read += rows

    def _run_test(self, kind: str, rows: int,
                  write: Callable[[], Any],
                  read: Callable[[Any], Any],
                  tests: int = 1, **where: int) -> Any:
        """Run ``tests`` write -> wait -> read tests, traced when obs is on.

        ``read`` receives what ``write`` returned; the tests write and
        read ``rows`` rows in all.  The untraced branch is the exact
        pre-observability sequence; the traced branch wraps the same
        calls in one ``test`` span (``kind``, ``rows`` - the rows each
        test writes, their mean when the tests differ - ``tests`` and
        the ``where`` attributes - ``bank`` or ``banks`` - with
        ``phase.*`` children) and feeds the engine wall-time
        histogram.  Accounting and RNG draw order are identical on
        both branches.
        """
        sess = obs.active()
        if sess is None:
            written = write()
            self._account_test(rows, tests)
            return read(written)
        tracer = sess.tracer
        t0 = time.perf_counter()
        per_test = rows // tests if rows % tests == 0 else rows / tests
        with tracer.span("test", kind=kind, rows=per_test, tests=tests,
                         **where):
            with tracer.span("phase.write"):
                written = write()
            with tracer.span(
                    "phase.wait",
                    retention_ms=self.timing.refresh_interval_ms):
                pass  # the retention wait is simulated, not slept
            with tracer.span("phase.read"):
                observed = read(written)
        self._account_test(rows, tests)
        sess.metrics.observe("io.test_ms",
                             (time.perf_counter() - t0) * 1e3)
        return observed

    def test_rows(self, bank: int, rows: np.ndarray,
                  data_sys: np.ndarray) -> np.ndarray:
        """One test over specific rows of one bank.

        Writes ``data_sys`` (2-D per-row, or 1-D broadcast) to ``rows``,
        waits one retention interval, and returns the observed data.
        Counts as one test regardless of how many rows run in parallel.
        """
        rows = np.asarray(rows)
        b = self.chip.bank(bank)
        return self._run_test(
            "rows", len(rows), lambda: b.write_rows(rows, data_sys),
            lambda _: b.retention_read_rows(rows), bank=bank)

    def test_regions(self, bank: int, rows: np.ndarray,
                     victims: Tuple[np.ndarray, np.ndarray],
                     starts: np.ndarray, size: int,
                     coupled_rows_only: bool = False,
                     reseed: Optional[Callable[[int], None]] = None
                     ) -> np.ndarray:
        """T recursive region tests on one bank, as one batched kernel.

        Region test ``t`` is a pattern/inverse pair over ``rows``.  The
        pattern holds 1 everywhere in system order, 0 in each covered
        victim's tested region, and 1 at every victim (so only that
        region can disturb it); the inverse is its complement.  The
        tests only write rows and never read each other's results, so
        all 2T writes are described at once
        (:meth:`~repro.dram.bank.Bank.write_rows_patched` with a test
        axis) and all 2T retention waits evaluated in one
        :meth:`~repro.dram.bank.Bank.retention_check_cells` call, with
        the bank's RNG draws in the order 2T single tests make them.
        Accounting is 2T tests over the rows each test writes; a
        traced run records one ``test`` span with ``tests=2T``.

        Args:
            bank: bank index.
            rows: bank rows hosting the victims.
            victims: ``(row_idx, cols)`` - victim ``i`` is the cell at
                system column ``cols[i]`` of ``rows[row_idx[i]]``.
            starts: ``(T, n_victims)`` system column where test ``t``'s
                region for victim ``i`` starts, negative where test
                ``t`` does not cover victim ``i``.
            size: region size in bits.
            coupled_rows_only: run every test as a re-vote: it involves
                only the victims it covers - it writes and reads only
                their rows, sets only their bits, and draws coins only
                for those rows' coupled cells (re-vote streams only; see
                :meth:`~repro.dram.bank.Bank.retention_check_cells`).
                Without it every test writes and reads all ``rows``.
            reseed: optional ``reseed(t)``, called just before region
                test ``t`` draws (the re-vote seed ladder).

        Returns:
            Bool ``(T, n_victims)``: True where a covered victim read
            back corrupted in the pattern or the inverse test.
        """
        rows = np.asarray(rows)
        starts = np.asarray(starts, dtype=np.int64)
        row_idx, cols = victims
        covered = starts >= 0
        n_victims = covered.shape[1]
        point_row, written = row_idx, None
        if coupled_rows_only:
            # Only the covered victims take part, each test with its
            # own; rows hosting none of them are never written.
            live = np.flatnonzero(covered.any(axis=0))
            used, row_idx = np.unique(row_idx[live], return_inverse=True)
            rows, cols = rows[used], cols[live]
            starts, covered = starts[:, live], covered[:, live]
            point_row = np.where(covered, row_idx, -1)
            written = np.zeros((2 * len(starts), len(rows)), dtype=bool)
            tt, vv = np.nonzero(covered)
            written[2 * tt, row_idx[vv]] = True
            written[1::2] = written[0::2]
        n_tests = 2 * len(starts)
        base = np.tile(np.array([1, 0], dtype=np.uint8), len(starts))
        all_rows = np.tile(rows, n_tests)
        if written is not None:
            all_rows = all_rows[written.ravel()]
        b = self.chip.bank(bank)
        spans = (np.repeat(np.where(covered, row_idx, -1).astype(np.int32),
                           2, axis=0),
                 np.repeat(starts.astype(np.int32), 2, axis=0), size,
                 1 - base)
        points = (point_row if point_row.ndim == 1
                  else np.repeat(point_row, 2, axis=0), cols, base)
        wait_reseed = None if reseed is None else (
            lambda w: None if w % 2 else reseed(w // 2))
        flips = self._run_test(
            "regions", len(all_rows),
            lambda: b.write_rows_patched(all_rows, base, spans=spans,
                                         points=points, written=written),
            lambda images: b.retention_check_cells(
                all_rows, row_idx, cols,
                coupled_rows_only=coupled_rows_only, images=images,
                reseed=wait_reseed),
            tests=n_tests, bank=bank)
        failed = (flips[0::2] | flips[1::2]) & covered
        if coupled_rows_only:
            out = np.zeros((len(starts), n_victims), dtype=bool)
            out[:, live] = failed
            failed = out
        return failed

    def test_patterns(self, data_sys: np.ndarray,
                      reseed: Optional[Callable[[int, int], None]] = None
                      ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """T whole-chip tests, as one batched kernel per bank.

        Test ``t`` writes its pattern to every row of every bank, waits
        one retention interval and reads every row back.  The tests
        only write rows and never read each other's results, and banks
        have independent RNG streams, so each bank runs its T tests in
        one go: :meth:`~repro.dram.bank.Bank.write_all` with a test
        axis describes all T images, and one
        :meth:`~repro.dram.bank.Bank.retention_failures` call evaluates
        all T waits with the bank's RNG draws in the order T single
        tests make them (``docs/KERNELS.md`` section 4).  Accounting is
        T tests over every row of every bank; a traced run records one
        ``test`` span with ``tests=T``.

        Args:
            data_sys: ``(T, row_bits)`` - one system-order pattern per
                test, written to every row - or ``(T, n_rows,
                row_bits)`` per-row patterns.
            reseed: optional ``reseed(bank_idx, t)``, called just
                before test ``t`` draws on bank ``bank_idx`` (the robust
                sweep's per-round seed ladder).

        Returns:
            Per bank, ``(tests, rows, sys_cols)`` of every failing
            coordinate, grouped by test; each test's coordinates are
            in the order (and with the multiplicity) a single read
            reports them.
        """
        data_sys = np.asarray(data_sys, dtype=np.uint8)
        if data_sys.ndim == 2:
            data_sys = data_sys[:, None, :]
        banks = self.chip.banks

        def bank_reseed(b: int) -> Optional[Callable[[int], None]]:
            if reseed is None:
                return None
            return lambda t: reseed(b, t)

        return self._run_test(
            "pattern" if data_sys.shape[1] == 1 else "pattern_per_row",
            sum(bank.n_rows for bank in banks) * len(data_sys),
            lambda: [bank.write_all(data_sys) for bank in banks],
            lambda images: [
                bank.retention_failures(img, bank_reseed(b))
                for b, (bank, img) in enumerate(zip(banks, images))],
            tests=len(data_sys), banks=len(banks))

    def test_pattern(self, data_sys: np.ndarray
                     ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """One whole-chip test with a single row pattern, or per-row ones.

        Writes the pattern (1-D) to every row of every bank, or row
        ``r``'s pattern of a 2-D ``(n_rows, row_bits)`` array to row
        ``r``, waits one retention interval, and returns per-bank
        ``(rows, sys_cols)`` mismatch coordinates. This is the
        primitive both PARBOR's neighbour-aware sweep and the
        random-pattern baseline use, so their budgets are directly
        comparable.
        """
        data_sys = np.asarray(data_sys, dtype=np.uint8)
        return [(rows, cols) for _t, rows, cols
                in self.test_patterns(data_sys[None])]
