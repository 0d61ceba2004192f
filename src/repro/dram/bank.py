"""A DRAM bank: the unit of storage and failure evaluation.

The bank stores its rows bit-packed: ``charge_words`` is a 2-D
``uint64`` array in *charge domain, physical column order*, with
physical column ``p`` in bit ``p % 64`` of word ``p // 64`` (the layout
contract lives in :mod:`repro._kernels` and ``docs/KERNELS.md``). That
representation makes the write / decay / readback hot paths word-wise
boolean algebra (physical neighbours are adjacent bits; charged == 1
regardless of true/anti cell polarity) while the system-facing
interface handles both the vendor address scrambling and the true/anti
cell data inversion.

**Equivalence invariant.** Packing is representation only: the
:attr:`~Bank.charge` property unpacks to exactly the dense uint8 array
the bank historically stored, and every operation leaves
``unpack(charge_words)`` in the same state, and consumes the bank RNG
identically, as the straight-line per-cell oracle in
``tests/oracle.py``.  ``tests/runtime/test_kernel_differential.py``,
``tests/runtime/test_packed_kernels.py``,
``tests/runtime/test_level_kernel.py`` (the batched region-test
halves, ``docs/KERNELS.md`` section 3) and
``tests/runtime/test_sweep_kernel.py`` (the batched whole-chip test
halves, section 4) enforce this differentially.

True vs. anti cells: a *true* cell stores data '1' as charge, an *anti*
cell stores data '0' as charge (paper footnote 3). We model polarity
per row - sense-amplifier orientation alternates between rows - via an
``anti`` row mask applied at the read/write boundary.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .._kernels import (clear_rows_masks, gather_bits, or_rows_masks,
                        pack_rows, packed_words, scatter_assign_bits,
                        scatter_span_masks, tail_mask, unpack_rows)
from .cells import CoupledCellPopulation
from .faults import RandomFaultModel
from .mapping import AddressMapping

__all__ = ["Bank", "PatchedImages", "PatternImages"]

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_EMPTY = np.empty(0, dtype=np.int64)

#: Cells x retention waits one chunk of a batched
#: :meth:`Bank.retention_failures` or :meth:`Bank.retention_check_cells`
#: evaluates at once - the bound on its stacked per-wait state (a few
#: MB whatever the batch size).
CHUNK_CELLS = 1 << 18


class PatchedImages(NamedTuple):
    """The T row images one :meth:`Bank.write_rows_patched` call wrote.

    Image ``t`` writes the rows ``rows[written[t]]``: ``base[t]``
    everywhere, then ``size`` system bits from ``span_start[t, j]`` in
    row ``rows[span_row[t, j]]`` set to ``span_value[t]`` (``span_row
    < 0``: no span), then every point ``(rows[point_row], point_col)``
    set to ``point_value[t]`` - ``point_row`` is shared by every image,
    or ``(T, k)`` with a negative entry where image ``t`` has no
    point ``j``.
    """

    rows: np.ndarray
    written: np.ndarray
    base: np.ndarray
    span_row: np.ndarray
    span_start: np.ndarray
    size: int
    span_value: np.ndarray
    point_row: np.ndarray
    point_col: np.ndarray
    point_value: np.ndarray


class PatternImages(NamedTuple):
    """The T whole-bank images one batched :meth:`Bank.write_all` wrote.

    ``data[t, r]`` is image ``t``'s system-order data for row ``r``
    (per-row images) or for every row (``r = 0``, broadcast images).
    The data does not change from row to row apart from polarity, so
    a cell's charge under image ``t`` is a gather from ``data[t]``
    XOR its row's polarity - no image is ever scrambled or packed.
    """

    data: np.ndarray

    def planes(self, rows: np.ndarray, phys: np.ndarray,
               mapping: AddressMapping, anti_rows: np.ndarray):
        """``planes(t0, t1)``: charge of cells ``(rows, phys)`` per image.

        A bool ``(t1 - t0, n_cells)`` gather from the images' data.  A
        position past the row (a coupled cell nudged off a one-bit
        tile) reads as uncharged, like the zero tail of a packed row.
        """
        n_tests, n_img, rb = self.data.shape
        inside = phys < rb
        cols = mapping.phys_to_sys()[np.where(inside, phys, 0)]
        idx = (rows * rb if n_img > 1 else 0) + cols
        flip = (anti_rows[rows] & inside).astype(np.uint8)
        flat = self.data.reshape(n_tests, -1)
        outside = np.flatnonzero(~inside)

        def planes(t0: int, t1: int) -> np.ndarray:
            charge = flat[t0:t1].take(idx, axis=1) != flip
            charge[:, outside] = False
            return charge

        return planes


def _by_test(parts, n_waits: int):
    """Concatenate ``(tests, rows, phys)`` parts, stably grouped by test.

    ``tests`` is an array, or the wait index of a part that belongs to
    one wait.  Within a test the parts keep their order, and so do the
    coordinates within a part.  A single wait needs no grouping.
    """
    parts = [p for p in parts if len(p[1])] or [(0, _EMPTY, _EMPTY)]
    rows, phys = (np.concatenate([np.asarray(p[i], dtype=np.int64)
                                  for p in parts]) for i in (1, 2))
    if n_waits == 1:
        return np.broadcast_to(np.int64(0), rows.shape), rows, phys
    tests = np.concatenate([np.broadcast_to(p[0], len(p[1]))
                            for p in parts]).astype(np.int64, copy=False)
    order = np.argsort(tests, kind="stable")
    return tests[order], rows[order], phys[order]


def _fold_waits(parts, n_rows: int):
    """Concatenate ``(tests, rows, phys)`` parts into ``(wait * n_rows
    + row, phys)`` arrays: one row space for a chunk of waits."""
    return (np.concatenate([t * n_rows + r for t, r, _ in parts]),
            np.concatenate([p for _, _, p in parts]))


class Bank:
    """A 2-D array of DRAM cells with coupling and fault populations.

    Args:
        mapping: system<->physical address mapping for this bank.
        n_rows: number of rows.
        coupled: data-dependent failure population.
        faults: random (non-data-dependent) failure injector.
        anti_rows: bool array per row; True rows hold anti cells. The
            default alternates polarity every row.
        rng: randomness source for per-exposure failure coin flips.
    """

    def __init__(self, mapping: AddressMapping, n_rows: int,
                 coupled: CoupledCellPopulation,
                 faults: RandomFaultModel,
                 rng: np.random.Generator,
                 anti_rows: Optional[np.ndarray] = None) -> None:
        if n_rows < 1:
            raise ValueError("a bank needs at least one row")
        self.mapping = mapping
        self.n_rows = n_rows
        self.row_bits = mapping.row_bits
        self.coupled = coupled
        self.faults = faults
        self._rng = rng
        if anti_rows is None:
            anti_rows = (np.arange(n_rows) % 2).astype(bool)
        if len(anti_rows) != n_rows:
            raise ValueError("anti_rows length must equal n_rows")
        self.anti_rows = np.asarray(anti_rows, dtype=bool)
        #: retention stress of retention reads (1.0 = 45 degC / 4 s).
        self.stress = 1.0
        #: optional injected device-noise model (substrate chaos).
        #: Noise is unioned into every retention read's failures -
        #: it can only add observed corruption, never cancel a flip.
        self.noise = None
        #: optional on-die ECC stage (:class:`repro.ecc.OnDieEcc`).
        #: When attached, every retention read's raw flip/noise events
        #: pass through its per-word SEC-DED decode (:meth:`_events`) -
        #: readers then see the post-correction view (or, in recovery
        #: mode, the un-distorted raw set).
        self.ecc = None
        self._n_words = packed_words(self.row_bits)
        self._tail = tail_mask(self.row_bits)
        #: charge state, physical order, bit-packed: shape
        #: (n_rows, packed_words(row_bits)), uint64, LSB-first.
        self.charge_words = np.zeros((n_rows, self._n_words),
                                     dtype=np.uint64)
        self._keys = None

    @property
    def charge(self) -> np.ndarray:
        """Charge state as a dense uint8 ``(n_rows, row_bits)`` array.

        Unpacked view of :attr:`charge_words` (a fresh array, not a
        live view - mutations do not write back).  This is the array
        the bank historically stored; the test-side oracle and
        external inspectors consume it.
        """
        return unpack_rows(self.charge_words, self.row_bits)

    # -- system-facing I/O --------------------------------------------

    def _to_charge(self, rows: np.ndarray, data_sys: np.ndarray
                   ) -> np.ndarray:
        """Scramble + polarity-invert system-order data rows (dense)."""
        phys = data_sys[..., self.mapping.phys_to_sys()]
        anti = self.anti_rows[rows]
        return phys ^ np.asarray(anti, dtype=np.uint8)[..., None]

    def write_row(self, row: int, data_sys: np.ndarray) -> None:
        """Write one row given system-order data bits (0/1)."""
        self._check_row(row)
        data_sys = np.asarray(data_sys, dtype=np.uint8)
        if data_sys.shape != (self.row_bits,):
            raise ValueError(
                f"row data must have shape ({self.row_bits},)")
        self.charge_words[row] = pack_rows(
            self._to_charge(np.asarray([row]), data_sys[None, :])[0])

    def write_rows(self, rows: np.ndarray, data_sys: np.ndarray) -> None:
        """Write several rows at once (vectorised)."""
        rows = np.asarray(rows)
        data_sys = np.asarray(data_sys, dtype=np.uint8)
        if data_sys.ndim == 1:
            # Broadcast write: scramble + pack the single row once
            # (memoized on the shared vendor mapping, both polarities),
            # then one np.where selects the per-row polarity - the
            # whole write moves words, never cells.
            plain, inverted = self.mapping.scramble_packed(data_sys)
            anti = self.anti_rows[rows]
            self.charge_words[rows] = np.where(anti[:, None], inverted,
                                               plain)
            return
        self.charge_words[rows] = pack_rows(self._to_charge(rows, data_sys))

    def write_rows_patched(self, rows: np.ndarray, base,
                           spans: Optional[Tuple[np.ndarray, np.ndarray,
                                                 int, int]] = None,
                           points: Optional[Tuple[np.ndarray, np.ndarray,
                                                  int]] = None,
                           written: Optional[np.ndarray] = None
                           ) -> "PatchedImages":
        """Write rows that are a constant background plus sparse patches.

        Equivalent to building the full system-order array - ``base``
        everywhere, then ``spans`` of ``size`` system bits overwritten
        with their value, then individual ``points`` overwritten last -
        and calling :meth:`write_rows`, but combines pre-packed span
        masks word-wise instead of scrambling whole rows.  This is the
        write half of the recursive region test, whose patches shrink
        with the region size.

        With a leading *test axis* - ``base`` of shape ``(T,)`` - the
        call writes T images of n rows one after another, as T
        consecutive tests would: ``rows`` then lists the row writes
        test-major (``np.tile(rows_n, T)``), span arrays are ``(T, k)``
        (a negative row index marks an absent span) and the values are
        per image.  ``written``, a ``(T, n)`` mask over the n distinct
        rows, lets image ``t`` write only the rows it marks (``rows``
        lists only those writes, ``np.tile(rows_n, T)[written.ravel()]``;
        every row is written by some image).  Each row keeps the last
        image that wrote it; the returned :class:`PatchedImages`
        describe all of them for :meth:`retention_check_cells`.

        Args:
            rows: bank row indices being written.
            base: background bit value (0/1) in system order.
            spans: ``(row_idx, starts, size, value)`` - for each span,
                ``row_idx`` indexes into one image's rows and system
                columns ``starts .. starts+size`` take ``value``.
            points: ``(row_idx, cols, value)`` - individual bits,
                applied after the spans; ``row_idx`` is shared by every
                image, or ``(T, k)`` per image (negative: no point).
            written: optional ``(T, n)`` mask of the rows each image
                writes (default: every image writes every row).
        """
        base = np.atleast_1d(np.asarray(base, dtype=np.uint8))
        n_tests = len(base)
        rows = np.asarray(rows)
        if written is None:
            rows_n = rows[:len(rows) // n_tests]
            written = np.ones((n_tests, len(rows_n)), dtype=bool)
            if (rows.reshape(n_tests, -1) != rows_n).any():
                raise ValueError("every image must write the same rows")
        else:
            # Row j of the images is the first write that marks it.
            written = np.asarray(written, dtype=bool)
            at = np.cumsum(written.ravel()).reshape(written.shape) - 1
            rows_n = rows[at[written.argmax(axis=0),
                             np.arange(written.shape[1])]]
            if (written.sum() != len(rows) or not written.any(axis=0).all()
                    or (np.tile(rows_n, n_tests)[written.ravel()]
                        != rows).any()):
                raise ValueError("every image must write rows of one "
                                 "row set")
        if spans is None:
            spans = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                     1, 0)
        row_idx, starts, size, value = spans
        if points is None:
            points = (np.empty(0, dtype=np.int64),
                      np.empty(0, dtype=np.int64), 0)
        p_row, p_col, p_value = points
        images = PatchedImages(
            rows=rows_n, written=written, base=base,
            span_row=np.asarray(row_idx).reshape(n_tests, -1),
            span_start=np.asarray(starts).reshape(n_tests, -1),
            size=int(size),
            span_value=np.broadcast_to(np.asarray(value, dtype=np.uint8),
                                       (n_tests,)),
            point_row=np.asarray(p_row, dtype=np.int64),
            point_col=np.asarray(p_col, dtype=np.int64),
            point_value=np.broadcast_to(np.asarray(p_value,
                                                   dtype=np.uint8),
                                        (n_tests,)))
        self._store_images(images,
                           n_tests - 1 - written[::-1].argmax(axis=0))
        return images

    def _store_images(self, images: "PatchedImages",
                      last: np.ndarray) -> None:
        """Pack word-wise into :attr:`charge_words` each row's image.

        Row ``images.rows[j]`` gets image ``last[j]``: its background,
        then the spans and points that image puts in the row.
        """
        rows = images.rows
        anti = self.anti_rows[rows].astype(np.uint8)
        # Background fill in charge domain: base XOR polarity per row.
        fill = (images.base[last] ^ anti).astype(bool)
        block = np.zeros((len(rows), self._n_words), dtype=np.uint64)
        block[fill] = _ONES
        block[:, -1] &= self._tail
        writers = np.flatnonzero(np.bincount(last,
                                             minlength=len(images.base)))
        span_row = images.span_row[writers]
        ww, kk = np.nonzero(span_row >= 0)
        row_idx = span_row[ww, kk]
        mine = last[row_idx] == writers[ww]
        if mine.any():
            t, kk, row_idx = writers[ww[mine]], kk[mine], row_idx[mine]
            starts = images.span_start[t, kk]
            size = images.size
            charged = (images.span_value[t] ^ anti[row_idx]).astype(bool)
            if self.row_bits % size == 0 and not (starts % size).any():
                # Region-aligned spans (the recursion's case): apply
                # the cached sparse masks - O(region bits), not O(row).
                word_idx, masks = self.mapping.region_masks_sparse(size)
                g = starts // size
                scatter_span_masks(block, row_idx, word_idx[g], masks[g],
                                   charged)
            else:
                masks = self.mapping.span_masks(starts, size)
                or_rows_masks(block, row_idx[charged], masks[charged])
                clear_rows_masks(block, row_idx[~charged],
                                 masks[~charged])
        p_row = images.point_row
        if p_row.ndim == 1:
            kk, row_idx = np.arange(len(p_row)), p_row
            t = last[row_idx]
        else:
            ww, kk = np.nonzero(p_row[writers] >= 0)
            row_idx = p_row[writers[ww], kk]
            mine = last[row_idx] == writers[ww]
            t, kk, row_idx = writers[ww[mine]], kk[mine], row_idx[mine]
        if len(row_idx):
            scatter_assign_bits(block, row_idx,
                                self.mapping.sys_to_phys()[
                                    images.point_col[kk]],
                                images.point_value[t] ^ anti[row_idx])
        self.charge_words[rows] = block

    def write_all(self, data_sys: np.ndarray
                  ) -> Optional["PatternImages"]:
        """Write every row with the same (or per-row) system-order data.

        With a leading *test axis* - ``data_sys`` of shape ``(T, 1,
        row_bits)`` (one broadcast pattern per test) or ``(T, n_rows,
        row_bits)`` (per-row patterns) - the call writes T images one
        after another, as T consecutive tests would: the bank keeps the
        last, and the returned :class:`PatternImages` describe all of
        them for :meth:`retention_failures`.  This is the write half of
        the whole-chip test.
        """
        data_sys = np.asarray(data_sys, dtype=np.uint8)
        every_row = np.arange(self.n_rows)
        if data_sys.ndim < 3:
            self.write_rows(every_row, data_sys)
            return None
        n_tests, n_img, rb = data_sys.shape
        if not n_tests or n_img not in (1, self.n_rows) \
                or rb != self.row_bits:
            raise ValueError(
                f"images must have shape (T, 1 or {self.n_rows}, "
                f"{self.row_bits}) with T >= 1")
        self.write_rows(every_row, data_sys[-1, 0] if n_img == 1
                        else data_sys[-1])
        return PatternImages(data_sys)

    def read_row(self, row: int) -> np.ndarray:
        """Immediate (non-retention) read of one row, system order."""
        self._check_row(row)
        data_phys = (unpack_rows(self.charge_words[row], self.row_bits)
                     ^ np.uint8(self.anti_rows[row]))
        return data_phys[self.mapping.sys_to_phys()]

    # -- retention reads ------------------------------------------------

    def retention_failures(self, images: Optional["PatternImages"] = None,
                           reseed: Optional[Callable[[int], None]] = None):
        """Evaluate retention waits; return failing coordinates.

        The read half of the whole-chip test.  Every coupled and fault
        cell is decided from its charge, so the result is exactly the
        observable a system-level test sees: the data-dependent flips,
        the random-fault flips and any injected device noise - after
        the on-die ECC stage, when one is attached.  Without ``images``
        it runs one wait over the bank as it is.  With the
        :class:`PatternImages` of a batched :meth:`write_all` it runs
        one wait per image, as if each had been written just before
        its own wait (``docs/KERNELS.md`` section 4):

        * **RNG order.** Every wait draws exactly what a single read
          draws, in order - the coupled-cell coins, the fault model's
          draws (:meth:`RandomFaultModel.draw`), then the device-noise
          coins - so the bank stream, the VRT state and the noise
          clock end where T single tests leave them.  ``reseed(t)``,
          when given, runs just before wait ``t`` draws (the robust
          sweep's per-round seed ladder).
        * **Multiplicity.** A wait's coordinates are its flip events
          - coupled, weak, soft-error, VRT, marginal, in that order -
          then its noise cells, duplicates kept.
        * **ECC.** With a real code each chunk of waits goes through
          one :meth:`~repro.ecc.OnDieEcc.transform_read` call
          (:meth:`_events`).

        Stacked per-wait state is evaluated in chunks of at most
        :data:`CHUNK_CELLS` cells x waits.

        Returns:
            ``(rows, sys_cols)`` without ``images``; with them
            ``(tests, rows, sys_cols)``, grouped by test in test
            order, each test's coordinates in single-wait order.
        """
        sel_rows, sel_phys, chunks = self._bank_waits(images, reseed)
        parts = []
        for t0, draws, failing in chunks:
            events, noise = self._events(draws, failing, sel_rows, sel_phys)
            tests, rows, phys = _by_test(events + noise, len(draws))
            parts.append((tests + t0, rows, phys))
        tests, rows, phys = (parts[0] if len(parts) == 1 else
                             (np.concatenate(a) for a in zip(*parts)))
        sys_cols = self.mapping.phys_to_sys()[phys]
        if images is None:
            return rows, sys_cols
        return tests, rows, sys_cols

    def retention_word_errors(self) -> Tuple[np.ndarray, np.ndarray]:
        """One whole-bank retention wait, kept as post-ECC word masks.

        The wait of :meth:`retention_failures` without images - the
        same draws and the same pre-ECC events - decoded by the
        attached stage's lens decode
        (:meth:`~repro.ecc.OnDieEcc.decode_read`, which counts and
        publishes like :meth:`~repro.ecc.OnDieEcc.transform_read`)
        without ever becoming coordinates.  Returns ``(keys,
        observed)``: per word with a nonzero raw error mask, its key
        ``row * (row_bits // 64) + word`` (ascending) and its
        post-correction ``uint64`` error mask over physical in-word
        bits.  The BEER probe reads use it.
        """
        if self.ecc is None or self.ecc.code is None:
            raise ValueError("word error masks need an on-die ECC code")
        sel_rows, sel_phys, chunks = self._bank_waits(None, None)
        (_, draws, failing), = chunks
        events, noise = self._raw_events(draws, failing, sel_rows,
                                         sel_phys)
        return self.ecc.decode_read(*_fold_waits(events, self.n_rows),
                                    *_fold_waits(noise, self.n_rows),
                                    self.row_bits)

    def retention_read_rows(self, rows: np.ndarray) -> np.ndarray:
        """One retention wait, read back as system-order row data.

        The stored data of ``rows`` with every cell the wait corrupts
        inverted: :meth:`retention_check_cells` over every cell of the
        rows.  The wait draws what any single read draws, bank-wide;
        only the events landing in ``rows`` are visible, as in a real
        partial read.
        """
        rows = np.asarray(rows)
        rb, n = self.row_bits, len(rows)
        data = (unpack_rows(self.charge_words[rows], rb)
                ^ self.anti_rows[rows, None].astype(np.uint8))
        corrupted = self._check_cells(rows, np.repeat(np.arange(n), rb),
                                      np.tile(np.arange(rb), n))
        return data[:, self.mapping.sys_to_phys()] ^ corrupted.reshape(n, rb)

    def retention_check_cells(self, rows: np.ndarray,
                              check_row_idx: np.ndarray,
                              check_cols: np.ndarray,
                              coupled_rows_only: bool = False,
                              images: Optional["PatchedImages"] = None,
                              reseed: Optional[Callable[[int], None]] = None
                              ) -> np.ndarray:
        """Retention waits; did specific cells read back corrupted?

        The batched verification primitive and the read half of the
        recursive region test: instead of materialising the observed
        data of every row and comparing per cell, it decides only the
        cells a checked cell's outcome can depend on.  Without
        ``images`` it runs one retention wait over the bank as it is.
        With the :class:`PatchedImages` of a batched
        :meth:`write_rows_patched` it runs one wait per image, as if
        each had been written just before its own wait:

        * **RNG order.** Every wait draws exactly what a single read
          of its image's rows draws, in order - the coupled-cell coins,
          the fault model's draws (:meth:`RandomFaultModel.draw`), then
          the device-noise coins - so the bank stream, the VRT state
          and the noise clock end where T single tests leave them.
          ``reseed(t)``, when given, runs just before wait ``t`` draws
          (the recursion's re-vote seed ladder).
        * **Visible cells only.** Without a real on-die ECC code a
          checked cell's outcome depends only on events *at* checked
          coordinates, so only the coupled and fault cells there are
          evaluated, from their charge under each image.  A cell in a
          row an image does not write is evaluated from what that
          image would have put there; no checked cell of that image
          can see it.
        * **ECC.** With a real code the stage's counters and ambiguous
          set cover the whole bank, so every cell is evaluated (cells
          in rows the images do not cover read the stored state) and
          every wait's whole-bank events go through
          :meth:`~repro.ecc.OnDieEcc.transform_read` (one call per
          chunk of waits, see :meth:`_events`).  Every image must
          then write the same rows.

        Stacked per-wait state is evaluated in chunks of at most
        :data:`CHUNK_CELLS` cells x waits.

        Args:
            rows: bank rows that were written (and are now read); with
                ``images`` the row reads, test-major, as passed to
                :meth:`write_rows_patched`.
            check_row_idx: per checked cell, index into one image's
                rows.
            check_cols: per checked cell, system column.
            coupled_rows_only: each wait draws coins only for the
                coupled cells in the rows its image writes.  Victims
                are independent, so the outcome distribution is a
                full-bank wait's, but the draw count differs: safe
                only on a freshly reseeded stream that is discarded or
                restored afterwards (the re-vote path), never on the
                sequential single-pass stream.
            images: the images the waits read back, or None for one
                wait over the stored state.
            reseed: optional ``reseed(t)``, called before wait ``t``.

        Returns:
            Boolean array over the checked cells - shape ``(T,
            n_checks)`` with ``images``, ``(n_checks,)`` without: True
            where the read-back value differs from what was written
            (an odd number of flip events landed on the cell, or
            injected noise forced it).
        """
        return self._check_cells(rows, check_row_idx, check_cols,
                                 coupled_rows_only, images, reseed)

    def _check_cells(self, rows, check_row_idx, check_cols,
                     coupled_rows_only=False, images=None, reseed=None):
        """The body of :meth:`retention_check_cells`.

        :meth:`retention_read_rows` calls it directly, so a traced run
        records one read span per read.
        """
        if images is None:
            rows = np.asarray(rows)
            written = np.ones((1, len(rows)), dtype=bool)
        else:
            rows, written = images.rows, images.written
        n_tests = len(written)
        rb = self.row_bits
        check_enc = (rows[check_row_idx].astype(np.int64) * rb
                     + check_cols)
        pop = self.coupled
        lens = self.ecc is not None and self.ecc.code is not None
        if lens and not written.all():
            raise ValueError("with an ECC code every image must write "
                             "the same rows")
        # Row reads and the recursion's victims come sorted and distinct.
        if (check_enc[1:] > check_enc[:-1]).all():
            targets, check_coord = check_enc, slice(None)
        else:
            targets, check_coord = np.unique(check_enc, return_inverse=True)
        keys = self._cell_keys()
        # The coupled cells each wait draws coins for: all of them, or
        # on a re-vote stream only those in the rows its image writes.
        if coupled_rows_only:
            row_pos = np.full(self.n_rows, -1, dtype=np.int64)
            row_pos[rows] = np.arange(len(rows))
            members = np.flatnonzero(row_pos[pop.row] >= 0)
            mine = written[:, row_pos[pop.row[members]]]
        else:
            members = slice(None)
        if lens:
            hit = slice(None)
            sel = [members] + [slice(None)] * 3
        else:
            hit = self._sorted_member(targets, keys[0][members])
            sel = [members[hit] if coupled_rows_only
                   else np.flatnonzero(hit)]
            sel += [np.flatnonzero(self._sorted_member(targets, k))
                    for k in keys[1:]]
        n_coins = len(pop)

        def coins(t: int) -> np.ndarray:
            if not coupled_rows_only:
                return self._rng.random(n_coins)[hit]
            # Ranks of the selected cells among wait t's coin draws;
            # a selected cell outside its rows gets a coin nobody reads.
            own = mine[t]
            drawn = self._rng.random(int(own.sum()))
            rank = (np.cumsum(own) - 1)[hit]
            return (drawn[np.maximum(rank, 0)] if len(drawn)
                    else np.ones(len(rank)))

        sel_rows, sel_phys, slots, pos_rows, pos_phys, bounds = \
            self._positions(sel)
        planes = self._charge_planes(pos_rows, pos_phys, images)
        out = np.empty((n_tests, len(check_enc)), dtype=bool)
        for t0, draws, failing in self._wait_chunks(
                sel, slots, coins, planes, bounds, n_tests, reseed):
            events, noise = self._events(draws, failing, sel_rows, sel_phys)
            out[t0:t0 + len(draws)] = self._corrupted(
                events, noise, targets, len(draws))[:, check_coord]
        return out if images is not None else out[0]

    def _bank_waits(self, images: Optional["PatternImages"],
                    reseed: Optional[Callable[[int], None]]):
        """Whole-bank retention waits, one per image (or one).

        Returns ``(sel_rows, sel_phys, chunks)``: every cell of every
        population, and the :meth:`_wait_chunks` iterator deciding
        them, each wait drawing a coin for every coupled cell.
        """
        n_tests = 1 if images is None else len(images.data)
        every = [slice(None)] * 4
        sel_rows, sel_phys, slots, pos_rows, pos_phys, bounds = \
            self._positions(every)
        if images is None:
            planes = self._charge_planes(pos_rows, pos_phys, None)
        else:
            planes = images.planes(pos_rows, pos_phys, self.mapping,
                                   self.anti_rows)
        n_coins = len(self.coupled)
        return sel_rows, sel_phys, self._wait_chunks(
            every, slots, lambda t: self._rng.random(n_coins), planes,
            bounds, n_tests, reseed)

    def _positions(self, sel):
        """The cells a wait reads the charge of.

        ``sel`` selects members of each population (coupled, weak,
        VRT, marginal).  Returns ``(sel_rows, sel_phys, slots,
        pos_rows, pos_phys, bounds)``: per population the selected
        cells' coordinates; the selected victims'
        :meth:`~CoupledCellPopulation.slots`; then every position read
        - each selected victim's cell and aggressors, their present
        context cells, then the fault cells themselves - with
        ``bounds`` the cumulative position count per part.
        """
        pop = self.coupled
        populations = [(pop.row, pop.phys), *self.faults.cells()]
        slots = pop.slots(sel[0])
        sel_rows = [r[s] for (r, _), s in zip(populations, sel)]
        sel_phys = [p[s] for (_, p), s in zip(populations, sel)]
        pos_rows = np.concatenate([*[sel_rows[0]] * 3,
                                   sel_rows[0][slots.owner], *sel_rows[1:]])
        pos_phys = np.concatenate([slots.cols.ravel(), slots.ctx,
                                   *sel_phys[1:]])
        bounds = np.cumsum([slots.cols.size, len(slots.ctx)]
                           + [len(r) for r in sel_rows[1:]])
        return sel_rows, sel_phys, slots, pos_rows, pos_phys, bounds

    def _wait_chunks(self, sel, slots, coins: Callable[[int], np.ndarray],
                     planes, bounds: np.ndarray, n_tests: int,
                     reseed: Optional[Callable[[int], None]] = None):
        """Decide ``n_tests`` retention waits, a chunk at a time.

        Each wait draws what a single read draws, in order
        (``reseed(t)`` first, when given; then ``coins(t)``, the
        selected coupled cells' coins; then :meth:`_draw_read`); each
        chunk of at most :data:`CHUNK_CELLS` positions x waits is then
        decided at once (a victim counting as eight positions) from
        ``planes(t0, t1)``, the charge of the
        :meth:`_positions` under each wait's image, split into the
        victims' ``slots`` and the fault cells.  Yields ``(t0, draws,
        failing)`` with one ``(waits, cells)`` failure mask per
        population (coupled, weak, VRT, marginal).
        """
        # A wait stacks a charge byte per position read and about eight
        # bytes (its coin, its interference) per selected victim.
        per_wait = int(bounds[-1]) + 8 * slots.cols.shape[1]
        step = max(1, CHUNK_CELLS // max(per_wait, 1))
        for t0 in range(0, n_tests, step):
            t1 = min(n_tests, t0 + step)
            draws = []
            victim_coins = np.empty((t1 - t0, slots.cols.shape[1]))
            for t in range(t0, t1):
                if reseed is not None:
                    reseed(t)
                victim_coins[t - t0] = coins(t)
                draws.append(self._draw_read(sel[2], sel[3]))
            charged = np.split(planes(t0, t1), bounds[:-1], axis=1)
            failing = [self.coupled.exposure(
                slots, charged[0].reshape(t1 - t0, 3, -1), charged[1],
                victim_coins, self.stress)]
            failing += self.faults.hits(
                self.stress, charged[2:], np.stack([d[1] for d in draws]),
                np.stack([d[2] for d in draws]), sel[1:])
            yield t0, draws, failing

    def _cell_keys(self):
        """Per population (coupled, weak, VRT, marginal), cell keys.

        A key is ``row * row_bits + system column``, or -1 for a cell
        outside the row (a coupled cell nudged past a one-bit tile),
        which no checked cell can match.  Cached: the populations and
        the mapping never change.
        """
        cache = self._keys
        if (cache is None or cache[0] is not self.coupled
                or cache[1] is not self.faults):
            rb = self.row_bits
            p2s = self.mapping.phys_to_sys()
            keys = [np.where(p < rb, r * rb + p2s[np.minimum(p, rb - 1)],
                             -1)
                    for r, p in [(self.coupled.row, self.coupled.phys),
                                 *self.faults.cells()]]
            cache = self._keys = (self.coupled, self.faults, keys)
        return cache[2]

    def _charge_planes(self, pos_rows: np.ndarray, pos_phys: np.ndarray,
                       images: Optional["PatchedImages"]):
        """Charge of cells ``(pos_rows, pos_phys)`` under each image.

        Returns ``planes(t0, t1)``, a bool ``(t1 - t0, n_cells)``
        array: image ``t``'s charge for cells in its rows, the stored
        charge elsewhere.  An image differs from its background only
        in spans and points, and the spans are region-aligned, so a
        cell is covered exactly when its (row, region) is one of the
        image's spans: cells are deduplicated to their (row, region)
        once, and each image marks its spans' regions.
        """
        rb = self.row_bits
        stored = gather_bits(self.charge_words, pos_rows,
                             pos_phys).astype(bool)
        if images is None:
            return lambda t0, t1: stored[None]
        size = images.size
        if rb % size:
            raise ValueError("batched reads need region-aligned spans")
        row_pos = np.full(self.n_rows, -1, dtype=np.int64)
        row_pos[images.rows] = np.arange(len(images.rows))
        written = row_pos[pos_rows] >= 0
        keys, inv = np.unique(
            pos_rows[written] * rb
            + self.mapping.phys_to_sys()[pos_phys[written]],
            return_inverse=True)
        regions, region_of = np.unique(keys // size, return_inverse=True)
        # The written cells some image sets as a point (``point_cells``,
        # each one of the distinct point keys ``p_of``), and per image
        # (or once, for points every image shares) the keys it sets.
        p_row = np.atleast_2d(images.point_row)
        p_keys, p_inv = np.unique(
            images.rows[np.maximum(p_row, 0)] * rb + images.point_col,
            return_inverse=True)
        p_set = np.zeros((len(p_row), len(p_keys)), dtype=bool)
        p_set[np.nonzero(p_row >= 0)[0],
              p_inv.reshape(p_row.shape)[p_row >= 0]] = True
        cell_p = self._sorted_member(p_keys, keys)[inv]
        point_cells = np.flatnonzero(cell_p)
        p_of = np.searchsorted(p_keys, keys[inv[point_cells]])
        # Per written cell: its region and row polarity.
        cell_region = region_of[inv]
        cell_anti = self.anti_rows[pos_rows[written]]
        every = bool(written.all())
        base = images.base != 0
        span_flip = (images.span_value != 0) ^ base
        point_value = images.point_value != 0
        # Consecutive images with the same spans (a pattern and its
        # inverse) share one span coverage.
        span_row, span_start = images.span_row, images.span_start
        fresh = np.ones(len(span_row), dtype=bool)
        fresh[1:] = ((span_row[1:] != span_row[:-1])
                     | (span_start[1:] != span_start[:-1])).any(axis=1)
        owner = np.cumsum(fresh) - 1
        distinct = np.flatnonzero(fresh)

        def planes(t0: int, t1: int) -> np.ndarray:
            s0, s1 = owner[t0], owner[t1 - 1] + 1
            rows_s = span_row[distinct[s0:s1]]
            ss, kk = np.nonzero(rows_s >= 0)
            starts = span_start[distinct[s0:s1]][ss, kk]
            if (starts % size).any():
                raise ValueError("batched reads need region-aligned spans")
            span_region = (images.rows[rows_s[ss, kk]] * rb + starts) // size
            covered = np.zeros((s1 - s0, len(regions)), dtype=bool)
            if len(regions):
                at = np.minimum(np.searchsorted(regions, span_region),
                                len(regions) - 1)
                hit = regions[at] == span_region
                covered[ss[hit], at[hit]] = True
            # Data is the span value inside a covered region, the
            # background outside, the point value at a point; charge
            # is data XOR the row polarity.
            charge = covered.take(cell_region, axis=1)[owner[t0:t1] - s0]
            charge &= span_flip[t0:t1, None]
            charge ^= base[t0:t1, None]
            if len(point_cells):
                at_points = charge[:, point_cells]
                np.copyto(at_points, point_value[t0:t1, None],
                          where=(p_set[t0:t1] if len(p_set) > 1
                                 else p_set)[:, p_of])
                charge[:, point_cells] = at_points
            charge ^= cell_anti
            if every:
                return charge
            out = np.repeat(stored[None], t1 - t0, axis=0)
            out[:, written] = charge
            return out

        return planes

    def _draw_read(self, vrt, marginal):
        """The rest of a retention wait's draws, after its coupled coins.

        Returns ``(soft_flat, vrt_leaky, marginal_coin, noise)`` with
        the VRT state and marginal coins kept only for the selected
        ``vrt`` and ``marginal`` cells, and ``noise`` the ``(rows,
        phys)`` forced cells.
        """
        soft, leaky, coin = self.faults.draw()
        if self.noise is None:
            empty = np.empty(0, dtype=np.int64)
            noise = (empty, empty)
        else:
            noise = self.noise.flips()
        return soft, leaky[vrt], coin[marginal], noise

    def _raw_events(self, draws, failing, sel_rows, sel_phys):
        """A chunk of waits' observable events, before any ECC stage.

        ``failing`` holds one ``(waits, cells)`` failure mask per
        population (coupled, weak, VRT, marginal) of the selected
        cells ``(sel_rows, sel_phys)``.  Returns ``(events, noise)``,
        each a list of ``(tests, rows, phys)`` parts, ``tests`` a wait
        index or an array of them: the flip events (XOR semantics), in
        each wait in the order of a single read - coupled, weak,
        soft-error, VRT, marginal - and the injected noise cells (union
        semantics).
        """
        rb = self.row_bits
        hits = [(tt, r[kk], p[kk]) for (tt, kk), r, p in
                zip(map(np.nonzero, failing), sel_rows, sel_phys)]
        events = hits[:2] + [(i, d[0] // rb, d[0] % rb)
                             for i, d in enumerate(draws)] + hits[2:]
        noise = [(i, *d[3]) for i, d in enumerate(draws)]
        return events, noise

    def _events(self, draws, failing, sel_rows, sel_phys):
        """:meth:`_raw_events`, after the ECC stage.

        With a real code the events and noise go through one
        :meth:`~repro.ecc.OnDieEcc.transform_read` call, each wait's
        rows numbered ``wait * n_rows + row`` - the same as one call
        per wait (the stage's outputs are per word, its counters and
        ambiguous set sums and unions over words).
        """
        events, noise = self._raw_events(draws, failing, sel_rows,
                                         sel_phys)
        if self.ecc is None or self.ecc.code is None:
            return events, noise
        n = self.n_rows
        o_rows, o_phys, on_rows, on_phys = self.ecc.transform_read(
            *_fold_waits(events, n), *_fold_waits(noise, n),
            self.row_bits, n_rows=n)
        return ([(o_rows // n, o_rows % n, o_phys)],
                [(on_rows // n, on_rows % n, on_phys)])

    def _corrupted(self, events, noise, targets: np.ndarray,
                   n_waits: int) -> np.ndarray:
        """Which of the sorted cell keys ``targets`` each wait corrupts.

        ``events`` and ``noise`` are :meth:`_events` parts; a key is
        ``row * row_bits + system column``.  Flip events count modulo
        two (an even number cancels); injected noise is ORed in last
        so it can never cancel a flip.  Returns bool ``(n_waits,
        len(targets))``.
        """
        rb, n_t = self.row_bits, len(targets)
        p2s = self.mapping.phys_to_sys()
        at_events, at_noise = [_EMPTY], [_EMPTY]
        for parts, into in ((events, at_events), (noise, at_noise)):
            for tests, rows, phys in parts:
                if len(rows) and n_t:
                    key = rows * rb + p2s[phys]
                    at = np.minimum(np.searchsorted(targets, key), n_t - 1)
                    hit = targets[at] == key
                    tests = np.broadcast_to(tests, hit.shape)[hit]
                    into.append(tests * n_t + at[hit])
        counts = np.bincount(np.concatenate(at_events),
                             minlength=n_waits * n_t)
        corrupted = (counts & 1).astype(bool)
        corrupted[np.concatenate(at_noise)] = True
        return corrupted.reshape(n_waits, n_t)

    @staticmethod
    def _sorted_member(sorted_vals: np.ndarray, queries: np.ndarray
                       ) -> np.ndarray:
        """Membership of ``queries`` in a sorted value array."""
        if not len(sorted_vals):
            return np.zeros(len(queries), dtype=bool)
        pos = np.searchsorted(sorted_vals, queries)
        pos[pos == len(sorted_vals)] = len(sorted_vals) - 1
        return sorted_vals[pos] == queries

    def retention_read_all(self) -> np.ndarray:
        """Full-bank retention read, system order (observed data)."""
        return self.retention_read_rows(np.arange(self.n_rows))

    # -- helpers ----------------------------------------------------------

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n_rows:
            raise ValueError(f"row {row} out of range [0, {self.n_rows})")
