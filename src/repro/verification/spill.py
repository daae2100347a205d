"""Byte-budgeted memory-mapped spill for the verification kernel arrays.

The compiled state-graph kernel (:mod:`repro.verification.kernel`) keeps
everything it learns in flat numpy arrays: the open-addressing slot array
and the id-indexed key pages of :class:`~repro.verification.kernel
.PackedStateTable`, plus the CSR transition chunks and BFS parent stores of
:class:`~repro.verification.kernel.CompiledStateGraph`.  At 10^7 states
those arrays are gigabytes — beyond what a verification worker should pin
in RAM, but far below what a disk holds.

This module provides the allocator behind the ``REPRO_STATE_BUDGET_BYTES``
knob: a :class:`SpillStore` hands out plain in-RAM arrays until the
process-wide budget is spent and ``numpy`` memmaps beyond it.  Spilled
arrays are plain ``.npy`` files (``numpy.lib.format.open_memmap``) — the
same per-array container the ``.npz`` compiled-graph cache is a zip of —
living in a per-store temporary directory (``REPRO_SPILL_DIR`` or the
system tempdir).  Because the kernel's access pattern is level-batched
(append CSR rows, probe the slot array, slice one level of key rows), the
spill is transparent to callers: every array behaves like a normal
``ndarray``, only the residency policy changes.

Residency is actively bounded, not just redirected: after each compiled
BFS level the kernel calls :meth:`SpillStore.relax`, which
``madvise(MADV_DONTNEED)``-drops the spilled mappings' resident pages (the
data stays in the kernel page cache / on disk), so the process RSS stays
near the configured budget instead of drifting up with every dirtied page.

Stores are closed by :meth:`~repro.scheduler.packed.PackedSlotSystem
.clear_memo` / :func:`repro.scheduler.packed.clear_packed_caches` together
with the graph that owns them; a ``weakref.finalize`` safety net unlinks
the spill files of stores that are garbage-collected without an explicit
close, so tests and long-lived processes cannot leak file descriptors or
tempdir contents across configurations.
"""

from __future__ import annotations

import os
import tempfile
import warnings
import weakref
from typing import List, Optional, Tuple

import numpy as np

from .._validation import env_int

__all__ = [
    "SPILL_DIR_ENV_VAR",
    "STATE_BUDGET_ENV_VAR",
    "SpillStore",
    "resident_budget_bytes",
    "state_budget_bytes",
]

#: Environment variable capping the resident bytes of the kernel's
#: long-lived arrays; allocations beyond the cap land in memmaps.
STATE_BUDGET_ENV_VAR = "REPRO_STATE_BUDGET_BYTES"

#: Environment variable naming the directory spill files live under
#: (default: the system tempdir).
SPILL_DIR_ENV_VAR = "REPRO_SPILL_DIR"

#: Process-wide resident bytes currently allocated by all stores (the
#: budget is global: several graphs share one cap, like they share RAM).
_RESIDENT_BYTES = 0


def state_budget_bytes() -> Optional[int]:
    """The configured resident-byte budget, or ``None`` when unlimited.

    Accepts plain integers and ``"2e9"``-style floats; a malformed value
    warns and disables the budget instead of crashing the verification.
    """
    value = env_int(
        STATE_BUDGET_ENV_VAR,
        lambda message: warnings.warn(message, RuntimeWarning, stacklevel=4),
    )
    return value if value is not None and value >= 0 else None


def resident_budget_bytes() -> int:
    """Resident bytes currently charged against the budget (all stores)."""
    return _RESIDENT_BYTES


def _advise_dontneed(handle) -> None:
    """Drop a mapping's resident pages (no-op off Linux / on closed maps)."""
    import mmap as _mmap

    advice = getattr(_mmap, "MADV_DONTNEED", None)
    if advice is None or handle is None:  # pragma: no cover - non-Linux
        return
    try:
        handle.madvise(advice)
    except (ValueError, OSError):  # pragma: no cover - closed mapping
        pass


def _cleanup_files(paths: List[str], directory: Optional[str], holder: dict) -> None:
    """Finalizer: unlink spill files and refund the RAM ledger."""
    global _RESIDENT_BYTES
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass
    paths.clear()
    if directory:
        try:
            os.rmdir(directory)
        except OSError:
            pass
    _RESIDENT_BYTES -= holder.pop("ram", 0)


class SpillStore:
    """Allocator for one graph's long-lived arrays under the byte budget.

    Arrays allocated while the process-wide resident total stays within
    ``REPRO_STATE_BUDGET_BYTES`` are ordinary in-RAM ``np.ndarray``s;
    beyond the budget, allocations return writable ``np.memmap`` views of
    fresh ``.npy`` files.  ``release`` refunds RAM bytes when an array is
    replaced by a grown copy (memmap files are kept until :meth:`close` —
    growth is geometric, so the on-disk overhead is bounded by ~2x the
    final size, and callers may still hold views of retired arrays).
    """

    __slots__ = ("_budget", "_dir", "_paths", "_mmaps", "_holder", "_seq",
                 "_closed", "_finalizer", "__weakref__")

    def __init__(self, budget: Optional[int] = None) -> None:
        #: ``None`` means "read the environment at first use" so stores can
        #: be constructed unconditionally and stay RAM-only when no budget
        #: is configured.
        self._budget = state_budget_bytes() if budget is None else budget
        self._dir: Optional[str] = None
        self._paths: List[str] = []
        self._mmaps: List[np.memmap] = []
        self._holder = {"ram": 0}
        self._seq = 0
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _cleanup_files, self._paths, None, self._holder
        )

    # ------------------------------------------------------------ properties
    @property
    def spilled(self) -> bool:
        """Whether any allocation of this store landed in a memmap."""
        return bool(self._paths)

    @property
    def spill_bytes(self) -> int:
        """Bytes currently living in this store's memmap files."""
        return sum(array.nbytes for array in self._mmaps)

    # ------------------------------------------------------------ allocation
    def _spill_path(self) -> str:
        if self._dir is None:
            base = os.environ.get(SPILL_DIR_ENV_VAR) or None
            self._dir = tempfile.mkdtemp(prefix="repro-spill-", dir=base)
            # Re-arm the finalizer with the directory now that it exists.
            self._finalizer.detach()
            self._finalizer = weakref.finalize(
                self, _cleanup_files, self._paths, self._dir, self._holder
            )
        self._seq += 1
        return os.path.join(self._dir, f"spill-{self._seq:04d}.npy")

    def alloc(self, shape: Tuple[int, ...], dtype, fill=None) -> np.ndarray:
        """Allocate an array, in RAM while the budget lasts, spilled beyond.

        Args:
            shape: array shape.
            dtype: array dtype.
            fill: optional scalar the array is filled with (memmaps are
                zero-filled by the filesystem; a non-zero fill writes every
                page once).
        """
        global _RESIDENT_BYTES
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        budget = self._budget
        if self._closed or budget is None or _RESIDENT_BYTES + nbytes <= budget:
            if fill is None:
                array = np.zeros(shape, dtype=dtype)
            else:
                array = np.full(shape, fill, dtype=dtype)
            if not self._closed and budget is not None:
                _RESIDENT_BYTES += nbytes
                self._holder["ram"] += nbytes
            return array
        array = np.lib.format.open_memmap(
            self._spill_path(), mode="w+", dtype=np.dtype(dtype), shape=shape
        )
        if fill is not None and fill != 0:
            # Fill in bounded chunks, dropping the dirtied pages as we go:
            # a one-shot fill of a multi-hundred-MB slot array would spike
            # the RSS by the full array size before the first relax().
            step = max((1 << 25) // int(np.dtype(dtype).itemsize), 1)
            handle = getattr(array, "_mmap", None)
            for start in range(0, shape[0], step):
                array[start : start + step] = fill
                _advise_dontneed(handle)
        self._paths.append(array.filename)
        self._mmaps.append(array)
        return array

    def copy_rows(self, target: np.ndarray, source: np.ndarray, rows: int) -> None:
        """Copy a row prefix in bounded chunks, relaxing spilled pages.

        The growth path of the table and the CSR chunks copies hundreds of
        MB in one statement; when either side is a memmap this caps the
        transient RSS spike at the chunk size.
        """
        if not isinstance(target, np.memmap) and not isinstance(source, np.memmap):
            target[:rows] = source[:rows]
            return
        row_bytes = max(int(source.itemsize) * int(np.prod(source.shape[1:])), 1)
        step = max((1 << 25) // row_bytes, 1)
        target_handle = getattr(target, "_mmap", None)
        source_handle = getattr(source, "_mmap", None)
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            target[start:stop] = source[start:stop]
            _advise_dontneed(target_handle)
            _advise_dontneed(source_handle)

    def release(self, array: np.ndarray) -> None:
        """Refund a RAM allocation that is being replaced (grown).

        Memmap-backed arrays are left in place until :meth:`close`:
        callers may still hold views of them (a frontier slice of a
        replaced key page, a CSR view inside a save), and mmap pages cost
        no budgeted RAM once :meth:`relax` drops them.
        """
        global _RESIDENT_BYTES
        if isinstance(array, np.memmap) or self._budget is None or self._closed:
            return
        _RESIDENT_BYTES -= array.nbytes
        self._holder["ram"] = max(self._holder["ram"] - array.nbytes, 0)

    # ------------------------------------------------------------- residency
    def relax(self) -> None:
        """Drop the spilled mappings' resident pages (data stays cached).

        ``MADV_DONTNEED`` on a shared file mapping releases the pages from
        this process's RSS; the contents remain in the kernel page cache /
        the backing file, so later accesses repopulate transparently.
        Called by the kernel once per compiled BFS level and after every
        growth/rehash (which dirties whole replacement arrays at once).
        """
        for array in self._mmaps:
            _advise_dontneed(getattr(array, "_mmap", None))

    def close(self) -> None:
        """Unlink every spill file and refund the store's RAM bytes.

        Safe to call twice; arrays handed out earlier keep working only if
        their mapping is still referenced elsewhere (the kernel drops its
        graph before closing the store).
        """
        if self._closed:
            return
        self._closed = True
        for array in self._mmaps:
            handle = getattr(array, "_mmap", None)
            if handle is None:
                continue
            try:
                handle.close()
            except (BufferError, ValueError):
                # A live external view pins the mapping; the file is
                # unlinked below regardless, so the space is reclaimed as
                # soon as the view dies.
                pass
        self._mmaps.clear()
        directory = self._dir
        self._finalizer.detach()
        _cleanup_files(self._paths, directory, self._holder)
        self._dir = None
