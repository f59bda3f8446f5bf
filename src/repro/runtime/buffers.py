"""Buffer bookkeeping for the pipeline interpreter.

A buffer couples a NumPy array with the *origin* of its index space: stage
domains need not start at zero (blur's rows run ``1..R``), and per-tile
scratch buffers cover only the tile's expanded region.  ``Buffer.gather``
translates absolute domain coordinates into array indices, clipping to the
stored region — out-of-domain reads in stage bodies are guarded by their
``Case`` conditions, so clipped values are always masked out downstream.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..resilience.faults import maybe_fail

__all__ = ["Buffer", "BufferPool", "PoolGroup", "execution_slot"]


@dataclass
class Buffer:
    """An array with an index-space origin."""

    data: np.ndarray
    origin: Tuple[int, ...]

    def __post_init__(self):
        if self.data.ndim != len(self.origin):
            raise ValueError(
                f"{self.data.ndim}-d array with {len(self.origin)}-d origin"
            )

    @classmethod
    def for_region(
        cls, bounds: Sequence[Tuple[int, int]], dtype, zeroed: bool = True
    ) -> "Buffer":
        """Allocate a buffer covering inclusive ``(lo, hi)`` bounds —
        zeroed, unless the caller writes every point (``zeroed=False``)."""
        shape = tuple(hi - lo + 1 for lo, hi in bounds)
        if any(s <= 0 for s in shape):
            raise ValueError(f"empty region {list(bounds)}")
        maybe_fail("alloc", detail=f"region{list(bounds)!r}")
        alloc = np.zeros if zeroed else np.empty
        return cls(alloc(shape, dtype=dtype), tuple(lo for lo, _ in bounds))

    def gather(self, indices: Sequence[np.ndarray]) -> np.ndarray:
        """Read at absolute coordinates (broadcasting index arrays),
        clipping to the stored region."""
        idx = []
        data = self.data
        for d, coord in enumerate(indices):
            rel = np.asarray(coord)
            origin = self.origin[d]
            if origin:
                rel = rel - origin
            # Raw minimum/maximum ufuncs: np.clip's wrapper costs more
            # than the clip itself at tile-sized index arrays.
            rel = np.minimum(np.maximum(rel, 0), data.shape[d] - 1)
            idx.append(rel)
        return data[tuple(idx)]

    def read_window(
        self,
        starts: Sequence[int],
        extents: Sequence[int],
        steps: Sequence[int] = None,
    ) -> "np.ndarray | None":
        """Strided view of the region starting at absolute ``starts`` with
        ``extents`` points per dimension spaced ``steps`` apart, or
        ``None`` when any point lies outside the stored region (the caller
        falls back to a clipped :meth:`gather`).

        This is the fast path compiled kernels use for affine accesses
        (``f(x - 1, y)``, ``f(2*x + 1)``): a slice instead of a
        same-size integer-array gather.  Values are identical to
        ``gather`` whenever this returns an array, since clipping only
        matters out of bounds.
        """
        sl = []
        shape = self.data.shape
        for d, (lo, n) in enumerate(zip(starts, extents)):
            step = 1 if steps is None else steps[d]
            rel = lo - self.origin[d]
            last = rel + (n - 1) * step
            if rel < 0 or last >= shape[d]:
                return None
            sl.append(slice(rel, last + 1, step))
        return self.data[tuple(sl)]

    def store_region(
        self, bounds: Sequence[Tuple[int, int]], values: np.ndarray
    ) -> None:
        """Write ``values`` into the inclusive absolute region ``bounds``."""
        sl = tuple(
            slice(lo - self.origin[d], hi - self.origin[d] + 1)
            for d, (lo, hi) in enumerate(bounds)
        )
        self.data[sl] = values

    def read_region(self, bounds: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Read the inclusive absolute region ``bounds`` as a view."""
        sl = tuple(
            slice(lo - self.origin[d], hi - self.origin[d] + 1)
            for d, (lo, hi) in enumerate(bounds)
        )
        return self.data[sl]

    def region_buffer(self, bounds: Sequence[Tuple[int, int]]) -> "Buffer":
        """A :class:`Buffer` view of the inclusive absolute region
        ``bounds`` — writes go straight through to this buffer's storage.

        Fused group kernels use this as the ``store_at``-root fast path: a
        live-out stage whose expanded tile region equals its base tile
        writes its values directly into the full output buffer instead of
        into a scratch array that is then copied out."""
        return Buffer(self.read_region(bounds), tuple(lo for lo, _ in bounds))


@dataclass
class BufferPool:
    """Recycles tile-local scratch arrays across the tiles of one worker.

    Consecutive tiles of a fused group allocate the same ``(shape, dtype)``
    arrays over and over; the pool hands each request a previously-released
    array when one is free, so steady-state tile execution performs zero
    allocations.  Pools are *worker-local* — one per tile chunk — so no
    locking is needed: no two threads ever use one pool at once.

    Arrays come back uncleared: compiled kernels (and ``evaluate_cases`` in
    ``out=`` mode) overwrite every element, so zeroing would be wasted work.
    Lent arrays are tracked by ``id`` (``ndarray.__eq__`` is elementwise,
    which rules out list/dict membership by value).

    A ``max_free_bytes`` cap bounds how much memory the free lists may
    hold between uses — the serve layer keeps pools alive across requests
    (:class:`PoolGroup`), and without a cap one oversized request would
    pin its scratch footprint forever.  When a release pushes the free
    lists over the cap, arrays are evicted largest-first (dropping the
    biggest array frees the most bytes per eviction) until the cap holds
    again; lent arrays are never evicted.

    The ``stat_*`` counters record recycling effectiveness (acquisitions
    served from the free list vs fresh allocations, arrays reclaimed and
    evicted).  They are plain per-pool integers — always maintained,
    since an increment is noise next to the ``np.empty`` it annotates —
    and the executor folds them into :data:`repro.obs.METRICS`
    (``repro_pool_acquires_total``/``repro_pool_reclaims_total``/
    ``repro_pool_evictions_total``) per chunk when metrics collection
    is on.
    """

    _free: Dict[Tuple[Tuple[int, ...], object], List[np.ndarray]] = field(
        default_factory=dict
    )
    _lent: Dict[int, np.ndarray] = field(default_factory=dict)
    #: address of element 0 of every array the pool owns, by ``id`` —
    #: see :meth:`address`
    _address: Dict[int, int] = field(default_factory=dict)
    #: acquisitions served by recycling a previously released array
    stat_reused: int = 0
    #: acquisitions that had to allocate a fresh array
    stat_allocated: int = 0
    #: arrays returned to the free lists (reclaim + release_all)
    stat_reclaimed: int = 0
    #: arrays dropped from the free lists to respect ``max_free_bytes``
    stat_evicted: int = 0
    #: cap on the total bytes the free lists may retain (``None``: unbounded)
    max_free_bytes: Optional[int] = None
    #: current total bytes across all free lists
    free_bytes: int = 0

    def acquire(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised array of ``shape``/``dtype`` — recycled when
        possible, freshly allocated otherwise."""
        dt = np.dtype(dtype)
        key = (tuple(shape), dt)
        maybe_fail("alloc", detail=f"pool{key[0]!r}")
        stack = self._free.get(key)
        if stack:
            arr = stack.pop()
            self.free_bytes -= arr.nbytes
            self.stat_reused += 1
        else:
            arr = np.empty(key[0], dtype=dt)
            self._address[id(arr)] = arr.ctypes.data
            self.stat_allocated += 1
        self._lent[id(arr)] = arr
        return arr

    def address(self, arr: np.ndarray) -> int:
        """Address of ``arr``'s element 0.  Native kernels pass every
        scratch array by address once per step, and ``ndarray.ctypes``
        costs more than the rest of a slot's bookkeeping together; for
        the pool's own arrays (alive while it holds them, so their ``id``
        is theirs) it is looked up instead."""
        got = self._address.get(id(arr))
        return arr.ctypes.data if got is None else got

    def take(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """:meth:`acquire`, but not lent: :meth:`release_all` leaves the
        array alone until :meth:`give` returns it — a request arena,
        held across the chunk walks that release the same pool."""
        arr = self.acquire(shape, dtype)
        del self._lent[id(arr)]
        return arr

    def give(self, arr: np.ndarray) -> None:
        """Return an array :meth:`take` handed out to the free list."""
        self._lent[id(arr)] = arr
        self.reclaim(arr)

    def reclaim(self, arr: np.ndarray) -> None:
        """Return one lent array to the free list immediately (used when a
        kernel could not write into the scratch array after all)."""
        if self._lent.pop(id(arr), None) is not None:
            self.stat_reclaimed += 1
            self._free.setdefault(
                (arr.shape, arr.dtype), []
            ).append(arr)
            self.free_bytes += arr.nbytes
            self._evict_over_cap()

    def release_all(self) -> None:
        """Return every lent array to the free lists (end of one tile)."""
        self.stat_reclaimed += len(self._lent)
        for arr in self._lent.values():
            self._free.setdefault(
                (arr.shape, arr.dtype), []
            ).append(arr)
            self.free_bytes += arr.nbytes
        self._lent.clear()
        self._evict_over_cap()

    def _evict_over_cap(self) -> None:
        """Drop free arrays, largest first, until under ``max_free_bytes``."""
        if self.max_free_bytes is None:
            return
        while self.free_bytes > self.max_free_bytes and self._free:
            key = max(
                self._free,
                key=lambda k: math.prod(k[0]) * np.dtype(k[1]).itemsize,
            )
            stack = self._free[key]
            arr = stack.pop()
            if not stack:
                del self._free[key]
            self.free_bytes -= arr.nbytes
            self._address.pop(id(arr), None)
            self.stat_evicted += 1


#: the calling thread's execution slot (see :func:`execution_slot`), as
#: a ``("slot", n)`` pool key — never equal to a thread id, the key of
#: a thread outside any slot
_BOUND = threading.local()


@contextmanager
def execution_slot(slot: int) -> Iterator[None]:
    """Bind the calling thread to execution slot ``slot`` while inside:
    :meth:`PoolGroup.get` then hands it the slot's pool instead of one
    of its own.  The caller guarantees one thread per slot at a time."""
    _BOUND.slot = ("slot", slot)
    try:
        yield
    finally:
        _BOUND.slot = None


class PoolGroup:
    """:class:`BufferPool`\\ s that persist across executions, one per
    *execution slot* and one per other thread.

    The executor wants worker-local pools (lock-free, arrays never
    migrate between concurrent walks), and the serve layer wants pools
    that stay warm across *requests*.  A ``PoolGroup`` reconciles the
    two: a thread inside :func:`execution_slot` gets that slot's pool —
    the serve layer runs at most one batch per slot at a time, on
    whichever thread claimed the slot — and any other thread (an
    executor worker, a direct caller) gets its own pool on first use.
    Either keeps its pool for the group's lifetime, so steady-state
    requests run with fully warm scratch, and the number of pools is
    bounded by the slots plus the threads that walk chunks, not by how
    many threads ever submitted a request.  Every pool carries the
    group's ``max_free_bytes`` cap.

    Only :meth:`get`'s first call per key takes the lock; after that
    the lookup is a plain dict read.
    """

    def __init__(self, max_free_bytes: Optional[int] = None):
        self.max_free_bytes = max_free_bytes
        self._lock = threading.Lock()
        self._pools: Dict[Hashable, BufferPool] = {}

    def get(self) -> BufferPool:
        """The calling thread's execution slot's pool, else the calling
        thread's own (created on first use)."""
        key = getattr(_BOUND, "slot", None) or threading.get_ident()
        pool = self._pools.get(key)
        if pool is None:
            with self._lock:
                pool = self._pools.get(key)
                if pool is None:
                    pool = BufferPool(max_free_bytes=self.max_free_bytes)
                    self._pools[key] = pool
        return pool

    def stats(self) -> Dict[str, int]:
        """Aggregated ``stat_*`` counters and free bytes across pools."""
        with self._lock:
            pools = list(self._pools.values())
        out = {
            "pools": len(pools), "reused": 0, "allocated": 0,
            "reclaimed": 0, "evicted": 0, "free_bytes": 0,
        }
        for p in pools:
            out["reused"] += p.stat_reused
            out["allocated"] += p.stat_allocated
            out["reclaimed"] += p.stat_reclaimed
            out["evicted"] += p.stat_evicted
            out["free_bytes"] += p.free_bytes
        return out

    def clear(self) -> None:
        """Drop every pool (shutdown / tests)."""
        with self._lock:
            self._pools.clear()
