"""Shared memory for the worker tier: the per-worker arena, and the
named segments kept for the benchmark probe.

**The arena.**  Workers and the supervisor exchange image arrays
through one :class:`Arena` per worker slot: an unnamed ``MAP_SHARED``
mapping (``mmap.mmap(-1, n)``) the supervisor makes *before* it forks
the slot's worker, so both processes map the same pages and nothing is
named anywhere — no file in ``/dev/shm``, nothing to unlink, nothing a
``kill -9`` can leave behind (an unnamed mapping dies with the last
process that maps it).  The arena is cut into equal slots, one per
batch that can be in flight; the sender lays a batch's arrays out in
its slot (:func:`plan_layout` + :func:`write_arrays`), sends only the
slot index and ``{key: (offset, shape, dtype)}`` specs over the control
pipe, and the receiver builds NumPy views on the same pages
(:func:`view_arrays`).

**Named segments** (:class:`Segment`, :class:`ShmRegistry`,
:func:`list_segments`, :func:`sweep_stale`) are what the worker tier
used before the arena: ``O_EXCL`` files in ``/dev/shm`` whose names
embed the owning pid (``repro-shm-<pid>-<seq>``) so a sweep can reclaim
a dead owner's.  The serving path no longer creates any.  They stay,
unchanged, only because the end-to-end benchmark's
``serve.shm.roundtrip_ms`` probe and its leak checks import them; they
go when that probe moves onto the arena.  (They are plain files rather
than ``multiprocessing.shared_memory`` because under fork every process
shares one ``resource_tracker``, whose bookkeeping races
create-in-child / unlink-in-parent on Python <= 3.12, gh-82300.)
"""

from __future__ import annotations

import itertools
import mmap
import os
import tempfile
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..obs import METRICS

__all__ = [
    "Arena",
    "SHM_PREFIX",
    "Segment",
    "ShmRegistry",
    "shm_dir",
    "list_segments",
    "sweep_stale",
    "plan_layout",
    "write_arrays",
    "view_arrays",
]

#: every segment this package creates starts with this prefix
SHM_PREFIX = "repro-shm"

#: per-array alignment inside a segment (cache line / SIMD friendly)
_ALIGN = 64


def shm_dir() -> str:
    """The directory segments live in: ``/dev/shm`` (tmpfs — true shared
    memory) where available, the system temp directory otherwise
    (``MAP_SHARED`` file mappings give the same zero-copy semantics on
    any filesystem)."""
    d = "/dev/shm"
    if os.path.isdir(d) and os.access(d, os.W_OK):
        return d
    return tempfile.gettempdir()


class Arena:
    """One unnamed ``MAP_SHARED`` mapping cut into ``slots`` pieces of
    ``slot_bytes`` (rounded up to the 64-byte alignment).

    Made in the supervisor before the worker that uses it is forked;
    the supervisor hands slots out with :meth:`take` / :meth:`free`, and
    both processes address a slot through :meth:`buf`.  Pages are
    touched only when a batch writes them: an anonymous mapping costs
    address space, not memory, until then.
    """

    def __init__(self, slots: int, slot_bytes: int):
        self.slots = max(1, int(slots))
        self.slot_bytes = -(-max(int(slot_bytes), 1) // _ALIGN) * _ALIGN
        self._view = memoryview(mmap.mmap(
            -1, self.slots * self.slot_bytes, flags=mmap.MAP_SHARED))
        self._lock = threading.Lock()
        # taken from the end: the most recently freed slot, whose pages
        # are already faulted in, is the next one used
        self._free = list(range(self.slots - 1, -1, -1))

    def take(self) -> Optional[int]:
        """A free slot's index, or None when every slot is in use."""
        with self._lock:
            return self._free.pop() if self._free else None

    def free(self, slot: int) -> None:
        with self._lock:
            self._free.append(slot)

    def free_slots(self) -> int:
        with self._lock:
            return len(self._free)

    def buf(self, slot: int) -> memoryview:
        """The writable bytes of one slot (specs' offsets are relative
        to its start)."""
        start = slot * self.slot_bytes
        return self._view[start:start + self.slot_bytes]


class Segment:
    """One named ``MAP_SHARED`` block.

    :meth:`create` in the owning process, :meth:`attach` everywhere
    else; ``buf`` is the writable memoryview NumPy views are built on.
    ``close`` drops this object's handles on the mapping, ``unlink``
    removes the name — either order works, and a mapping stays valid
    after the name is gone (that is what makes eager unlink-on-attach
    leak-proof).
    """

    __slots__ = ("name", "path", "size", "_mmap", "buf", "_closed")

    def __init__(self, name: str, path: str, size: int, mm: mmap.mmap):
        self.name = name
        self.path = path
        self.size = size
        self._mmap = mm
        self.buf = memoryview(mm)
        self._closed = False

    @classmethod
    def create(cls, name: str, size: int,
               directory: Optional[str] = None) -> "Segment":
        path = os.path.join(directory or shm_dir(), name)
        size = max(int(size), 1)
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        try:
            os.ftruncate(fd, size)
            mm = mmap.mmap(fd, size)
        except BaseException:
            os.close(fd)
            try:
                os.unlink(path)
            except OSError:
                pass
            raise
        os.close(fd)
        return cls(name, path, size, mm)

    @classmethod
    def attach(cls, name: str,
               directory: Optional[str] = None) -> "Segment":
        path = os.path.join(directory or shm_dir(), name)
        fd = os.open(path, os.O_RDWR)
        try:
            size = os.fstat(fd).st_size
            mm = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        return cls(name, path, size, mm)

    def close(self) -> None:
        """Drop this object's handles on the mapping.

        Never calls ``mmap.close()``: NumPy views built over the
        segment hold the ``mmap`` object as their ``base`` *without* an
        exported buffer, so an explicit close would unmap pages the
        views still point into (instant use-after-unmap).  Dropping the
        references instead makes refcounting do the right thing — the
        mapping is unmapped the moment the last view (or this object)
        is garbage-collected, and not an instant before.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.buf.release()
        except BufferError:  # pragma: no cover - mv exports are transient
            pass
        self.buf = None
        self._mmap = None

    def unlink(self) -> None:
        """Remove the segment's name; idempotent."""
        try:
            os.unlink(self.path)
        except OSError:
            pass


class ShmRegistry:
    """Owner-side accounting of the segments this process created.

    Names are allocated as ``repro-shm-<pid>-<seq>`` so crash cleanup
    needs nothing but the name (:func:`sweep_stale`).  :meth:`release`
    with ``unlink=False`` *disowns* a segment whose ownership moved to
    another process over the pipe — it stays reclaimable by the sweep
    (the name still carries this pid) until the adopter unlinks it.
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory or shm_dir()
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._owned: Dict[str, Segment] = {}

    def create(self, nbytes: int) -> Segment:
        pid = os.getpid()
        while True:
            name = f"{SHM_PREFIX}-{pid}-{next(self._seq)}"
            try:
                seg = Segment.create(name, nbytes, self.directory)
                break
            except FileExistsError:
                # pid reuse left a stale name behind; try the next seq
                continue
        with self._lock:
            self._owned[name] = seg
        self._gauge()
        return seg

    def release(self, seg: Segment, unlink: bool = True) -> None:
        with self._lock:
            self._owned.pop(seg.name, None)
        seg.close()
        if unlink:
            seg.unlink()
        self._gauge()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "segments": len(self._owned),
                "bytes": sum(s.size for s in self._owned.values()),
            }

    def close(self) -> None:
        """Release and unlink everything still owned (shutdown)."""
        with self._lock:
            owned, self._owned = list(self._owned.values()), {}
        for seg in owned:
            seg.close()
            seg.unlink()
        self._gauge()

    def _gauge(self) -> None:
        if METRICS.enabled:
            s = self.stats()
            METRICS.set("repro_serve_shm_segments", s["segments"])
            METRICS.set("repro_serve_shm_bytes", s["bytes"])


def list_segments(directory: Optional[str] = None) -> List[str]:
    """Every segment name currently present (any owner, dead or alive)."""
    d = directory or shm_dir()
    try:
        names = os.listdir(d)
    except OSError:
        return []
    return sorted(n for n in names if n.startswith(SHM_PREFIX + "-"))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def sweep_stale(directory: Optional[str] = None) -> List[str]:
    """Unlink every segment whose owning pid is dead; returns the names
    removed.  Safe to run concurrently with live traffic: live owners'
    segments are never touched, and unlinking a segment another process
    still has mapped only removes the name, not the pages."""
    d = directory or shm_dir()
    removed: List[str] = []
    for name in list_segments(d):
        try:
            pid = int(name.split("-")[2])
        except (IndexError, ValueError):
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(d, name))
            removed.append(name)
        except OSError:
            pass
    return removed


# -- array layout -------------------------------------------------------

#: descriptor of one array inside a segment: (offset, shape, dtype.str)
ArraySpec = Tuple[int, Tuple[int, ...], str]


def plan_layout(
    items: Iterable[Tuple[Any, Tuple[int, ...], Any]], start: int = 0,
) -> Tuple[int, Dict[Any, ArraySpec]]:
    """Lay arrays out back-to-back from ``start``, 64-byte aligned;
    returns ``(end, {key: (offset, shape, dtype_str)})`` with ``end``
    rounded up to the alignment, so layouts placed back to back (a
    batch's requests, a slot's inputs then outputs) stay aligned and
    their ends add up.

    ``items`` yields ``(key, shape, dtype)``; keys are opaque to the
    layout (the worker protocol uses ``"<request id>/<image name>"``).
    The returned specs are plain picklable tuples — they, not the
    arrays, are what crosses the control pipe.
    """
    specs: Dict[Any, ArraySpec] = {}
    offset = start
    for key, shape, dtype in items:
        dt = np.dtype(dtype)
        offset = -(-offset // _ALIGN) * _ALIGN
        shape = tuple(int(s) for s in shape)
        specs[key] = (offset, shape, dt.str)
        offset += int(np.prod(shape, dtype=np.int64)) * dt.itemsize
    return -(-offset // _ALIGN) * _ALIGN, specs


def write_arrays(seg, specs: Mapping[Any, ArraySpec],
                 arrays: Mapping[Any, np.ndarray]) -> None:
    """Copy each array into its planned place (the producer's single
    copy), cast to the planned dtype as ``astype`` would.  ``seg`` is
    an arena slot's buffer or a :class:`Segment`."""
    buf = getattr(seg, "buf", seg)
    for key, (offset, shape, dtype) in specs.items():
        view = np.ndarray(shape, dtype=np.dtype(dtype),
                          buffer=buf, offset=offset)
        np.copyto(view, arrays[key], casting="unsafe")


def view_arrays(seg,
                specs: Mapping[Any, ArraySpec]) -> Dict[Any, np.ndarray]:
    """Zero-copy views onto planned places of an arena slot's buffer or
    a :class:`Segment`.  The views keep the mapping alive through
    NumPy's base-chaining."""
    buf = getattr(seg, "buf", seg)
    return {
        key: np.ndarray(shape, dtype=np.dtype(dtype),
                        buffer=buf, offset=offset)
        for key, (offset, shape, dtype) in specs.items()
    }
