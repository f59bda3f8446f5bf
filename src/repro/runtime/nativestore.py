"""Content-addressed on-disk store of compiled native kernels.

A translation unit is compiled once per machine, ``g++`` with
:data:`FLAGS` (``-O3``, exact float semantics, no ``-march``): the
artifact's name is
``sha256(source + flags + compiler identity)``, so a later boot, a later
``repro run`` or another process asking for the same source ``dlopen``\\ s
what the first one built.  The store lives in a *user-private*
directory — ``<schedule cache>/native`` when a schedule-cache directory
is configured, else ``${XDG_CACHE_HOME:-~/.cache}/repro/native`` — that
must be owned by the effective uid and closed to group and others (mode
``0700``, created that way), because what is in it gets loaded into the
process; a directory that is not is refused, never repaired.

Artifacts are written atomically (the compiler writes a process-unique
temporary name in the same directory, then ``os.replace``), so a
concurrent builder or a crash never leaves a partial file under the
final name; two processes building the same key both end up with a
loadable artifact.  A file that is shorter than its own header says or
that the loader refuses (truncated, wrong architecture) is removed and
rebuilt once.

Every failure is a :class:`repro.errors.KernelNativeError` with a
``reason`` slug; the caller (:mod:`repro.runtime.native`) turns it into
one warning and the NumPy kernels.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import struct
import subprocess
import tempfile
import threading
import time
from typing import Dict, Optional, Tuple

from ..errors import KernelNativeError
from ..resilience.faults import maybe_fail

__all__ = ["FLAGS", "compiler", "store_dir", "artifact_key", "load"]

#: what every artifact is compiled with.  ``-O3``: the interior nests
#: vectorise, which is exact for element-wise code under the next two
#: (C time per warm request at scale 0.1, CP 2.85 -> 1.9 ms, PB 4.1 ->
#: 2.8 ms against ``-O2``; first builds take about twice as long).
#: ``-fwrapv`` (integer overflow wraps, like NumPy), ``-fno-fast-math
#: -ffp-contract=off`` (no reassociation, no fused multiply-add: every
#: float op rounds once, in its own type, and reductions stay serial).
#: No ``-march``: the key does not carry the CPU's feature set, so the
#: code must run on any CPU of the architecture (``-march=native`` read
#: within noise of plain ``-O3`` end to end).  ``-x c``: the source is
#: plain C — no libstdc++ headers to parse.
FLAGS: Tuple[str, ...] = (
    "-O3", "-fwrapv", "-fno-fast-math", "-ffp-contract=off",
    "-fPIC", "-shared", "-x", "c",
)

#: artifacts this process has loaded, by key.  A loaded library is never
#: unloaded: kernels hold its functions for the life of the process.
_LOADED: Dict[str, ctypes.CDLL] = {}
_LOCK = threading.Lock()


def compiler() -> Tuple[str, str]:
    """``(path, identity)`` of the compiler artifacts are built with;
    the identity (resolved path, size, mtime) is part of every key, so
    an upgraded compiler never reuses its predecessor's artifacts."""
    path = shutil.which("g++")
    if path is None:
        raise KernelNativeError(
            "no g++ on PATH", reason="no-compiler",
        )
    real = os.path.realpath(path)
    st = os.stat(real)
    return path, f"{real}:{st.st_size}:{st.st_mtime_ns}"


def store_dir(schedule_cache: Optional[str] = None) -> str:
    """Where artifacts live (see module docstring); not created here."""
    if schedule_cache:
        return os.path.join(schedule_cache, "native")
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "native")


def _private_dir(path: str) -> str:
    """``path``, created ``0700`` if missing; refused unless it is a
    directory owned by the effective uid with no group/other access."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError as exc:
        raise KernelNativeError(
            f"artifact directory {path!r} is unusable: {exc}",
            reason="cache-dir",
        ) from exc
    if not stat.S_ISDIR(st.st_mode):
        raise KernelNativeError(
            f"artifact directory {path!r} is not a directory",
            reason="cache-dir",
        )
    if st.st_uid != os.geteuid() or stat.S_IMODE(st.st_mode) & 0o077:
        raise KernelNativeError(
            f"artifact directory {path!r} must be owned by uid "
            f"{os.geteuid()} with mode 0700 (found uid {st.st_uid}, mode "
            f"{stat.S_IMODE(st.st_mode):04o}); not used",
            reason="cache-dir",
        )
    return path


def artifact_key(source: str, identity: str) -> str:
    h = hashlib.sha256()
    for part in (source, "\0", " ".join(FLAGS), "\0", identity):
        h.update(part.encode())
    return h.hexdigest()


def _build(cc: str, source: str, final: str) -> None:
    """Compile ``source`` to ``final`` atomically."""
    directory = os.path.dirname(final)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(final) + ".", suffix=".tmp", dir=directory
    )
    os.close(fd)
    try:
        maybe_fail("native_build", detail=os.path.basename(final))
        proc = subprocess.run(
            [cc, *FLAGS, "-o", tmp, "-"],
            input=source.encode(), capture_output=True,
        )
        if proc.returncode != 0:
            raise KernelNativeError(
                f"{cc} exited {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace')[-800:]}",
                reason="build",
            )
        os.chmod(tmp, 0o700)
        os.replace(tmp, final)
    except KernelNativeError:
        raise
    except Exception as exc:  # noqa: BLE001 - injected fault, OSError
        raise KernelNativeError(
            f"building {os.path.basename(final)} failed: {exc}",
            reason="build",
        ) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _complete(path: str) -> bool:
    """Whether the file at ``path`` is as long as its own ELF header says
    (the section-header table ends the file, so any truncation shows).
    The loader does not check: it maps a truncated library and the
    process dies of ``SIGBUS`` on first touch.  Anything that is not
    little-endian ELF64 is left to the loader."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(64)
        size = os.path.getsize(path)
    except OSError:
        return False
    if len(head) < 64:
        return False
    if head[:6] != b"\x7fELF\x02\x01":
        return True
    (shoff,) = struct.unpack_from("<Q", head, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", head, 0x3A)
    return shoff + shentsize * shnum <= size


def load(
    source: str, schedule_cache: Optional[str] = None
) -> Tuple[ctypes.CDLL, str, Optional[float]]:
    """The loaded library for ``source``: ``(library, artifact path,
    build seconds)``, the last ``None`` when nothing was compiled — the
    artifact was already loaded in this process or found in the store."""
    cc, identity = compiler()
    key = artifact_key(source, identity)
    with _LOCK:
        lib = _LOADED.get(key)
        path = os.path.join(store_dir(schedule_cache), key + ".so")
        if lib is not None:
            return lib, path, None
        _private_dir(os.path.dirname(path))
        seconds = None
        for _ in range(2):  # what is there, then one rebuild
            if not os.path.exists(path):
                if seconds is not None:
                    break  # built once already and it did not stay
                t0 = time.perf_counter()
                _build(cc, source, path)
                seconds = time.perf_counter() - t0
            try:
                if not _complete(path):
                    raise OSError("file is truncated")
                lib = ctypes.CDLL(path)
                break
            except OSError as exc:
                # not loadable: drop it; the first time, rebuild
                error = exc
                try:
                    os.unlink(path)
                except OSError:
                    pass
        if lib is None:
            raise KernelNativeError(
                f"artifact {path!r} will not load: {error}", reason="load",
            )
        _LOADED[key] = lib
        return lib, path, seconds
