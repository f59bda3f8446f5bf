"""Shared pipeline fixtures for the test suite."""

import dataclasses
import hashlib
import os
import shutil
import subprocess
import types

import numpy as np
import pytest
from hypothesis import settings

from repro.dsl import (
    Case,
    Condition,
    Float,
    Function,
    Image,
    Int,
    Interval,
    Op,
    Pipeline,
    Reduce,
    Reduction,
    Variable,
)


from repro.errors import InjectedFault
from repro.poly import compute_group_geometry, reuse_carry_dim
from repro.resilience.faults import FaultInjector

# The suite runs one rung below native: ``KernelTier.resolve()`` —
# module-level constants included, hence at import and not in a fixture —
# means the NumPy stage walk over compiled stage kernels, in this process
# and in every subprocess a test spawns.  ``native``-marked tests pass
# ``KernelTier.NATIVE`` or take the ``native_on`` fixture.
os.environ["REPRO_KERNELS"] = "stage"

# Tier-1 is deterministic: every ``@given`` test draws the same examples
# on every run, seeded from the test itself (examples a test's own
# ``database`` holds, as under ``tests/regressions/``, still replay
# first).  ``pytest --hypothesis-profile explore`` draws afresh.
settings.register_profile("deterministic", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("deterministic")

HAVE_GXX = shutil.which("g++") is not None
needs_gxx = pytest.mark.skipif(not HAVE_GXX, reason="g++ not available")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "native: builds and runs native (C) group kernels; needs g++",
    )


@pytest.fixture(scope="session", autouse=True)
def native_artifact_dir(tmp_path_factory):
    """One artifact store per session, never ``~/.cache``: each distinct
    translation unit is compiled once however many tests ask for it."""
    saved = os.environ.get("XDG_CACHE_HOME")
    path = tmp_path_factory.mktemp("xdg-cache")
    os.environ["XDG_CACHE_HOME"] = str(path)
    yield path
    if saved is None:
        os.environ.pop("XDG_CACHE_HOME", None)
    else:
        os.environ["XDG_CACHE_HOME"] = saved


@pytest.fixture(scope="session", autouse=True)
def one_compile_per_unit(tmp_path_factory):
    """Tests that need a store of their own — to count builds, to find a
    verdict on disk — still run the compiler once per distinct command
    and source in this process: a repeat gets a copy of the first
    library.  Everything around the compiler call (fault site, temporary
    name, rename, rebuild of a bad file) runs as it does for real;
    subprocesses a test spawns compile for real.  A test that patches
    ``subprocess.run`` itself sees every compile: the copy is skipped."""
    from repro.runtime import nativestore

    cache = tmp_path_factory.mktemp("compiled")
    real_run = subprocess.run
    built = {}

    def run(args, input=None, **kwargs):
        if subprocess.run is not real_run:
            return subprocess.run(args, input=input, **kwargs)
        out = args.index("-o") + 1
        key = hashlib.sha256(
            "\0".join(args[:out - 1] + args[out + 1:]).encode() + input
        ).hexdigest()
        copy = built.get(key)
        if copy is not None:
            shutil.copyfile(copy, args[out])
            return subprocess.CompletedProcess(args, 0, b"", b"")
        proc = real_run(args, input=input, **kwargs)
        if proc.returncode == 0:
            built[key] = str(cache / key)
            shutil.copyfile(args[out], built[key])
        return proc

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nativestore, "subprocess", types.SimpleNamespace(run=run))
        yield


@pytest.fixture
def native_on(monkeypatch):
    """``KernelTier.resolve()`` — hosts, the CLI, subprocesses — says
    native again for this test."""
    monkeypatch.delenv("REPRO_KERNELS")


def build_blur(rows=94, cols=130):
    """The paper's Fig. 1 blur pipeline (3-channel, 3-tap stencils)."""
    x, y, c = Variable(Int, "x"), Variable(Int, "y"), Variable(Int, "c")
    img = Image(Float, "img", [3, rows + 2, cols + 2])
    cr = Interval(Int, 0, 2)
    blurx = Function(
        ([c, x, y], [cr, Interval(Int, 1, rows), Interval(Int, 0, cols + 1)]),
        Float,
        "blurx",
    )
    blurx.defn = [
        (img(c, x - 1, y) + img(c, x, y) + img(c, x + 1, y)) * (1.0 / 3)
    ]
    blury = Function(
        ([c, x, y], [cr, Interval(Int, 1, rows), Interval(Int, 1, cols)]),
        Float,
        "blury",
    )
    blury.defn = [
        (blurx(c, x, y - 1) + blurx(c, x, y) + blurx(c, x, y + 1)) * (1.0 / 3)
    ]
    return Pipeline([blury], {}, name="blur")


def build_updown(n=200):
    """fine -> downsample -> upsample chain (scaling stress test)."""
    x = Variable(Int, "x")
    base = Image(Float, "base", [n + 2])
    fine = Function(([x], [Interval(Int, 0, n + 1)]), Float, "fine")
    fine.defn = [base(x) * 2.0]
    down = Function(([x], [Interval(Int, 0, n // 2)]), Float, "down")
    down.defn = [(fine(2 * x) + fine(2 * x + 1)) * 0.5]
    up = Function(([x], [Interval(Int, 0, n - 1)]), Float, "up")
    up.defn = [(down(x // 2) + down((x + 1) // 2)) * 0.5]
    return Pipeline([up], {}, name="updown")


def build_histogram(n=64, bins=8):
    """image -> histogram (reduction) -> normalize chain."""
    x, rx, ry = Variable(Int, "x"), Variable(Int, "rx"), Variable(Int, "ry")
    img = Image(Float, "img", [n, n])
    hist = Reduction(
        ([x], [Interval(Int, 0, bins - 1)]),
        ([rx, ry], [Interval(Int, 0, n - 1), Interval(Int, 0, n - 1)]),
        Float,
        "hist",
    )
    from repro.dsl import Cast, Clamp

    bin_idx = Cast(Int, Clamp(img(rx, ry) * float(bins), 0.0, float(bins - 1)))
    hist.defn = [Reduce((bin_idx,), 1.0, Op.Sum)]
    norm = Function(([x], [Interval(Int, 0, bins - 1)]), Float, "norm")
    norm.defn = [hist(x) * (1.0 / (n * n))]
    return Pipeline([norm], {}, name="histogram")


@pytest.fixture
def blur_pipeline():
    return build_blur()


@pytest.fixture
def updown_pipeline():
    return build_updown()


@pytest.fixture
def histogram_pipeline():
    return build_histogram()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_inputs(pipeline, rng):
    """Deterministic random input arrays matching the pipeline's images."""
    inputs = {}
    for img in pipeline.images:
        shape = pipeline.image_shape(img)
        if img.scalar_type.np_dtype.kind in "ui":
            inputs[img.name] = rng.integers(0, 1024, shape).astype(
                img.scalar_type.np_dtype
            )
        else:
            inputs[img.name] = rng.random(shape, dtype=np.float32)
    return inputs


class FailFirstAttempt(FaultInjector):
    """Fails the named ``tile`` checks (``g<group>t<tile>a<attempt>``),
    always, and nothing else."""

    def __init__(self, details):
        super().__init__()
        self.details = set(details)

    def check(self, site, detail=""):
        if site == "tile" and detail in self.details:
            raise InjectedFault(
                "injected fault", site=site, detail=detail, seed=0
            )


def unmemoised_walks(monkeypatch):
    """Plan every group's walk afresh, neither reading nor filling the
    geometry's plan memo — for tests that change the step rule, whose
    plans must not outlive them or be served from before them."""
    from repro.runtime import executor

    monkeypatch.setattr(
        executor, "_walk_plan",
        lambda pipeline, geom, tile_sizes, nthreads, kernel: (
            executor._WalkPlan(pipeline, geom, tile_sizes, kernel, nthreads)
        ),
    )


def force_step_tiles(monkeypatch, k):
    """Make every group with a carry dimension walk steps of ``k`` tiles
    (the carry row's length at most), whatever the point budget says —
    for tests that need a known step layout."""
    from repro.runtime import executor

    unmemoised_walks(monkeypatch)
    monkeypatch.setattr(
        executor, "_step_tiles",
        lambda plans, sizes, cdim, row_len: (
            min(k, row_len) if cdim >= 0 else 1
        ),
    )


def shaped(pipe, grouping, rows, step=7):
    """``grouping`` re-tiled so every group whose grid allows it has
    ``rows`` carry rows of many awkward (``step``-wide, non-dividing)
    tiles: the carry dimension gets ``step``, the widest other dimension
    is cut into ``rows`` pieces, the rest stay whole."""
    tile_sizes = []
    for members, tiles in zip(grouping.groups, grouping.tile_sizes):
        geom = compute_group_geometry(pipe, members)
        if geom is None or not tiles:
            tile_sizes.append(tuple(tiles))
            continue
        ext = geom.grid_extents
        new = list(ext)
        cdim = reuse_carry_dim(geom, [1] * geom.ndim)
        if cdim >= 0:
            new[cdim] = step
            others = [g for g in range(geom.ndim) if g != cdim]
            if others and rows > 1:
                widest = max(others, key=lambda g: ext[g])
                new[widest] = -(-ext[widest] // rows)
        tile_sizes.append(tuple(new))
    return dataclasses.replace(grouping, tile_sizes=tuple(tile_sizes))
