"""C++/OpenMP code generation for scheduled pipelines.

PolyMage is, at the end of the day, a C++ code generator: Fig. 3 of the
paper shows the blur pipeline's generated loop nest — fused tile-space
loops under ``#pragma omp parallel for``, per-tile scratch buffers for
intermediates, and the stages' intra-tile loops run back-to-back inside
each trapezoid tile.  This module emits exactly that shape for any
:class:`~repro.fusion.grouping.Grouping`:

* one ``extern "C" void pipeline_run(...)`` taking the input images and
  the pipeline outputs as flat row-major arrays,
* per fused group, tile loops over the group's scaled grid with the
  first two dimensions collapsed, per-stage region bounds computed with
  the same floor/ceil arithmetic the NumPy executor uses, scratch
  buffers folded into slots by the storage optimizer
  (:mod:`repro.runtime.storage`), and live-outs copied from scratch to
  their full buffers tile by tile,
* reductions and geometry-less groups as untiled loop nests.

Values are printed by the typed printer (:mod:`repro.codegen.cexpr`,
the one the native group kernels use): every operation in the dtype NumPy
computes it in, so — compiled ``-fwrapv -fno-fast-math
-ffp-contract=off`` — the output is *bit-identical* to the interpreter's
wherever the pipeline stays inside the printer's exact operator set;
``exp``/``log``/``pow`` go through libm and agree to the last place or
two.  Reductions accumulate like ``np.add.at`` does: in the promoted type
of accumulator and value, chunk by chunk of the outermost reduction
dimension, rule by rule, point by point.

The generated code is self-contained (no dependency on this package) and
is validated in the test suite by compiling it with g++ and comparing its
output against the interpreter.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..dsl.function import Function, Op, Reduction
from ..dsl.image import Image
from ..dsl.pipeline import Pipeline
from ..fusion.grouping import Grouping
from ..poly.alignscale import GroupGeometry, compute_group_geometry
from ..runtime.storage import plan_storage
from .cexpr import (
    C_TYPES,
    CBuffer,
    CVal,
    ExprPrinter,
    RUNTIME_HELPERS,
    literal,
    ctype_of,
)

__all__ = ["generate_cpp", "generate_main"]


class _Emitter:
    def __init__(self):
        self.lines: List[str] = []
        self.depth = 0

    def line(self, text: str = "") -> None:
        self.lines.append("    " * self.depth + text if text else "")

    def open(self, text: str) -> None:
        self.line(text)
        self.depth += 1

    def close(self, text: str = "}") -> None:
        self.depth -= 1
        self.line(text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _ceildiv(a: str, b: int) -> str:
    return f"r_floordiv_i64(({a}) + {b - 1}, {b})"


def _stage_bound_exprs(
    geom: GroupGeometry,
    stage: Function,
    pipeline: Pipeline,
    tile_vars: Sequence[str],
    tile_sizes: Sequence[int],
    radii,
    expand: bool,
) -> List[Tuple[str, str]]:
    """C expressions for the stage's per-dimension (lo, hi) in one tile —
    mirrors ``repro.runtime.executor._stage_region``."""
    dom = pipeline.domain(stage)
    out = []
    for j, g in enumerate(geom.align[stage]):
        left, right = radii[stage][g] if expand else (0, 0)
        rlo = f"({tile_vars[g]} - {left})"
        rhi_plus1 = f"({tile_vars[g]} + {tile_sizes[g] + right})"
        s = geom.scale[stage][j]
        num, den = s.numerator, s.denominator
        # points p with p*s in [rlo, rhi+1): lo = ceil(rlo/s) (floor when
        # expanding), hi = ceil((rhi+1)/s) - 1
        lo_ceil = _ceildiv(f"({rlo}) * {den}", num)
        if expand:
            lo = f"r_floordiv_i64(({rlo}) * {den}, {num})"
        else:
            lo = lo_ceil
        hi = f"{_ceildiv(f'({rhi_plus1}) * {den}', num)} - 1"
        out.append(
            (
                f"r_max_i64({lo}, {dom[j][0]})",
                f"r_min_i64({hi}, {dom[j][1]})",
            )
        )
    return out


def _max_scratch_extents(
    geom: GroupGeometry,
    stage: Function,
    pipeline: Pipeline,
    tile_sizes: Sequence[int],
    radii,
) -> List[int]:
    """Safe upper bound on a stage's per-tile region extents."""
    dom_ext = pipeline.domain_extents(stage)
    out = []
    for j, g in enumerate(geom.align[stage]):
        left, right = radii[stage][g]
        s = geom.scale[stage][j]
        span = tile_sizes[g] + left + right + 1
        ext = int(math.ceil(span * s.denominator / s.numerator)) + 2
        out.append(min(dom_ext[j], ext))
    return out


def _emit_stage_body(
    em: _Emitter,
    printer: ExprPrinter,
    stage: Function,
    bounds_vars: List[Tuple[str, str]],
    out_buf: CBuffer,
) -> None:
    """The stage's loop nest, storing into ``out_buf``."""
    loop_vars = [v.name for v in stage.variables]
    for j, v in enumerate(loop_vars):
        lo, hi = bounds_vars[j]
        pragma = "" if j < stage.ndim - 1 else "#pragma GCC ivdep"
        if pragma:
            em.line(pragma)
        em.open(f"for (int64_t {v} = {lo}; {v} <= {hi}; ++{v}) {{")
    value = printer.body(stage.defn, stage.scalar_type.np_dtype)
    em.line(f"{out_buf.name}[{out_buf.index_expr(loop_vars)}] = {value};")
    for _ in loop_vars:
        em.close()


def _emit_reduction(
    em: _Emitter,
    printer: ExprPrinter,
    pipeline: Pipeline,
    stage: Reduction,
    out_buf: CBuffer,
) -> None:
    """A reduction in the interpreter's order (``_compute_reduction``):
    chunks of ``_REDUCTION_CHUNK`` rows of the outermost reduction
    dimension, each rule over the whole chunk, points row-major; every
    update computed like ``ufunc.at`` does, in the promoted type of
    accumulator and value, then stored in the accumulator's.

    The one printer of reductions: the whole-program generator hands it
    buffers whose origins and extents are constants, the native emitter
    (:mod:`repro.runtime.native`) ones bound from its descriptor.
    ``out_buf`` covers the stage's whole domain; a target outside it is
    skipped."""
    from ..runtime.executor import _REDUCTION_CHUNK

    dtype = stage.scalar_type.np_dtype
    ctype = ctype_of(stage.scalar_type)
    em.line(f"// reduction {stage.name} (serial, as PolyMage leaves them)")
    em.open("{")
    fill = literal(dtype.type(stage.default), dtype)
    em.line(
        f"for (int64_t __i = 0; __i < {' * '.join(out_buf.extents)}; "
        f"++__i) {out_buf.name}[__i] = {fill};"
    )
    rdom = stage.resolve_reduction_domain(pipeline.env)
    rvars = [
        printer.var_names.get(v.name, v.name)
        for v in stage.reduction_variables
    ]
    (r0_lo, r0_hi) = rdom[0]
    em.open(
        f"for (int64_t __c = {r0_lo}; __c <= {r0_hi}; "
        f"__c += {_REDUCTION_CHUNK}) {{"
    )
    em.line(
        f"const int64_t __ce = r_min_i64(__c + {_REDUCTION_CHUNK - 1}, "
        f"{r0_hi});"
    )
    for rule in stage.defn:
        em.open(
            f"for (int64_t {rvars[0]} = __c; {rvars[0]} <= __ce; "
            f"++{rvars[0]}) {{"
        )
        for v, (lo, hi) in zip(rvars[1:], rdom[1:]):
            em.open(f"for (int64_t {v} = {lo}; {v} <= {hi}; ++{v}) {{")
        guards = []
        names = []
        for d, index in enumerate(rule.indices):
            name = f"__t{d}"
            em.line(f"const int64_t {name} = {printer.int_expr(index)};")
            guards.append(
                f"{name} >= {out_buf.origin[d]} && "
                f"{name} < {out_buf.origin[d]} + {out_buf.extents[d]}"
            )
            names.append(name)
        flat = out_buf.index_expr(names, clamp=False)
        # np.asarray(value): a Python scalar takes NumPy's default dtype
        value = printer.strong(printer.typed(rule.value))
        wide = np.result_type(dtype, value.dtype)
        wtype, sfx = C_TYPES[wide]
        acc = printer.convert(CVal(f"{out_buf.name}[{flat}]", dtype), wide)
        val = printer.convert(value, wide)
        em.open(f"if ({' && '.join(guards)}) {{")
        if rule.op == Op.Sum:
            update = f"({wtype})({acc} + {val})"
        elif rule.op == Op.Max:
            update = f"r_max_{sfx}({acc}, {val})"
        else:
            update = f"r_min_{sfx}({acc}, {val})"
        em.line(f"{out_buf.name}[{flat}] = ({ctype})({update});")
        em.close()  # guard
        for _ in rdom:
            em.close()
    em.close()  # chunk
    em.close()


def generate_cpp(
    pipeline: Pipeline,
    grouping: Grouping,
    fold_storage: bool = True,
    function_name: str = "pipeline_run",
) -> str:
    """Generate a self-contained C++ translation unit for ``grouping``.

    The emitted entry point is::

        extern "C" void <function_name>(const T0* <image0>, ...,
                                        T* out_<liveout0>, ...);

    taking every input image and every pipeline output as flat row-major
    arrays at the sizes baked in from the pipeline's parameter binding.
    With ``fold_storage`` the per-tile scratch buffers of each group are
    folded into slots by liveness (only applied when the group's stages
    share one element type).
    """
    if grouping.pipeline is not pipeline:
        raise ValueError("grouping was built for a different pipeline")

    em = _Emitter()
    em.line("// Generated by repro.codegen — PolyMage-style fused,")
    em.line(f"// overlap-tiled C++ for pipeline '{pipeline.name}'.")
    em.line("// Compile with -fwrapv -fno-fast-math -ffp-contract=off.")
    em.line("#include <vector>")
    em.line("#ifdef _OPENMP")
    em.line("#include <omp.h>")
    em.line("#endif")
    em.line("")
    for helper in RUNTIME_HELPERS.splitlines():
        em.line(helper)
    em.line("")

    # --- global buffers: images + pipeline outputs are parameters;
    # cross-group intermediates are locals.
    buffers: Dict[str, CBuffer] = {}
    params: List[str] = []
    for img in pipeline.images:
        shape = pipeline.image_shape(img)
        buffers[img.name] = CBuffer(img.name, [0] * len(shape), list(shape))
        params.append(f"const {ctype_of(img.scalar_type)}* {img.name}")
    out_names = []
    for out in pipeline.outputs:
        dom = pipeline.domain(out)
        name = f"out_{out.name}"
        buffers[out.name] = CBuffer(
            name, [lo for lo, _ in dom], [hi - lo + 1 for lo, hi in dom]
        )
        params.append(f"{ctype_of(out.scalar_type)}* {name}")
        out_names.append(out.name)

    em.line(f'extern "C" void {function_name}({", ".join(params)})')
    em.open("{")

    # Local full buffers for group live-outs that are not pipeline outputs.
    for members in grouping.groups:
        geom = compute_group_geometry(pipeline, members)
        liveouts = geom.liveouts if geom is not None else [
            s for s in members
            if pipeline.is_output(s)
            or any(c not in members for c in pipeline.consumers(s))
        ]
        for s in members:
            needs_full = s in liveouts or geom is None or (
                len(members) == 1 and isinstance(s, Reduction)
            )
            if not needs_full or s.name in buffers:
                continue
            dom = pipeline.domain(s)
            size = pipeline.domain_size(s)
            ctype = ctype_of(s.scalar_type)
            em.line(
                f"std::vector<{ctype}> __full_{s.name}({size});"
            )
            buffers[s.name] = CBuffer(
                f"__full_{s.name}.data()",
                [lo for lo, _ in dom],
                [hi - lo + 1 for lo, hi in dom],
            )
    em.line("")

    printer_global = ExprPrinter(buffers, pipeline.env, libm=True)

    for gi, (members, tiles) in enumerate(
        zip(grouping.groups, grouping.tile_sizes)
    ):
        names = "+".join(sorted(s.name for s in members))
        geom = compute_group_geometry(pipeline, members)
        singleton_reduction = len(members) == 1 and isinstance(
            next(iter(members)), Reduction
        )
        em.line(f"// ---- group {gi}: {names}")
        if geom is None or singleton_reduction:
            _emit_untiled_group(em, pipeline, members, buffers, printer_global)
            continue
        _emit_tiled_group(
            em, pipeline, geom, tiles, buffers, fold_storage
        )
        em.line("")

    em.close("}")
    return em.text()


def _emit_untiled_group(em, pipeline, members, buffers, printer) -> None:
    """Geometry-less groups and lone reductions: full-domain loop nests in
    topological order (intermediates get local full buffers)."""
    member_list = [s for s in pipeline.stages if s in members]
    for s in member_list:
        if s.name not in buffers:
            dom = pipeline.domain(s)
            ctype = ctype_of(s.scalar_type)
            em.line(
                f"std::vector<{ctype}> __full_{s.name}({pipeline.domain_size(s)});"
            )
            buffers[s.name] = CBuffer(
                f"__full_{s.name}.data()",
                [lo for lo, _ in dom],
                [hi - lo + 1 for lo, hi in dom],
            )
    for s in member_list:
        if isinstance(s, Reduction):
            _emit_reduction(em, printer, pipeline, s, buffers[s.name])
            continue
        dom = pipeline.domain(s)
        em.line(f"// stage {s.name} (untiled)")
        em.open("{")
        if dom[0][1] - dom[0][0] > 0:
            em.line("#ifdef _OPENMP")
            em.line("#pragma omp parallel for schedule(static)")
            em.line("#endif")
        bounds = [(str(lo), str(hi)) for lo, hi in dom]
        _emit_stage_body(em, printer, s, bounds, buffers[s.name])
        em.close()
    em.line("")


def _emit_tiled_group(
    em, pipeline, geom: GroupGeometry, tiles, buffers, fold_storage
) -> None:
    radii = geom.expansion_radii()
    tile_vars = [f"__t{g}" for g in range(geom.ndim)]

    # Storage plan: fold scratch into slots when element types agree.
    dtypes = {s.scalar_type.name for s in geom.stages}
    plan = None
    if fold_storage and len(dtypes) == 1:
        plan = plan_storage(pipeline, geom, tiles)

    max_ext = {
        s: _max_scratch_extents(geom, s, pipeline, tiles, radii)
        for s in geom.stages
    }

    collapse = min(2, geom.ndim)
    em.line("#ifdef _OPENMP")
    em.line(
        f"#pragma omp parallel for schedule(static) collapse({collapse})"
    )
    em.line("#endif")
    for g in range(geom.ndim):
        lo, hi = geom.grid_bounds[g]
        em.open(
            f"for (int64_t {tile_vars[g]} = {lo}; {tile_vars[g]} <= {hi}; "
            f"{tile_vars[g]} += {tiles[g]}) {{"
        )

    # Scratch declarations.
    if plan is not None:
        elem = ctype_of(next(iter(geom.stages)).scalar_type)
        slot_elems = [0] * plan.num_slots
        for s in geom.stages:
            size = 1
            for e in max_ext[s]:
                size *= e
            slot = plan.slot_of[s]
            slot_elems[slot] = max(slot_elems[slot], size)
        for i, size in enumerate(slot_elems):
            em.line(f"std::vector<{elem}> __slot{i}({size});")
        scratch_name = {
            s: f"__slot{plan.slot_of[s]}.data()" for s in geom.stages
        }
    else:
        for s in geom.stages:
            size = 1
            for e in max_ext[s]:
                size *= e
            em.line(
                f"std::vector<{ctype_of(s.scalar_type)}> __buf_{s.name}({size});"
            )
        scratch_name = {s: f"__buf_{s.name}.data()" for s in geom.stages}

    # Per-stage regions, bodies, live-out copies.
    local_buffers = dict(buffers)
    for s in geom.stages:
        exprs = _stage_bound_exprs(
            geom, s, pipeline, tile_vars, tiles, radii, expand=True
        )
        lo_names, hi_names = [], []
        for j, (lo, hi) in enumerate(exprs):
            em.line(f"int64_t {s.name}_lo{j} = {lo};")
            em.line(f"int64_t {s.name}_hi{j} = {hi};")
            lo_names.append(f"{s.name}_lo{j}")
            hi_names.append(f"{s.name}_hi{j}")
        empty = " || ".join(
            f"{l} > {h}" for l, h in zip(lo_names, hi_names)
        )
        local_buffers[s.name] = CBuffer(
            scratch_name[s],
            lo_names,
            [f"{h} - {l} + 1" for l, h in zip(lo_names, hi_names)],
        )
        printer = ExprPrinter(local_buffers, pipeline.env, libm=True)
        em.open(f"if (!({empty})) {{")
        em.line(f"// stage {s.name}")
        _emit_stage_body(
            em, printer, s, list(zip(lo_names, hi_names)),
            local_buffers[s.name],
        )
        em.close()

        if s in geom.liveouts:
            base = _stage_bound_exprs(
                geom, s, pipeline, tile_vars, tiles, radii, expand=False
            )
            blo, bhi = [], []
            for j, (lo, hi) in enumerate(base):
                em.line(f"int64_t {s.name}_blo{j} = {lo};")
                em.line(f"int64_t {s.name}_bhi{j} = {hi};")
                blo.append(f"{s.name}_blo{j}")
                bhi.append(f"{s.name}_bhi{j}")
            em.line(f"// copy {s.name} base region to its full buffer")
            copy_vars = [f"__c{j}" for j in range(s.ndim)]
            for j, v in enumerate(copy_vars):
                em.open(
                    f"for (int64_t {v} = {blo[j]}; {v} <= {bhi[j]}; "
                    f"++{v}) {{"
                )
            dst = buffers[s.name]
            src = local_buffers[s.name]
            em.line(
                f"{dst.name}[{dst.index_expr(copy_vars)}] = "
                f"{src.name}[{src.index_expr(copy_vars)}];"
            )
            for _ in copy_vars:
                em.close()

    for _ in range(geom.ndim):
        em.close()


def generate_main(
    pipeline: Pipeline,
    function_name: str = "pipeline_run",
) -> str:
    """A ``main()`` harness for the generated code: reads each input image
    from a raw binary file given on the command line (in pipeline image
    order), runs the pipeline once, and writes each output to the
    remaining paths — the hook the compile-and-compare tests use.  It
    times nothing: what the repo measures is the executor
    (:func:`repro.planner.executor_oracle`).
    """
    em = _Emitter()
    em.line("#include <cstdio>")
    em.line("#include <cstdlib>")
    em.line("")
    sig_parts = []
    for img in pipeline.images:
        sig_parts.append(f"const {ctype_of(img.scalar_type)}*")
    for out in pipeline.outputs:
        sig_parts.append(f"{ctype_of(out.scalar_type)}*")
    em.line(f'extern "C" void {function_name}({", ".join(sig_parts)});')
    em.line("")
    em.open("int main(int argc, char** argv) {")
    n_in = len(pipeline.images)
    n_out = len(pipeline.outputs)
    em.line(f"if (argc != 1 + {n_in} + {n_out}) return 2;")
    args = []
    for i, img in enumerate(pipeline.images):
        size = 1
        for e in pipeline.image_shape(img):
            size *= e
        ctype = ctype_of(img.scalar_type)
        em.line(f"{ctype}* in{i} = ({ctype}*)malloc({size}ul * sizeof({ctype}));")
        em.open(f"{{ FILE* f = fopen(argv[{1 + i}], \"rb\");")
        em.line("if (!f) return 3;")
        em.line(f"if (fread(in{i}, sizeof({ctype}), {size}, f) != {size}) return 4;")
        em.line("fclose(f); }")
        em.depth -= 1
        args.append(f"in{i}")
    for i, out in enumerate(pipeline.outputs):
        size = pipeline.domain_size(out)
        ctype = ctype_of(out.scalar_type)
        em.line(f"{ctype}* out{i} = ({ctype}*)calloc({size}ul, sizeof({ctype}));")
        args.append(f"out{i}")
    em.line(f"{function_name}({', '.join(args)});")
    for i, out in enumerate(pipeline.outputs):
        size = pipeline.domain_size(out)
        ctype = ctype_of(out.scalar_type)
        em.open(f"{{ FILE* f = fopen(argv[{1 + n_in + i}], \"wb\");")
        em.line("if (!f) return 5;")
        em.line(f"fwrite(out{i}, sizeof({ctype}), {size}, f);")
        em.line("fclose(f); }")
        em.depth -= 1
    em.line("return 0;")
    em.close()
    return em.text()
