"""C code generation: the program that serves a schedule.

PolyMage is, at the end of the day, a code generator: Fig. 3 of the
paper shows the blur pipeline's generated loop nest — fused tile-space
loops, per-tile scratch buffers for intermediates, and the stages'
intra-tile loops run back-to-back inside each trapezoid tile.
:func:`generate_cpp` prints that program for any
:class:`~repro.fusion.grouping.Grouping`, and it is the code the repo
executes, not a second rendering of it:

* the native translation unit (:mod:`repro.runtime.native`):
  ``RUNTIME_HELPERS``, ``repro_run_steps``, one step entry per tiled
  group and one entry per reduction, printed by the functions that hand
  the artifact store its units — byte for byte, except that
  ``exp``/``log``/``pow`` print through libm here (serving keeps a group
  that uses them on its NumPy kernel),
* one ``void pipeline_run(...)`` taking the input images and the
  pipeline outputs as flat row-major arrays: per tiled group one baked
  step table — the single chunk the executor walks at one thread, what
  ``repro run`` and ``repro serve`` execute at their
  default ``--threads 1`` — run by one ``repro_run_steps`` call over a
  private copy with the buffer pointers filled in; per reduction one
  descriptor and one call; any other untiled stage as a full-domain
  loop nest.

Values are printed by the typed printer (:mod:`repro.codegen.cexpr`):
every operation in the dtype NumPy computes it in, so — compiled
``-fwrapv -fno-fast-math -ffp-contract=off`` — the output is
*bit-identical* to the interpreter's wherever the pipeline stays inside
the printer's exact operator set; ``exp``/``log``/``pow`` go through libm
and agree to the last place or two.  Reductions accumulate like
``np.add.at`` does: in the promoted type of accumulator and value, chunk
by chunk of the outermost reduction dimension, rule by rule, point by
point.

The output is plain C, self-contained (no dependency on this package),
compiled like the store's units (``-x c -O3``, the flags above) and
validated in the test suite against the interpreter.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..dsl.function import Function, Op, Reduction
from ..dsl.pipeline import Pipeline
from ..fusion.grouping import Grouping
from .cexpr import (
    C_TYPES,
    CBuffer,
    CVal,
    ExprPrinter,
    RUNTIME_HELPERS,
    STEP_LOOP,
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

    The one printer of reductions: the native emitter
    (:mod:`repro.runtime.native`) hands it buffers bound from its
    descriptor.  ``out_buf`` covers the stage's whole domain; a target
    outside it is skipped."""
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


def _domain_buffer(
    pipeline: Pipeline, stage: Function, name: str
) -> CBuffer:
    """``stage``'s full-domain buffer, held in C variable ``name``."""
    dom = pipeline.domain(stage)
    return CBuffer(
        name, [lo for lo, _ in dom], [hi - lo + 1 for lo, hi in dom]
    )


def _slot(buf: CBuffer) -> List[str]:
    """A descriptor's buffer slot for ``buf``: pointer, origin…, shape…"""
    return [f"(int64_t)(uintptr_t){buf.name}", *buf.origin, *buf.extents]


def generate_cpp(
    pipeline: Pipeline,
    grouping: Grouping,
    function_name: str = "pipeline_run",
) -> str:
    """The C translation unit that serves ``grouping``, as a program.

    The entry point is::

        void <function_name>(const T0 *restrict <image0>, ...,
                             T *restrict out_<liveout0>, ...);

    taking every input image and every pipeline output as flat row-major
    arrays at the sizes baked in from the pipeline's parameter binding.
    Everything it runs is in the module docstring; nothing is compiled
    and the artifact store is not touched.
    """
    from ..runtime import executor, native

    if grouping.pipeline is not pipeline:
        raise ValueError("grouping was built for a different pipeline")

    # images and pipeline outputs are parameters; every other buffer a
    # group hands on is allocated at its first use
    buffers: Dict[str, CBuffer] = {}
    params: List[str] = []
    for img in pipeline.images:
        shape = pipeline.image_shape(img)
        buffers[img.name] = CBuffer(img.name, [0] * len(shape), list(shape))
        params.append(
            f"const {ctype_of(img.scalar_type)} *restrict {img.name}"
        )
    for out in pipeline.outputs:
        name = f"out_{out.name}"
        buffers[out.name] = _domain_buffer(pipeline, out, name)
        params.append(f"{ctype_of(out.scalar_type)} *restrict {name}")

    em = _Emitter()
    em.depth = 1
    temps: List[str] = []

    def full(stage: Function) -> CBuffer:
        """``stage``'s full buffer, allocated at its first use."""
        if stage.name not in buffers:
            name = f"__full_{stage.name}"
            ct = ctype_of(stage.scalar_type)
            em.line(
                f"{ct} *{name} = calloc({pipeline.domain_size(stage)}, "
                f"sizeof({ct}));"
            )
            temps.append(name)
            buffers[stage.name] = _domain_buffer(pipeline, stage, name)
        return buffers[stage.name]

    entries: List[str] = []
    tables: List[str] = []
    count = {"step": 0, "reduce": 0}

    def entry(kind: str, emit, unit):
        symbol = f"repro_{kind}_{count[kind]}"
        count[kind] += 1
        source, make = emit(pipeline, unit, symbol, libm=True)
        entries.append(source)
        return symbol, make

    printer = ExprPrinter(buffers, pipeline.env, libm=True)
    for gi, (members, tiles) in enumerate(
        zip(grouping.groups, grouping.tile_sizes)
    ):
        names = "+".join(sorted(s.name for s in members))
        geom = executor._tiled_geometry(pipeline, members)
        if geom is None:
            em.line(f"// group {gi}: {names} (untiled)")
            for s in pipeline.stages:
                if s not in members:
                    continue
                out = full(s)
                if isinstance(s, Reduction):
                    symbol, _ = entry("reduce", native._native_reduction, s)
                    words = [
                        w for name in native._reduction_producers(pipeline, s)
                        for w in _slot(buffers[name])
                    ]
                    em.line(
                        f"{{ const int64_t __d[] = "
                        f"{{{', '.join(words + _slot(out))}}}; "
                        f"{symbol}(__d); }}"
                    )
                else:
                    _emit_stage_body(
                        em, printer, s,
                        [(str(lo), str(hi)) for lo, hi in pipeline.domain(s)],
                        out,
                    )
            continue
        symbol, make = entry("step", native._native_group, geom)
        plan = executor._WalkPlan(pipeline, geom, tiles, make(None, None), 1)
        (chunk,) = plan.chunks
        table = chunk.table
        if table.missing is not None:
            # what running the table raises too
            raise KeyError(table.missing)
        nrows, words = table.rows.shape
        em.line(
            f"// group {gi}: {names}, {chunk.ntiles} tiles in {nrows} "
            f"steps of {symbol}"
        )
        for s in geom.liveouts:
            full(s)
        baked = f"repro_table_{count['step'] - 1}"
        values = [str(v) for v in table.rows.reshape(-1).tolist()]
        tables.append(
            f"static const int64_t {baked}[{len(values)}] = {{\n"
            + "".join(
                f"    {', '.join(values[i:i + 16])},\n"
                for i in range(0, len(values), 16)
            )
            + "};\n"
        )
        em.open("{")
        em.line(f"int64_t *__tab = malloc(sizeof {baked});")
        em.line(f"unsigned char *__arena = malloc({table.arena});")
        em.line(f"memcpy(__tab, {baked}, sizeof {baked});")
        em.open(f"for (int64_t __r = 0; __r < {nrows}; ++__r) {{")
        em.line(f"int64_t *__d = __tab + __r * {words};")
        ext = [w for name, _ in table.ext for w in _slot(buffers[name])]
        for col, word in zip(table.ext_cols.tolist(), ext):
            em.line(f"__d[{col}] = {word};")
        # every row's pointer words, as offsets into what they point into;
        # a slot a row leaves unused is never read
        into = ["__arena"] + [buffers[name].name for name in table.outs]
        for col, src in sorted(set(zip(
            (table.flat % words).tolist(), table.src.tolist()
        ))):
            em.line(f"__d[{col}] += (int64_t)(uintptr_t){into[src]};")
        em.close()
        em.line(f"repro_run_steps({symbol}, __tab, {nrows}, {words});")
        em.line("free(__arena);")
        em.line("free(__tab);")
        em.close()
    for name in temps:
        em.line(f"free({name});")

    return (
        f"// Generated by repro.codegen for pipeline '{pipeline.name}': "
        f"the native\n"
        f"// translation unit that serves this grouping, and a "
        f"{function_name} that\n"
        f"// runs each tiled group's baked step table in one call.\n"
        f"// Compile as C: -O3 -fwrapv -fno-fast-math -ffp-contract=off.\n"
        f"#include <stdlib.h>\n"
        + RUNTIME_HELPERS + STEP_LOOP + "".join(entries) + "\n"
        + "".join(tables) + "\n"
        + f"void {function_name}({', '.join(params)})\n{{\n"
        + em.text() + "}\n"
    )


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
    em.line("#include <stdio.h>")
    em.line("#include <stdlib.h>")
    em.line("")
    sig_parts = []
    for img in pipeline.images:
        sig_parts.append(f"const {ctype_of(img.scalar_type)}*")
    for out in pipeline.outputs:
        sig_parts.append(f"{ctype_of(out.scalar_type)}*")
    em.line(f"void {function_name}({', '.join(sig_parts)});")
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
