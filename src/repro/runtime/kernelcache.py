"""Compiled stage kernels: lower a stage body to flat NumPy source once.

The interpreter (:mod:`repro.runtime.evalexpr`) re-walks each stage's
expression tree for every region it evaluates — for tiled execution that
means a full recursive tree walk, environment-dict construction, and
``isinstance`` dispatch per *tile*, which dominates wall clock long before
the locality/parallelism trade-off the paper's cost model reasons about.
Halide-lineage systems compile each stage once and run the compiled
kernel per tile; this module is the NumPy equivalent of that split.

:func:`compile_stage_kernel` lowers a (non-reduction) stage definition —
including ``Case`` branches, ``Select``, math intrinsics, ``Cast`` and
up/downsample ``Access`` index arithmetic — into generated Python source
that performs exactly the NumPy operations the interpreter would, in the
same order, then ``compile()``/``exec``'s it into a callable

    ``kernel(grids, env, buffers, out=None) -> ndarray``

so every tile invocation is a single function call.  Two compile-time
optimisations are applied, both bit-exact with respect to interpretation:

* **Constant pooling** — any subtree free of loop variables and accesses
  (parameters are bound at pipeline build time) is evaluated *once at
  compile time with the interpreter itself* and stored in the kernel's
  constant pool, preserving exact Python/NumPy scalar types.
* **Common subexpression elimination** — structurally identical subtrees
  (repeated index expressions across stencil taps, shared products)
  evaluate once per tile instead of once per occurrence.

When the body is a single unconditional expression rooted at a ufunc-shaped
node, the kernel additionally supports ``out=``-style in-place evaluation
(the final operation writes straight into a caller-provided scratch array
with ``casting="unsafe"``, which is the same cast ``astype`` performs) —
this is what lets the executor's scratch-buffer pool recycle tile-local
arrays.

Kernels are memoized per ``(pipeline, stage)`` in a weak-keyed cache.  A
stage that cannot be compiled is *not* an error: :func:`get_kernel` emits
a single :class:`KernelCompileWarning` (``KERNEL_COMPILE_FAIL``) and the
stage is interpreted.

A multi-stage group's structure — which members materialise, which
cheap producers are substituted into their consumers (Exo's
``inline_assign``; dead intermediates disappear, ``delete_buffer``), and
which live-outs write straight into the full output buffer (the
``store_at``-root fast path) — is decided once by :func:`plan_group`.
The result, a :class:`GroupPlan`, is what the native C emitter
(:mod:`repro.runtime.native`) and ``repro codegen`` print from.

:class:`GroupKernel` is the one protocol the tiled executor calls.  Its
NumPy source is the executor's adapter, which walks a group's members
through their stage kernels (a stage that did not compile walks its
expression tree) behind the same signature — the ``STAGE`` rung of
:class:`repro.runtime.KernelTier` and every group native does not run.
Its other source is a native kernel, which stands in for the adapter and
is checked against it on first use.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..dsl.entities import Case, Condition, Parameter, Variable
from ..dsl.expr import (
    Access,
    BinOp,
    Cast,
    Const,
    Expr,
    MathCall,
    Select,
    UnaryOp,
    count_ops,
    walk,
)
from ..dsl.function import Function, Reduction
from ..dsl.pipeline import Pipeline
from ..errors import KernelCompileError, KernelFuseError
from ..obs import METRICS
from ..poly.analysis import PipelineAnalysis
from .evalexpr import evaluate_expr

__all__ = [
    "KernelCompileWarning",
    "StageKernel",
    "GroupKernel",
    "GroupPlan",
    "compile_stage_kernel",
    "get_kernel",
    "plan_group",
    "stage_kernels",
    "clear_kernel_cache",
]


class KernelCompileWarning(UserWarning):
    """A stage fell back to the interpreter (``KERNEL_COMPILE_FAIL``)."""


@dataclass
class StageKernel:
    """A compiled stage body.

    ``fn(grids, env, buffers, out=None)`` evaluates the stage over the
    region described by the open index ``grids`` (one per stage variable,
    as built by :func:`repro.runtime.evalexpr.make_index_grids`), reading
    producers from ``buffers`` (any mapping of name -> ``Buffer``).
    ``uses_out`` says whether the kernel can write its result into a
    caller-provided scratch array; when it cannot (multi-``Case`` bodies,
    copy/cast-rooted bodies) ``out`` is ignored and a fresh array is
    returned.
    """

    stage_name: str
    source: str
    fn: Callable
    uses_out: bool

    def __call__(self, grids, env, buffers, out=None):
        return self.fn(grids, env, buffers, out)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

#: math intrinsic -> NumPy callable, mirroring ``expr._MATH_EVAL`` exactly.
_NP_MATH = {
    "min": "np.minimum",
    "max": "np.maximum",
    "sqrt": "np.sqrt",
    "exp": "np.exp",
    "log": "np.log",
    "abs": "np.abs",
    "pow": "np.power",
    "floor": "np.floor",
}

#: binary operator -> the ufunc the Python operator dispatches to, used
#: only for the fused final store (``out=`` path).
_NP_BINOP = {
    "+": "np.add",
    "-": "np.subtract",
    "*": "np.multiply",
    "/": "np.true_divide",
    "//": "np.floor_divide",
    "%": "np.remainder",
}


def _expr_key(e: Expr) -> tuple:
    """A hashable structural key for CSE (value-identical subtrees only)."""
    if isinstance(e, Const):
        return ("const", type(e.value).__name__, e.value)
    if isinstance(e, Parameter):
        return ("param", e.name)
    if isinstance(e, Variable):
        return ("var", e.name)
    if isinstance(e, BinOp):
        return ("bin", e.op, _expr_key(e.lhs), _expr_key(e.rhs))
    if isinstance(e, UnaryOp):
        return ("neg", _expr_key(e.operand))
    if isinstance(e, MathCall):
        return ("math", e.fn) + tuple(_expr_key(a) for a in e.args)
    if isinstance(e, Select):
        return (
            "select",
            _cond_key(e.condition),
            _expr_key(e.true_expr),
            _expr_key(e.false_expr),
        )
    if isinstance(e, Cast):
        return ("cast", e.scalar_type.name, _expr_key(e.operand))
    if isinstance(e, Access):
        return ("access", e.producer.name) + tuple(
            _expr_key(i) for i in e.indices
        )
    raise KernelCompileError(
        f"cannot lower expression node {type(e).__name__}"
    )


def _cond_key(c: Condition) -> tuple:
    if c.kind == "cmp":
        return ("cmp", c.op, _expr_key(c.lhs), _expr_key(c.rhs))
    return (c.kind,) + tuple(_cond_key(s) for s in c.sub)


def _is_static(e: Expr) -> bool:
    """True when the subtree depends on neither loop variables nor buffer
    accesses — evaluable once at compile time (parameters are bound)."""
    return not any(isinstance(n, (Variable, Access)) for n in walk(e))


def _affine_index(e: Expr):
    """``(var_name, a, c, k)`` for an index of the form
    ``(a*var + c) // k`` with integers ``a >= 1`` and ``k >= 1``
    (``k > 1`` only with ``a == 1``), else ``None``.

    Offsets distribute through the floor division exactly
    (``x//2 + 1 == (x + 2)//2``), nested divisions multiply
    (``(x//2)//3 == x//6``), and a division whose divisor divides
    ``a`` folds back to pure affine — so the common stencil,
    downsample, and upsample index shapes all normalise here.
    """
    if isinstance(e, Variable):
        return (e.name, 1, 0, 1)
    if isinstance(e, BinOp):
        if e.op in ("+", "-"):
            if isinstance(e.rhs, Const) and type(e.rhs.value) is int:
                base = _affine_index(e.lhs)
                if base is not None:
                    name, a, c, k = base
                    delta = e.rhs.value if e.op == "+" else -e.rhs.value
                    return (name, a, c + k * delta, k)
            if (
                e.op == "+"
                and isinstance(e.lhs, Const)
                and type(e.lhs.value) is int
            ):
                base = _affine_index(e.rhs)
                if base is not None:
                    name, a, c, k = base
                    return (name, a, c + k * e.lhs.value, k)
        elif e.op == "*":
            for const, other in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
                if (
                    isinstance(const, Const)
                    and type(const.value) is int
                    and const.value >= 1
                ):
                    base = _affine_index(other)
                    if base is not None and base[3] == 1:
                        name, a, c, _ = base
                        return (name, a * const.value, c * const.value, 1)
        elif e.op == "//":
            if (
                isinstance(e.rhs, Const)
                and type(e.rhs.value) is int
                and e.rhs.value >= 1
            ):
                base = _affine_index(e.lhs)
                if base is not None:
                    name, a, c, k = base
                    k *= e.rhs.value
                    if a % k == 0:
                        return (name, a // k, c // k, 1)
                    if a == 1:
                        return (name, 1, c, k)
    return None


class _Lowerer:
    """Emits the body of one stage kernel as Python source lines."""

    def __init__(self, pipeline: Pipeline, stage: Function):
        self.pipeline = pipeline
        self.stage = stage
        self.lines: List[str] = []
        self.memo: Dict[tuple, str] = {}
        self.consts: Dict[str, object] = {}
        self.count = 0
        self.var_names = {
            v.name: f"_g{d}" for d, v in enumerate(stage.variables)
        }
        self.var_dims = {
            v.name: d for d, v in enumerate(stage.variables)
        }

    def fresh(self, prefix: str = "_t") -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def emit(self, line: str) -> None:
        self.lines.append(f"    {line}")

    def const(self, value: object) -> str:
        name = f"_c{len(self.consts)}"
        self.consts[name] = value
        return name

    # -- expressions ----------------------------------------------------
    def lower(self, e: Expr) -> str:
        key = _expr_key(e)
        got = self.memo.get(key)
        if got is not None:
            return got
        name = self._lower_uncached(e)
        self.memo[key] = name
        return name

    def _lower_uncached(self, e: Expr) -> str:
        if _is_static(e):
            # Evaluate once, with the interpreter itself, so the pooled
            # constant has exactly the value *and type* (Python scalar vs
            # NumPy scalar vs 0-d array) interpretation would produce.
            try:
                value = evaluate_expr(e, self.pipeline.env, {})
            except Exception as exc:
                raise KernelCompileError(
                    f"constant subtree of stage {self.stage.name!r} failed "
                    f"to evaluate: {exc}"
                ) from exc
            if type(value) is int or type(value) is float:
                lit = repr(value)
                return f"({lit})" if value < 0 else lit
            return self.const(value)
        if isinstance(e, Variable):
            if e.name not in self.var_names:
                raise KernelCompileError(
                    f"unbound variable {e.name!r} in stage "
                    f"{self.stage.name!r}"
                )
            return self.var_names[e.name]
        if isinstance(e, BinOp):
            a, b = self.lower(e.lhs), self.lower(e.rhs)
            t = self.fresh()
            self.emit(f"{t} = ({a}) {e.op} ({b})")
            return t
        if isinstance(e, UnaryOp):
            a = self.lower(e.operand)
            t = self.fresh()
            self.emit(f"{t} = -({a})")
            return t
        if isinstance(e, MathCall):
            args = ", ".join(self.lower(a) for a in e.args)
            t = self.fresh()
            self.emit(f"{t} = {_NP_MATH[e.fn]}({args})")
            return t
        if isinstance(e, Select):
            c = self.lower_cond(e.condition)
            tv = self.lower(e.true_expr)
            fv = self.lower(e.false_expr)
            t = self.fresh()
            self.emit(f"{t} = np.where({c}, {tv}, {fv})")
            return t
        if isinstance(e, Cast):
            v = self.lower(e.operand)
            dt = self.memo.get(("dtype", e.scalar_type.name))
            if dt is None:
                dt = self.const(e.scalar_type.np_dtype)
                self.memo[("dtype", e.scalar_type.name)] = dt
            t = self.fresh()
            # Same scalar/array dispatch as evaluate_expr's Cast branch.
            self.emit(
                f"{t} = ({v}).astype({dt}) "
                f"if isinstance({v}, np.ndarray) else {dt}.type({v})"
            )
            return t
        if isinstance(e, Access):
            bkey = ("buffer", e.producer.name)
            buf = self.memo.get(bkey)
            if buf is None:
                buf = self.fresh("_buf")
                self.emit(f"{buf} = buffers[{e.producer.name!r}]")
                self.memo[bkey] = buf
            win = self._lower_window_access(e, buf)
            if win is not None:
                return win
            idx_names = []
            for i in e.indices:
                ikey = ("idx64", _expr_key(i))
                it = self.memo.get(ikey)
                if it is None:
                    iv = self.lower(i)
                    it = self.fresh("_i")
                    self.emit(f"{it} = np.asarray({iv}, dtype=np.int64)")
                    self.memo[ikey] = it
                idx_names.append(it)
            t = self.fresh()
            self.emit(f"{t} = {buf}.gather(({', '.join(idx_names)},))")
            return t
        raise KernelCompileError(
            f"cannot lower expression node {type(e).__name__}"
        )

    # -- affine (windowable) accesses -----------------------------------
    def _lower_window_access(self, e: Access, buf: str) -> Optional[str]:
        """Emit a strided-view read for a structured access — the
        stencil/downsample/upsample fast path.

        Every index must be either a literal int (channel/plane selects)
        or ``(a*var + c) // k`` over stage variables in increasing
        dimension order.  The emitted code reads a view via
        :meth:`Buffer.read_window`; upsample dims (``k > 1``) expand the
        view with ``np.repeat`` plus an offset slice, which reproduces
        ``(x + c) // k`` indexing exactly.  Boundary tiles whose window
        leaves the stored region fall back to the clipped gather
        (identical values in bounds, clamped out of bounds — same as the
        interpreter).  Returns ``None`` for unstructured accesses, which
        take the generic gather path.
        """
        var_pos = {v.name: d for d, v in enumerate(self.stage.variables)}
        plan = []  # ("const", v) | ("var", d, a, c, k) per producer dim
        last_d = -1
        for i in e.indices:
            if isinstance(i, Const) and type(i.value) is int:
                plan.append(("const", i.value))
                continue
            aff = _affine_index(i)
            if aff is None:
                return None
            name, a, c, k = aff
            d = var_pos.get(name)
            if d is None or d <= last_d:
                return None
            last_d = d
            plan.append(("var", d, a, c, k))
        if last_d < 0:
            return None

        def term(sym: str, a: int, c: int) -> str:
            s = sym if a == 1 else f"{sym} * {a}"
            return f"{s} + ({c})" if c else s

        starts, extents, steps, gidx = [], [], [], []
        repeats = []  # (window_axis, k, d, c, base_name)
        for j, ent in enumerate(plan):
            if ent[0] == "const":
                starts.append(str(ent[1]))
                extents.append("1")
                steps.append("1")
                gidx.append(str(ent[1]))
                continue
            _, d, a, c, k = ent
            sv = f"_s{d}"
            gv = f"_g{d}"
            ext = f"_shape[{d}]"
            skey = ("start", d)
            if skey not in self.memo:
                self.emit(f"{sv} = {gv}.item(0)")
                self.memo[skey] = sv
            if k == 1:
                starts.append(term(sv, a, c))
                extents.append(ext)
                steps.append(str(a))
                gidx.append(term(gv, a, c))
            else:
                bkey = ("fdbase", d, c, k)
                b = self.memo.get(bkey)
                if b is None:
                    b = self.fresh("_fb")
                    self.emit(f"{b} = ({term(sv, 1, c)}) // {k}")
                    self.memo[bkey] = b
                starts.append(b)
                extents.append(
                    f"({term(sv, 1, c)} + {ext} - 1) // {k} "
                    f"- {b} + 1"
                )
                steps.append("1")
                gidx.append(f"({term(gv, 1, c)}) // {k}")
                repeats.append((j, k, d, c, b))

        ndim = self.stage.ndim
        positions = [ent[1] for ent in plan if ent[0] == "var"]
        pure_suffix = (
            len(positions) == len(plan)
            and positions == list(range(ndim - len(plan), ndim))
        )

        t = self.fresh("_w")
        self.emit(
            f"{t} = {buf}.read_window(({', '.join(starts)},), "
            f"({', '.join(extents)},), ({', '.join(steps)},))"
        )
        self.emit(f"if {t} is None:")
        self.emit(f"    {t} = {buf}.gather(({', '.join(gidx)},))")
        if not repeats and pure_suffix:
            return t
        # repeat/reshape fixups applied on the in-bounds view
        self.emit("else:")
        for j, k, d, c, b in reversed(repeats):
            off = self.fresh("_o")
            self.emit(f"    {off} = {term(f'_s{d}', 1, c)} - {b} * {k}")
            pre = ":, " * j
            self.emit(
                f"    {t} = np.repeat({t}, {k}, axis={j})"
                f"[{pre}{off}:{off} + _shape[{d}]]"
            )
        if not pure_suffix:
            # Re-align window axes (one per producer dim) with the
            # stage's broadcast layout: length-1 axes at unused stage
            # dims.  Only 1-axes move, so this never copies.
            pos_set = set(positions)
            target = ", ".join(
                f"_shape[{d}]" if d in pos_set else "1" for d in range(ndim)
            )
            self.emit(f"    {t} = {t}.reshape(({target},))")
        return t

    # -- conditions -----------------------------------------------------
    def lower_cond(self, c: Condition) -> str:
        key = _cond_key(c)
        got = self.memo.get(key)
        if got is not None:
            return got
        if c.kind == "cmp":
            a, b = self.lower(c.lhs), self.lower(c.rhs)
            t = self.fresh("_b")
            self.emit(f"{t} = ({a}) {c.op} ({b})")
        else:
            op = "&" if c.kind == "and" else "|"
            t = self.lower_cond(c.sub[0])
            for s in c.sub[1:]:
                nxt = self.lower_cond(s)
                acc = self.fresh("_b")
                self.emit(f"{acc} = ({t}) {op} ({nxt})")
                t = acc
        self.memo[key] = t
        return t

    # -- whole-body assembly --------------------------------------------
    def _fused_store(self, root: Expr) -> Optional[Tuple[str, List[str]]]:
        """If the body root is a ufunc-shaped node, return the ufunc name
        and its lowered operand names for the ``out=`` fast path."""
        if _is_static(root):
            return None
        if isinstance(root, BinOp):
            return _NP_BINOP[root.op], [
                self.lower(root.lhs), self.lower(root.rhs)
            ]
        if isinstance(root, UnaryOp):
            return "np.negative", [self.lower(root.operand)]
        if isinstance(root, MathCall):
            return _NP_MATH[root.fn], [self.lower(a) for a in root.args]
        return None

    def lower_body(self):
        """Lower the stage body (minus epilogue): returns
        ``(conds, vals, default, fused_entry)`` where ``fused_entry`` is
        ``(ufunc_name, operand_names, root_expr)`` when the final
        unconditional entry can fuse its root operation with the store
        (``None`` otherwise — ``default`` then already names the result).
        """
        conds: List[str] = []
        vals: List[str] = []
        default = "0"
        fused_entry = None
        entries = self.stage.defn
        has_case = any(isinstance(x, Case) for x in entries)
        for pos, entry in enumerate(entries):
            if isinstance(entry, Case):
                conds.append(self.lower_cond(entry.condition))
                vals.append(self.lower(entry.expression))
                continue
            # The last unconditional entry of a Case-free body may fuse
            # its root operation with the store; lower only its operands
            # here and let the caller finish in its epilogue.
            if not has_case and pos == len(entries) - 1:
                fused = self._fused_store(entry)
                if fused is not None:
                    fn, args = fused
                    fused_entry = (fn, args, entry)
                    continue
            default = self.lower(entry)
        return conds, vals, default, fused_entry

    def emit_store(self, body, out_dt: str) -> bool:
        """Emit the store epilogue for a lowered ``body`` (the tuple
        :meth:`lower_body` returned): ``np.select`` over ``Case``
        branches, else the root ufunc writing into the caller's ``out``
        when the operand broadcast fills it (the ufunc refuses an ``out``
        larger than the broadcast — a body like ``x + 1`` in a 2-d
        stage), else a ``broadcast_to`` of the lowered value; the
        epilogue returns the result.  Returns whether the body stores
        through a ufunc ``out=``.
        """
        conds, vals, default, fused_entry = body

        def put(value: str, contiguous: bool) -> None:
            self.emit(f"_res = {value}")
            got = "np.ascontiguousarray(_res)" if contiguous else "_res"
            self.emit(f"return {got}.astype({out_dt}, copy=False)")

        if conds:
            clist = ", ".join(
                f"np.broadcast_to({c}, _shape)" for c in conds
            )
            vlist = ", ".join(
                f"np.broadcast_to(np.asarray({v}), _shape)" for v in vals
            )
            put(f"np.select([{clist}], [{vlist}], default={default})",
                False)
            return False
        if fused_entry is None:
            put(f"np.broadcast_to(np.asarray({default}), _shape)", True)
            return False
        fn, args, entry = fused_entry
        operands = ", ".join(f"({a})" for a in args)
        self.emit(
            f"if out is not None and np.broadcast({operands}).shape "
            f"== out.shape:"
        )
        self.emit(f"    {fn}({operands}, out=out, casting='unsafe')")
        self.emit("    return out")
        tail = self.lower(entry)
        put(f"np.broadcast_to(np.asarray({tail}), _shape)", True)
        return True

    def build(self) -> Tuple[str, bool]:
        """Generate the kernel source; returns ``(source, uses_out)``:
        bind the index grids and their shape, register the output dtype
        constant, lower the body, store."""
        ndim = self.stage.ndim
        for d in range(ndim):
            self.emit(f"_g{d} = grids[{d}]")
        shape = ", ".join(f"_g{d}.shape[{d}]" for d in range(ndim))
        if ndim == 1:
            shape += ","
        self.emit(f"_shape = ({shape})")
        out_dt = self.const(self.stage.scalar_type.np_dtype)
        self.memo[("dtype", self.stage.scalar_type.name)] = out_dt
        uses_out = self.emit_store(self.lower_body(), out_dt)
        header = "def _stage_kernel(grids, env, buffers, out=None):"
        source = "\n".join([header] + self.lines) + "\n"
        return source, uses_out


def compile_stage_kernel(pipeline: Pipeline, stage: Function) -> StageKernel:
    """Lower ``stage`` to generated NumPy source and compile it.

    Raises :class:`repro.errors.KernelCompileError` for stages the
    compiler does not handle (reductions, unknown AST nodes, constant
    subtrees that fail to evaluate).
    """
    if isinstance(stage, Reduction) or stage.is_reduction:
        raise KernelCompileError(
            f"reduction stage {stage.name!r} is executed by the interpreter"
        )
    lowerer = _Lowerer(pipeline, stage)
    try:
        source, uses_out = lowerer.build()
    except KernelCompileError:
        raise
    except Exception as exc:
        raise KernelCompileError(
            f"lowering stage {stage.name!r} failed: {exc}"
        ) from exc
    namespace: Dict[str, object] = {"np": np, "isinstance": isinstance}
    namespace.update(lowerer.consts)
    try:
        code = compile(source, f"<kernel:{stage.name}>", "exec")
        exec(code, namespace)  # noqa: S102 - generated from a closed AST
    except Exception as exc:
        raise KernelCompileError(
            f"generated source for stage {stage.name!r} failed to "
            f"compile: {exc}"
        ) from exc
    return StageKernel(
        stage_name=stage.name,
        source=source,
        fn=namespace["_stage_kernel"],
        uses_out=uses_out,
    )


# ---------------------------------------------------------------------------
# Group kernels and their plans
# ---------------------------------------------------------------------------

#: ``inline_assign`` limits.  A producer read more than once is only
#: inlined when its (rewritten) body is near-free — beyond that,
#: re-evaluating it per consumer tap costs more than the scratch
#: round-trip it saves.  A producer read exactly once always saves the
#: round-trip, so its body may be substantially larger.
_INLINE_MAX_USES = 3
_INLINE_MULTI_USE_OPS = 2
_INLINE_SINGLE_USE_OPS = 24


def _rewrite_expr(e: Expr, var_map, inline_expr, inline_stage) -> Expr:
    """Structurally rewrite ``e``: substitute variables via ``var_map``
    (name → replacement expression) and replace accesses to inlined
    producers with their ``Cast``-wrapped bodies, recursively.  Returns
    ``e`` itself when nothing changed (keeps CSE keys shared)."""
    if isinstance(e, Variable):
        got = var_map.get(e.name)
        return e if got is None else got
    if isinstance(e, (Const, Parameter)):
        return e
    if isinstance(e, BinOp):
        lhs = _rewrite_expr(e.lhs, var_map, inline_expr, inline_stage)
        rhs = _rewrite_expr(e.rhs, var_map, inline_expr, inline_stage)
        if lhs is e.lhs and rhs is e.rhs:
            return e
        return BinOp(e.op, lhs, rhs)
    if isinstance(e, UnaryOp):
        op = _rewrite_expr(e.operand, var_map, inline_expr, inline_stage)
        return e if op is e.operand else UnaryOp(e.op, op)
    if isinstance(e, MathCall):
        args = [
            _rewrite_expr(a, var_map, inline_expr, inline_stage)
            for a in e.args
        ]
        if all(a is b for a, b in zip(args, e.args)):
            return e
        return MathCall(e.fn, args)
    if isinstance(e, Select):
        cond = _rewrite_cond(e.condition, var_map, inline_expr, inline_stage)
        tv = _rewrite_expr(e.true_expr, var_map, inline_expr, inline_stage)
        fv = _rewrite_expr(e.false_expr, var_map, inline_expr, inline_stage)
        if cond is e.condition and tv is e.true_expr and fv is e.false_expr:
            return e
        return Select(cond, tv, fv)
    if isinstance(e, Cast):
        op = _rewrite_expr(e.operand, var_map, inline_expr, inline_stage)
        return e if op is e.operand else Cast(e.scalar_type, op)
    if isinstance(e, Access):
        idxs = [
            _rewrite_expr(i, var_map, inline_expr, inline_stage)
            for i in e.indices
        ]
        body = inline_expr.get(e.producer.name)
        if body is None:
            if all(a is b for a, b in zip(idxs, e.indices)):
                return e
            return Access(e.producer, idxs)
        # inline_assign: substitute the producer's body with its loop
        # variables bound to this access's index expressions.  The Cast
        # reproduces the store-then-load dtype rounding a materialised
        # producer would apply.
        producer = inline_stage[e.producer.name]
        sub = {
            v.name: idx for v, idx in zip(producer.variables, idxs)
        }
        return Cast(producer.scalar_type, _rewrite_expr(body, sub, {}, {}))
    raise KernelCompileError(
        f"cannot rewrite expression node {type(e).__name__}"
    )


def _rewrite_cond(c: Condition, var_map, inline_expr, inline_stage):
    if c.kind == "cmp":
        lhs = _rewrite_expr(c.lhs, var_map, inline_expr, inline_stage)
        rhs = _rewrite_expr(c.rhs, var_map, inline_expr, inline_stage)
        if lhs is c.lhs and rhs is c.rhs:
            return c
        return Condition(lhs, c.op, rhs)
    sub = [
        _rewrite_cond(s, var_map, inline_expr, inline_stage) for s in c.sub
    ]
    if all(a is b for a, b in zip(sub, c.sub)):
        return c
    return Condition(None, _kind=c.kind, _sub=tuple(sub))


@dataclass
class GroupKernel:
    """What the tiled executor runs one tile of a fusion group on.

    ``fn(regions, bases, buffers, out_buffers, pool, carries)`` executes
    every member stage over one tile.  ``regions`` holds the expanded
    (overlapped) per-stage bounds for ``region_names`` in order (``None``
    for an empty region), ``bases`` the base-tile bounds for
    ``liveout_names``; live-out values land in ``out_buffers`` (name →
    full-domain :class:`Buffer`), out-of-group producers are read from
    ``buffers``, and scratch arrays cycle through ``pool`` (the caller
    releases them after the tile).  A member whose in-group producer had
    an empty region raises ``KeyError`` (non-retryable).  Returns the
    per-stage window :class:`Buffer`\\ s in ``region_names`` order.

    ``carries`` is the halo-reuse carry mode: per ``region_names`` slot
    either ``None`` (compute the region as usual) or a pure-carry tuple
    ``(window, origin)`` assembled by the executor, paired with
    ``regions[i] is None`` — a run window computed by a previous
    adjacent tile already covers this tile's region, so it is re-exposed
    untouched and the stage body is skipped (live-outs still store their
    base tile, which always advances; the executor seeds run windows by
    passing run-extended regions and harvesting the returned buffers).
    Stages in ``direct_stores`` write their base tile straight into
    ``out_buffers`` and are never carried; ``inlined`` members have no
    region slot.

    There are two sources: the executor's stage-walking adapter
    (``region_names`` = every member) and :mod:`repro.runtime.native`
    (``native``: compiled C, with the slots of the group's
    :class:`GroupPlan`).  A native kernel has ``tabulate`` instead of
    ``fn``: the executor hands it a chunk's planned steps once, and the
    step table it returns is one op of a request's native program
    (:func:`repro.runtime.native.pack_program`).

    A reduction stage runs untiled, whole, and has no tile to hand over:
    its kernel (:meth:`for_reduction`) has no slots and
    ``fn(buffers) -> Buffer`` — the stage over its full reduction domain,
    in C (``native``) or by the interpreter's ``np.add.at`` walk.  It is
    a :class:`GroupKernel` so that it is resolved, built, self-checked,
    demoted and counted with the grouping's other kernels.
    """

    group_names: Tuple[str, ...]
    region_names: Tuple[str, ...]
    liveout_names: Tuple[str, ...]
    inlined: Tuple[str, ...]
    direct_stores: Tuple[str, ...]
    #: ``None`` on a native group kernel, which runs step tables only
    fn: Optional[Callable]
    native: bool = False
    #: a native group kernel's step-table builder
    #: (:func:`repro.runtime.native._make_tabulate`); ``None`` otherwise
    tabulate: Optional[Callable] = None
    #: a native reduction's one-row step table, which ``fn`` runs as a
    #: one-op program and a request program as a group of one chunk;
    #: ``None`` otherwise
    table: Optional[object] = None

    @classmethod
    def for_reduction(
        cls, name: str, fn: Callable, native: bool = False, table=None
    ) -> "GroupKernel":
        """The kernel of reduction stage ``name`` (class docstring)."""
        return cls((name,), (), (), (), (), fn, native, table=table)


def body_accesses(defn: Sequence[object]) -> List[Access]:
    """Every load of a stage body, ``Case`` conditions included."""
    out: List[Access] = []
    for entry in defn:
        roots = (
            [entry.expression] + list(entry.condition.exprs())
            if isinstance(entry, Case) else [entry]
        )
        for root in roots:
            out.extend(n for n in walk(root) if isinstance(n, Access))
    return out


@dataclass(frozen=True)
class GroupPlan:
    """The structure of one group's native kernel, derived once by
    :func:`plan_group`: what the C emitter (:mod:`repro.runtime.native`)
    and ``repro codegen`` print, and the slots the executor's carry and
    step machinery walk."""

    #: materialised members (one region slot each), topological order
    mats: Tuple[Function, ...]
    #: stage name -> body after ``inline_assign`` substitution
    effective: Mapping[str, List[object]]
    #: members substituted into their consumers (no region slot)
    inlined: Tuple[str, ...]
    #: live-outs that write their base tile straight to the full buffer
    direct: frozenset
    #: materialised in-group producers each member reads
    deps: Mapping[str, Tuple[str, ...]]

    @property
    def region_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.mats)

    @property
    def direct_stores(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.mats if s.name in self.direct)


def _unsafe_to_inline(
    analysis: PipelineAnalysis, members: Sequence[Function]
) -> Tuple[Dict[str, int], set]:
    """In-group read counts per member, and the members that must not
    inline: some in-group read of them is not provably inside their
    domain over the consumer's full domain.  A materialised read clamps
    out-of-domain coordinates to the stored region's edge, which an
    inlined expression would not reproduce."""
    member_names = {s.name for s in members}
    uses: Dict[str, int] = {n: 0 for n in member_names}
    unsafe = set()
    for consumer in members:
        for producer, summary in analysis.summaries[consumer]:
            pname = producer.name
            if pname not in member_names:
                continue
            uses[pname] += 1
            bounds = analysis.access_index_bounds(consumer, summary)
            pdom = analysis.domain.get(producer)
            if (
                bounds is None
                or pdom is None
                or len(bounds) != len(pdom)
                or any(
                    lo < dlo or hi > dhi
                    for (lo, hi), (dlo, dhi) in zip(bounds, pdom)
                )
            ):
                unsafe.add(pname)
    return uses, unsafe


def _plan_inlining(pipeline: Pipeline, geom):
    """Decide which members inline and rewrite every member body.

    Returns ``(effective, inline_expr)``: the post-substitution body per
    stage name, and the bodies of inlined producers (presence in
    ``inline_expr`` marks a member as non-materialised).  Inlining a
    producer requires it to be safe (:func:`_unsafe_to_inline`).
    Constant bodies (no variables or accesses) stay materialised.
    """
    members = geom.stages
    liveout_names = {s.name for s in geom.liveouts}
    uses, unsafe = _unsafe_to_inline(PipelineAnalysis.of(pipeline), members)

    inline_expr: Dict[str, Expr] = {}
    inline_stage: Dict[str, Function] = {}
    effective: Dict[str, List[object]] = {}
    for stage in members:
        eff: List[object] = []
        for entry in stage.defn:
            if isinstance(entry, Case):
                eff.append(Case(
                    _rewrite_cond(
                        entry.condition, {}, inline_expr, inline_stage
                    ),
                    _rewrite_expr(
                        entry.expression, {}, inline_expr, inline_stage
                    ),
                ))
            else:
                eff.append(_rewrite_expr(
                    entry, {}, inline_expr, inline_stage
                ))
        effective[stage.name] = eff
        if (
            stage.name in liveout_names
            or stage.name in unsafe
            or len(eff) != 1
            or isinstance(eff[0], Case)
        ):
            continue
        body = eff[0]
        n = uses[stage.name]
        if n == 0:
            # delete_buffer: no in-group reader and not a live-out.
            inline_expr[stage.name] = body
            inline_stage[stage.name] = stage
            continue
        if not any(isinstance(x, (Variable, Access)) for x in walk(body)):
            continue
        ops = count_ops(body)
        if n <= _INLINE_MAX_USES and (
            ops <= _INLINE_MULTI_USE_OPS
            or (n == 1 and ops <= _INLINE_SINGLE_USE_OPS)
        ):
            inline_expr[stage.name] = body
            inline_stage[stage.name] = stage
    return effective, inline_expr


def plan_group(
    pipeline: Pipeline, geom, direct_stores: bool = True
) -> GroupPlan:
    """The structure of ``geom``'s native kernel, in the classic
    schedule rewrites' terms: ``compute_at``/``store_at`` (each
    materialised member computes its expanded tile region into scratch,
    consumed in place), ``inline_assign`` (cheap producers substituted
    into consumer bodies), ``delete_buffer`` (members nobody reads are
    dropped), and a ``store_at``-root fast path (a live-out whose
    expanded region equals its base tile writes straight into the full
    output buffer).  ``direct_stores=False`` plans every live-out
    through scratch plus a base-region copy, the protocol of the
    stage-walking adapter.  Raises :class:`KernelFuseError`
    (``degenerate``) when every member inlines away."""
    radii = geom.expansion_radii()
    liveouts = {s.name for s in geom.liveouts}
    effective, inline_expr = _plan_inlining(pipeline, geom)
    mats = tuple(s for s in geom.stages if s.name not in inline_expr)
    if not mats:
        raise KernelFuseError(
            "every member stage inlined away", reason="degenerate"
        )
    mat_names = {s.name for s in mats}
    direct = set()
    deps: Dict[str, Tuple[str, ...]] = {}
    for stage in mats:
        name = stage.name
        rad = radii[stage]
        # store_at root: expanded region == base tile for every tile
        if direct_stores and name in liveouts and all(
            rad[g] == (0, 0) and geom.scale[stage][j] == 1
            for j, g in enumerate(geom.align[stage])
        ):
            direct.add(name)
        deps[name] = tuple(sorted({
            access.producer.name
            for access in body_accesses(effective[name])
            if access.producer.name in mat_names
            and access.producer.name != name
        }))
    return GroupPlan(
        mats=mats, effective=effective,
        inlined=tuple(sorted(inline_expr)),
        direct=frozenset(direct), deps=deps,
    )


# ---------------------------------------------------------------------------
# Memoization
# ---------------------------------------------------------------------------

_MISS = object()
_CACHE: "weakref.WeakKeyDictionary[Pipeline, Dict[str, Optional[StageKernel]]]" = (
    weakref.WeakKeyDictionary()
)


def get_kernel(pipeline: Pipeline, stage: Function) -> Optional[StageKernel]:
    """The memoized kernel for ``(pipeline, stage)``.

    Returns ``None`` (after one ``KernelCompileWarning``) for stages that
    fail to compile; the executor interprets those.  Reductions return
    ``None`` silently — they are interpreted by design.
    """
    per = _CACHE.get(pipeline)
    if per is None:
        per = _CACHE.setdefault(pipeline, {})
    entry = per.get(stage.name, _MISS)
    if entry is not _MISS:
        if METRICS.enabled:
            METRICS.inc("repro_kernel_compile_total", result="cached")
        return entry  # type: ignore[return-value]
    if stage.is_reduction:
        per[stage.name] = None
        return None
    try:
        kernel: Optional[StageKernel] = compile_stage_kernel(pipeline, stage)
    except Exception as exc:  # noqa: BLE001 - downgraded to a warning
        warnings.warn(
            f"[KERNEL_COMPILE_FAIL] stage {stage.name!r} of pipeline "
            f"{pipeline.name!r} falls back to the interpreter: {exc}",
            KernelCompileWarning,
            stacklevel=2,
        )
        kernel = None
    per[stage.name] = kernel
    if METRICS.enabled:
        METRICS.inc(
            "repro_kernel_compile_total",
            result="compiled" if kernel is not None else "fallback",
        )
    return kernel


def stage_kernels(
    pipeline: Pipeline,
    stages: Optional[Sequence[Function]] = None,
) -> Mapping[str, StageKernel]:
    """Kernels for every compilable stage, keyed by stage name; a stage
    absent from the mapping is interpreted."""
    out: Dict[str, StageKernel] = {}
    for stage in (pipeline.stages if stages is None else stages):
        kernel = get_kernel(pipeline, stage)
        if kernel is not None:
            out[stage.name] = kernel
    return out


#: The kernel each tiled group (per ``(member set, tier)``) and each
#: untiled reduction (per ``(name, native)``) runs on
#: — filled by :func:`repro.runtime.executor.resolve_group_kernel`,
#: kept here so :func:`clear_kernel_cache` drops it with the kernels it
#: was resolved from.
_RESOLVED_CACHE: "weakref.WeakKeyDictionary[Pipeline, Dict[tuple, GroupKernel]]" = (
    weakref.WeakKeyDictionary()
)


def clear_kernel_cache() -> None:
    """Drop every memoized kernel (tests and benchmarks)."""
    _CACHE.clear()
    _RESOLVED_CACHE.clear()
