"""Typed expression and condition printing for generated C.

One printer serves the one C emitter — the native group and reduction
entries (:mod:`repro.runtime.native`), which
:mod:`repro.codegen.cgen` also prints as a program, together with that
program's untiled loop nests — and its contract is **bit equality with
the NumPy interpreter**, not tolerance.  Every sub-expression is given
the dtype NumPy gives it, by asking NumPy: the same operation the
generated NumPy source performs at run time is applied, at print time,
to one-element samples (arrays for loop variables and loads, the actual
Python scalar for constants and parameters, so Python scalars stay
*weak* exactly as they are at run time).  Each C operation then casts its
operands to the ufunc loop's input type, computes in that exact-width
type, and casts the result to the ufunc's output type:

* ``int16 * 3`` stays ``int16`` and wraps; ``float32 * 1.5`` stays
  ``float32`` with ``1.5`` rounded to ``float32`` first (constants are
  printed as hexadecimal floating literals of the operation's type);
  ``float32 * <int64 loop variable>`` is ``float64``; integer ``/`` is
  ``float64``,
* ``//`` and ``%`` are NumPy's floor division and remainder — sign of the
  divisor, ``0`` for integer division by zero (no trap), ``npy_divmod``
  for floats,
* ``min``/``max`` propagate NaN the way ``np.minimum``/``np.maximum`` do,
* ``Cast`` truncates like ``ndarray.astype``; an access index converts
  to ``int64`` like ``np.asarray(idx, dtype=np.int64)``,
* access indices are clamped into the producer's stored region by the
  buffer object doing the load, as :meth:`repro.runtime.buffers.Buffer.gather`
  clips (:class:`CBuffer` always clamps; the native emitter's loader
  drops the clamp on windows it proved in bounds).

Subtrees free of loop variables and loads are folded with the
interpreter itself, like :mod:`repro.runtime.kernelcache` does.  The
*exact* operator set is ``+ - * / // %``, comparisons, ``Select``,
``Case`` chains, ``min``/``max``/``abs``/``floor``/``sqrt``, casts and
loads; ``exp``/``log``/``pow`` go through libm, whose results differ from
NumPy's in the last place, so they print only with ``libm=True``
(:func:`repro.codegen.generate_cpp`; serving never passes it) and raise
:class:`InexactOp` otherwise.  The
generated code must be compiled ``-fwrapv -fno-fast-math
-ffp-contract=off`` on a target whose ``float`` arithmetic is evaluated
in ``float`` (x86-64 SSE, AArch64).
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import (
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..dsl.entities import Case, Condition, Variable
from ..dsl.expr import (
    _BINOP_EVAL,
    _MATH_EVAL,
    Access,
    BinOp,
    Cast,
    Expr,
    MathCall,
    Select,
    UnaryOp,
)
from ..dsl.types import ScalarType

__all__ = [
    "CBuffer",
    "CVal",
    "C_TYPES",
    "ExprPrinter",
    "InexactOp",
    "ctype_of",
    "ctype_for",
    "literal",
    "RUNTIME_HELPERS",
    "STEP_LOOP",
]


class InexactOp(TypeError):
    """The expression uses an operation whose C form is not bit-equal to
    NumPy's (``exp``/``log``/``pow``, a ``float16`` intermediate, …)."""


#: dtype -> (C type, helper-function suffix)
C_TYPES = {
    np.dtype(np.int8): ("int8_t", "i8"),
    np.dtype(np.uint8): ("uint8_t", "u8"),
    np.dtype(np.int16): ("int16_t", "i16"),
    np.dtype(np.uint16): ("uint16_t", "u16"),
    np.dtype(np.int32): ("int32_t", "i32"),
    np.dtype(np.uint32): ("uint32_t", "u32"),
    np.dtype(np.int64): ("int64_t", "i64"),
    np.dtype(np.uint64): ("uint64_t", "u64"),
    np.dtype(np.float32): ("float", "f32"),
    np.dtype(np.float64): ("double", "f64"),
}
_I64 = np.dtype(np.int64)
_U64 = np.dtype(np.uint64)


def _helpers() -> str:
    """Helper functions emitted once per translation unit: plain C that
    is also valid C++."""
    out = [
        "#include <math.h>",
        "#include <stdint.h>",
        "#include <string.h>",
        "static inline int64_t r_clamp(int64_t v, int64_t lo, int64_t hi) {",
        "    return v < lo ? lo : (v > hi ? hi : v);",
        "}",
    ]
    for dtype, (ct, sfx) in C_TYPES.items():
        if dtype.kind == "f":
            fn = "f" if dtype.itemsize == 4 else ""
            out += [
                # np.minimum / np.maximum: a NaN operand is the result
                f"static inline {ct} r_min_{sfx}({ct} a, {ct} b) "
                f"{{ return a != a ? a : (a < b ? a : b); }}",
                f"static inline {ct} r_max_{sfx}({ct} a, {ct} b) "
                f"{{ return a != a ? a : (a > b ? a : b); }}",
                f"static inline {ct} r_abs_{sfx}({ct} a) "
                f"{{ return fabs{fn}(a); }}",
                # npy_divmod, verbatim
                f"static inline {ct} r_divmod_{sfx}({ct} a, {ct} b, "
                f"{ct} *modulus) {{",
                f"    {ct} mod = fmod{fn}(a, b), div, floordiv;",
                "    if (!b) { *modulus = mod; return a / b; }",
                "    div = (a - mod) / b;",
                "    if (mod) {",
                "        if ((b < 0) != (mod < 0)) { mod += b; div -= 1; }",
                f"    }} else {{ mod = copysign{fn}(0, b); }}",
                "    if (div) {",
                f"        floordiv = floor{fn}(div);",
                f"        if (div - floordiv > ({ct})0.5) floordiv += 1;",
                f"    }} else {{ floordiv = copysign{fn}(0, a / b); }}",
                "    *modulus = mod;",
                "    return floordiv;",
                "}",
                f"static inline {ct} r_floordiv_{sfx}({ct} a, {ct} b) {{",
                f"    {ct} mod;",
                f"    return !b ? a / b : r_divmod_{sfx}(a, b, &mod);",
                "}",
                f"static inline {ct} r_mod_{sfx}({ct} a, {ct} b) {{",
                f"    {ct} mod;",
                f"    if (!b) return fmod{fn}(a, b);",
                f"    r_divmod_{sfx}(a, b, &mod);",
                "    return mod;",
                "}",
            ]
        elif dtype.kind == "u":
            out += [
                f"static inline {ct} r_min_{sfx}({ct} a, {ct} b) "
                f"{{ return a < b ? a : b; }}",
                f"static inline {ct} r_max_{sfx}({ct} a, {ct} b) "
                f"{{ return a > b ? a : b; }}",
                f"static inline {ct} r_abs_{sfx}({ct} a) {{ return a; }}",
                f"static inline {ct} r_floordiv_{sfx}({ct} a, {ct} b) "
                f"{{ return b ? ({ct})(a / b) : 0; }}",
                f"static inline {ct} r_mod_{sfx}({ct} a, {ct} b) "
                f"{{ return b ? ({ct})(a % b) : 0; }}",
            ]
        else:
            # b == -1 is special-cased: MIN / -1 and MIN % -1 trap on x86
            # where NumPy returns MIN and 0.
            out += [
                f"static inline {ct} r_min_{sfx}({ct} a, {ct} b) "
                f"{{ return a < b ? a : b; }}",
                f"static inline {ct} r_max_{sfx}({ct} a, {ct} b) "
                f"{{ return a > b ? a : b; }}",
                f"static inline {ct} r_abs_{sfx}({ct} a) "
                f"{{ return ({ct})(a < 0 ? -a : a); }}",
                f"static inline {ct} r_floordiv_{sfx}({ct} a, {ct} b) {{",
                "    if (b == 0) return 0;",
                f"    if (b == -1) return ({ct})(-a);",
                f"    {ct} q = ({ct})(a / b), r = ({ct})(a % b);",
                f"    return (r != 0 && ((r < 0) != (b < 0))) "
                f"? ({ct})(q - 1) : q;",
                "}",
                f"static inline {ct} r_mod_{sfx}({ct} a, {ct} b) {{",
                "    if (b == 0 || b == -1) return 0;",
                f"    {ct} r = ({ct})(a % b);",
                f"    return (r != 0 && ((r < 0) != (b < 0))) "
                f"? ({ct})(r + b) : r;",
                "}",
            ]
    return "\n".join(out) + "\n"


#: Helper functions emitted once per translation unit.
RUNTIME_HELPERS = _helpers()

#: The native translation unit's runners, printed after
#: :data:`RUNTIME_HELPERS`.  ``repro_run_steps`` runs a group's step
#: entry once per row of a chunk's step table (:mod:`repro.runtime.native`).
#: ``repro_run_program`` — the one entry Python calls — runs a
#: *program* — consecutive groups of chunks, each chunk one
#: ``repro_run_steps`` over one op (entry, rows, row count, row words)
#: — from a control block: ``ctl[0]`` groups, ``ctl[1]`` the address of
#: the op list, five words per group (chunks, the last group it waits
#: for or ``-1``, its first op, chunks claimed, chunks done), then two
#: per op: the ``CLOCK_MONOTONIC`` nanoseconds it started and ended.
#: Any number of threads may run one control block: each claims chunks
#: by atomic fetch-add, waits (``pause``, then ``sched_yield``) only
#: where a group needs every group up to the one it waits for to be done,
#: and a thread that finds nothing to claim moves on, reading nothing but
#: the control block.  ``walker`` makes a call return only once every
#: chunk is done, whoever ran it.
STEP_LOOP = (
    "#include <sched.h>\n"
    "#include <time.h>\n"
    "void repro_run_steps(void (*step)(const int64_t *), "
    "const int64_t *rows, int64_t nrows, int64_t words) {\n"
    "    for (int64_t r = 0; r < nrows; ++r) step(rows + r * words);\n"
    "}\n"
    "static int64_t r_now(void) {\n"
    "    struct timespec t;\n"
    "    clock_gettime(CLOCK_MONOTONIC, &t);\n"
    "    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;\n"
    "}\n"
    "static void r_wait(const int64_t *group) {\n"
    "    for (int spin = 0; "
    "__atomic_load_n(&group[4], __ATOMIC_ACQUIRE) < group[0]; ++spin) {\n"
    "        if (spin >= 200) { sched_yield(); continue; }\n"
    "#if defined(__x86_64__) || defined(__i386__)\n"
    "        __builtin_ia32_pause();\n"
    "#elif defined(__aarch64__)\n"
    "        __asm__ __volatile__(\"yield\");\n"
    "#endif\n"
    "    }\n"
    "}\n"
    "void repro_run_program(int64_t *ctl, int64_t walker) {\n"
    "    int64_t *const clock = ctl + 2 + 5 * ctl[0];\n"
    "    for (int64_t g = 0; g < ctl[0]; ++g) {\n"
    "        int64_t *const G = ctl + 2 + 5 * g;\n"
    "        if (__atomic_load_n(&G[3], __ATOMIC_RELAXED) >= G[0]) continue;\n"
    "        for (int64_t d = 0; d <= G[1]; ++d) r_wait(ctl + 2 + 5 * d);\n"
    "        for (;;) {\n"
    "            const int64_t o = G[2] + "
    "__atomic_fetch_add(&G[3], 1, __ATOMIC_RELAXED);\n"
    "            if (o >= G[2] + G[0]) break;\n"
    "            const int64_t *op = "
    "(const int64_t *)(uintptr_t)ctl[1] + 4 * o;\n"
    "            clock[2 * o] = r_now();\n"
    "            repro_run_steps((void (*)(const int64_t *))(uintptr_t)op[0], "
    "(const int64_t *)(uintptr_t)op[1], op[2], op[3]);\n"
    "            clock[2 * o + 1] = r_now();\n"
    "            __atomic_fetch_add(&G[4], 1, __ATOMIC_RELEASE);\n"
    "        }\n"
    "    }\n"
    "    if (walker)\n"
    "        for (int64_t g = 0; g < ctl[0]; ++g) r_wait(ctl + 2 + 5 * g);\n"
    "}\n"
)


def ctype_of(scalar_type: ScalarType) -> str:
    """C type name for a DSL scalar type."""
    return C_TYPES[scalar_type.np_dtype][0]


def ctype_for(dtype: np.dtype) -> str:
    try:
        return C_TYPES[dtype][0]
    except KeyError:
        raise InexactOp(f"no exact C type for dtype {dtype}") from None


def _atom(text: object) -> str:
    """``text`` safe to splice beside any operator."""
    text = str(text)
    return text if text.isidentifier() or text.isdigit() else f"({text})"


class CBuffer:
    """How one producer is addressed in generated code.

    ``name`` is the C identifier of the array/pointer; ``origin`` the
    coordinate of element 0 per dimension (may be C expressions for
    per-tile scratch); ``extents`` the allocated extent per dimension
    (ints or C expressions).  Indexing clamps into the allocation.
    """

    def __init__(
        self,
        name: str,
        origin: Sequence[object],
        extents: Sequence[object],
    ):
        if len(origin) != len(extents):
            raise ValueError("origin/extents rank mismatch")
        self.name = name
        self.origin = [_atom(o) for o in origin]
        self.extents = [_atom(e) for e in extents]

    def index_expr(self, indices: Sequence[str], clamp=True) -> str:
        """Row-major flattened index.  Each dimension is clamped into the
        allocation unless ``clamp`` (one bool, or one per dimension) says
        the caller proved that index in bounds."""
        if len(indices) != len(self.origin):
            raise ValueError(
                f"buffer {self.name}: {len(self.origin)}-d, "
                f"got {len(indices)} indices"
            )
        if isinstance(clamp, bool):
            clamp = [clamp] * len(indices)
        flat = ""
        for d, idx in enumerate(indices):
            rel = f"({idx}) - {self.origin[d]}"
            if clamp[d]:
                rel = f"r_clamp({rel}, 0, {self.extents[d]} - 1)"
            # Horner form: one multiply per dimension
            flat = f"({flat}) * {self.extents[d]} + {rel}" if flat else rel
        return flat

    def load(self, indices: Sequence[str]) -> str:
        return f"{self.name}[{self.index_expr(indices)}]"


def _where(t, f):
    return np.where(np.ones(1, bool), t, f)


@lru_cache(maxsize=4096)
def _ask_numpy(fn, operands: Tuple[tuple, ...]) -> np.dtype:
    """Apply ``fn`` — the callable the interpreter itself would call — to
    one-element samples of ``operands`` (``(dtype, NoneType, None)``
    typed, ``(None, type, python scalar)`` weak) and return the result's
    dtype.  The same few (operation, dtypes) pairs recur in every stage
    body."""
    with np.errstate(all="ignore"):
        return np.asarray(fn(*[
            value if dtype is None else np.ones(1, dtype)
            for dtype, _, value in operands
        ])).dtype


class CVal(NamedTuple):
    """A printed sub-expression: its C text and the dtype NumPy gives it.
    ``dtype`` is ``None`` for a *weak* value — a Python ``int``/``float``
    (``value``) that takes the other operand's type."""

    text: str
    dtype: Optional[np.dtype]
    value: object = None

    @property
    def sample(self):
        """What stands in for this value when NumPy is asked for a
        result dtype."""
        return self.value if self.dtype is None else np.ones(1, self.dtype)


def literal(value, dtype: np.dtype) -> str:
    """``value`` (already of ``dtype``) as a C literal of exactly that
    type."""
    ct = ctype_for(dtype)
    if dtype.kind == "f":
        v = float(value)
        sfx = "f" if dtype.itemsize == 4 else ""
        if math.isnan(v):
            return f"(({ct})NAN)"
        if math.isinf(v):
            return f"(({ct}){'-' if v < 0 else ''}INFINITY)"
        return f"({v.hex()}{sfx})"
    v = int(value)
    if dtype == _U64:
        return f"UINT64_C({v})"
    if dtype == _I64:
        if v == -(2 ** 63):
            return "(-INT64_C(9223372036854775807) - 1)"
        return f"INT64_C({v})" if v >= 0 else f"(-INT64_C({-v}))"
    return f"(({ct}){v})"


_LIBM = {"exp": "exp", "log": "log", "pow": "pow"}
_CMP = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}


class ExprPrinter:
    """Prints DSL expressions as typed C expressions.

    ``buffers`` maps producer names to objects with a
    ``load(indices) -> str`` method (:class:`CBuffer`); ``env`` maps
    parameter names to concrete values; loop variables print as
    ``var_names[name]`` (default: their own names) and must be declared
    ``int64_t`` by the loop emitter.  ``libm`` admits ``exp``/``log``/
    ``pow``, which are not bit-equal to NumPy's.
    """

    def __init__(
        self,
        buffers: Mapping[str, CBuffer],
        env: Mapping[str, object],
        var_names: Optional[Mapping[str, str]] = None,
        libm: bool = False,
    ):
        self.buffers = buffers
        self.env = env
        self.var_names = var_names or {}
        self.libm = libm
        # keyed by node identity: shared sub-DAGs print once.  Each entry
        # holds its node, so an id is never reused while the memo lives.
        self._memo: Dict[int, Tuple[Expr, CVal]] = {}
        self._static_memo: Dict[int, bool] = {}

    # -- typing -----------------------------------------------------------
    @staticmethod
    def _result_dtype(fn, *vals: CVal) -> np.dtype:
        """The dtype NumPy gives ``fn`` applied to the operands."""
        # type(value) is part of the key: 1 == 1.0 but they promote apart
        return _ask_numpy(
            fn, tuple((v.dtype, type(v.value), v.value) for v in vals)
        )

    @staticmethod
    def convert(v: CVal, dtype: np.dtype) -> str:
        """``v`` as a C expression of type ``dtype`` — ``astype`` for a
        typed value, NumPy's scalar conversion (which refuses a Python
        int the dtype cannot hold) for a weak one."""
        if v.dtype is None:
            return literal(dtype.type(v.value), dtype)
        if v.dtype == dtype:
            return v.text
        return f"(({ctype_for(dtype)})({v.text}))"

    def _static(self, e: Expr) -> bool:
        """Whether ``e`` is free of loop variables and loads."""
        got = self._static_memo.get(id(e))
        if got is None:
            if isinstance(e, (Variable, Access)):
                got = False
            else:
                kids = list(e.children())
                if isinstance(e, Select):
                    kids += e.condition.exprs()
                got = all(self._static(k) for k in kids)
            self._static_memo[id(e)] = got
        return got

    def _fold(self, e: Expr) -> CVal:
        """A subtree without loop variables or loads, evaluated by the
        interpreter: a Python scalar stays weak, anything NumPy-typed is
        a literal of its dtype."""
        from ..runtime.evalexpr import evaluate_expr

        value = evaluate_expr(e, self.env, {})
        if type(value) in (int, float, bool):
            if type(value) is bool:
                value = int(value)
            text = repr(value)
            return CVal(f"({text})" if value < 0 else text, None, value)
        dtype = np.asarray(value).dtype
        return CVal(literal(np.asarray(value)[()], dtype), dtype)

    # -- expressions ------------------------------------------------------
    def typed(self, e: Expr) -> CVal:
        """Print ``e``; the result carries its NumPy dtype."""
        got = self._memo.get(id(e))
        if got is None:
            got = self._memo[id(e)] = (e, self._typed(e))
        return got[1]

    def expr(self, e: Expr) -> str:
        """C text of ``e`` in its NumPy dtype."""
        return self.typed(e).text

    def _typed(self, e: Expr) -> CVal:
        if self._static(e):
            return self._fold(e)
        if isinstance(e, Variable):
            return CVal(self.var_names.get(e.name, e.name), _I64)
        if isinstance(e, UnaryOp):
            a = self.typed(e.operand)
            dt = self._result_dtype(operator.neg, a)
            return CVal(f"(({ctype_for(dt)})(-({self.convert(a, dt)})))", dt)
        if isinstance(e, BinOp):
            a, b = self.typed(e.lhs), self.typed(e.rhs)
            dt = self._result_dtype(_BINOP_EVAL[e.op], a, b)
            ct, sfx = ctype_for(dt), C_TYPES[dt][1]
            x, y = self.convert(a, dt), self.convert(b, dt)
            if e.op == "//":
                return CVal(f"r_floordiv_{sfx}({x}, {y})", dt)
            if e.op == "%":
                return CVal(f"r_mod_{sfx}({x}, {y})", dt)
            return CVal(f"(({ct})({x} {e.op} {y}))", dt)
        if isinstance(e, MathCall):
            args = [self.typed(a) for a in e.args]
            dt = self._result_dtype(_MATH_EVAL[e.fn], *args)
            ct = ctype_for(dt)
            conv = [self.convert(a, dt) for a in args]
            if e.fn in ("min", "max", "abs"):
                sfx = C_TYPES[dt][1]
                return CVal(f"r_{e.fn}_{sfx}({', '.join(conv)})", dt)
            if dt.kind != "f":
                if e.fn == "floor":
                    # NumPy's floor of an integer is that integer
                    return CVal(conv[0], dt)
                raise InexactOp(f"{e.fn} with result dtype {dt}")
            f = "f" if dt.itemsize == 4 else ""
            if e.fn in ("floor", "sqrt"):
                return CVal(f"{e.fn}{f}({conv[0]})", dt)
            if not self.libm:
                raise InexactOp(
                    f"{e.fn} is not bit-equal between libm and NumPy"
                )
            return CVal(f"{_LIBM[e.fn]}{f}({', '.join(conv)})", dt)
        if isinstance(e, Select):
            c = self.cond(e.condition)
            t, f = self.typed(e.true_expr), self.typed(e.false_expr)
            dt = self._result_dtype(_where, t, f)
            return CVal(
                f"({c} ? {self.convert(t, dt)} : {self.convert(f, dt)})", dt
            )
        if isinstance(e, Cast):
            dt = e.scalar_type.np_dtype
            return CVal(self.convert(self.typed(e.operand), dt), dt)
        if isinstance(e, Access):
            return CVal(
                self.load(e, [self.int_expr(i) for i in e.indices]),
                e.producer.scalar_type.np_dtype,
            )
        raise TypeError(f"cannot print {type(e).__name__}")

    def load(self, access: Access, indices: List[str]) -> str:
        """C text reading ``access.producer`` at ``int64_t`` index
        expressions ``indices``."""
        buf = self.buffers.get(access.producer.name)
        if buf is None:
            raise KeyError(f"no C buffer for {access.producer.name!r}")
        return buf.load(indices)

    def int_expr(self, e: Expr) -> str:
        """``e`` as an ``int64_t`` index expression —
        ``np.asarray(value, dtype=np.int64)``."""
        v = self.typed(e)
        if v.dtype is None and not isinstance(v.value, int):
            raise TypeError(f"non-integer constant {v.value!r} in index")
        return self.convert(v, _I64)

    # -- conditions -------------------------------------------------------
    def cond(self, c: Condition) -> str:
        if c.kind != "cmp":
            joiner = " && " if c.kind == "and" else " || "
            return "(" + joiner.join(self.cond(s) for s in c.sub) + ")"
        if c.op not in _CMP:
            raise TypeError(f"unknown comparison {c.op!r}")
        a, b = self.typed(c.lhs), self.typed(c.rhs)
        if a.dtype is None and b.dtype is None:
            return "1" if _CMP[c.op](a.value, b.value) else "0"
        if any(
            isinstance(v.value, float) if v.dtype is None
            else v.dtype.kind == "f"
            for v in (a, b)
        ):
            # NumPy compares in the promoted float type
            dt = np.result_type(*[
                v.value if v.dtype is None else v.dtype for v in (a, b)
            ])
        elif _U64 in (a.dtype, b.dtype):
            if any(
                (v.value < 0) if v.dtype is None else v.dtype.kind == "i"
                for v in (a, b)
            ):
                raise InexactOp("uint64 compared with a signed value")
            dt = _U64
        else:
            # integer comparisons are exact in NumPy, and in int64
            dt = _I64
        return f"({self.convert(a, dt)} {c.op} {self.convert(b, dt)})"

    # -- stage bodies -----------------------------------------------------
    def strong(self, v: CVal) -> CVal:
        """``np.asarray(v)``: a weak value takes NumPy's default dtype."""
        if v.dtype is not None:
            return v
        dtype = np.asarray(v.value).dtype
        return CVal(self.convert(v, dtype), dtype)

    def body(self, defn: Sequence[object], out_dtype: np.dtype) -> str:
        """A stage body — expressions and ``Case`` branches, first
        matching branch wins, unmatched points zero — as one C expression
        of type ``out_dtype``: what ``evaluate_cases`` computes with
        ``np.select`` and ``astype``."""
        cases = []
        default = CVal("0", None, 0)
        for entry in defn:
            if isinstance(entry, Case):
                cases.append(
                    (self.cond(entry.condition), self.typed(entry.expression))
                )
            else:
                default = self.typed(entry)
        if not cases:
            # np.asarray(value).astype(out_dtype)
            return self.convert(self.strong(default), out_dtype)
        # np.select converts every choice (np.asarray'd, so no longer
        # weak) and the default to one intermediate dtype first
        choices = [self.strong(v) for _, v in cases]
        with np.errstate(all="ignore"):
            mid = np.select(
                [np.ones(1, bool)] * len(choices),
                [np.asarray(v.sample) for v in choices],
                default=default.sample,
            ).dtype
        text = self.convert(default, mid)
        for (cond, _), v in zip(reversed(cases), reversed(choices)):
            text = f"({cond} ? {self.convert(v, mid)} : {text})"
        return self.convert(CVal(text, mid), out_dtype)
