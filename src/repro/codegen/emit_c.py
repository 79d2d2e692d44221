"""C99 emission from the loop-nest IR.

One :class:`~repro.codegen.loopir.LoopNest` becomes one C translation unit
exporting one symbol::

    void repro_kernel(const int64_t *dims,   /* rank extents            */
                      char **ptrs,          /* slots..., float literals */
                      const int64_t *strides /* slot-major, in bytes    */)

Geometry is entirely runtime: the artifact is compiled once per canonical
kernel *form* and launched with whatever extents, pointers and strides the
current call supplies.  ``ptrs[i]`` already includes the view's element
offset; ``strides[i * rank + d]`` is slot ``i``'s byte stride along loop
dimension ``d``.  So are the numbers: a float32/float64 literal is a
``const`` local ``k<j>`` loaded once, above the loop nest, from the address
in ``ptrs[slots + j]`` (:func:`repro.codegen.loopir.float_literals` fixes
``j``), so kernels that differ only in float constants are one source, one
digest, one compile.  Integer and bool literals — counts, indices, masks —
stay text (:func:`repro.codegen.loopir.is_operand`).

A kernel contains no threading code: a step split into row blocks is one
``repro_kernel`` call per block, made by the middleware's tile pool
(:mod:`repro.runtime.native`), so one artifact serves every thread count.
No artifact folds: a reduction is NumPy's ``ufunc.reduce`` on every tier,
and a kernel that ends in one compiles only its element-wise members (see
:mod:`repro.runtime.native`).  The one other artifact,
:func:`emit_runtime_source`, holds the vector ``erf`` of ``BH_ERF``.

Two emission decisions carry the performance win:

* **Store-to-load forwarding with dead-store elision** — every slot gets a
  scalar local; intermediate stores stay in registers and only the *last*
  store per slot writes memory.  This is sound because identical views
  share a slot and lowering rejected every overlapping-window kernel, so
  no other slot can observe an elided intermediate.  Slots liveness proved
  instruction-local (``LoopNest.elided_slots``) go further: they get no
  pointer, no strides and no memory lane at all — their value exists only
  in the scalar local, so a fused chain's temporaries cost zero traffic.
* **A contiguous fast path** — when every slot's innermost stride equals
  its item size the body is re-emitted over typed pointers with unit
  index arithmetic, which the C compiler auto-vectorizes; the strided
  generic body remains the fallback inside the same artifact.

Both bodies are generated from the same statement list, so they cannot
diverge semantically.  Emission is deterministic: equal loop nests produce
byte-identical source, which is what makes content-hashed artifact caching
coherent.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bytecode import dtypes
# The artifact symbol names live with the loader, which a process that
# only loads artifacts imports without the emitter.
from repro.codegen.compiler import KERNEL_SYMBOL, VEC_ERF_SYMBOL
from repro.codegen.loopir import (
    Cast,
    Literal,
    Load,
    LoopNest,
    Op,
    float_literals,
    is_operand,
)

_CTYPE = {
    "BH_BOOL": "unsigned char",
    "BH_INT32": "int32_t",
    "BH_INT64": "int64_t",
    "BH_FLOAT32": "float",
    "BH_FLOAT64": "double",
}

_FLOAT_MOD = """\
static inline {t} repro_mod_{tag}({t} a, {t} b) {{
    {t} r = fmod{f}(a, b);
    if (r != 0.0{f}) {{ if ((b < 0.0{f}) != (r < 0.0{f})) r += b; }}
    else {{ r = copysign{f}(0.0{f}, b); }}
    return r;
}}"""

_INT_MOD = """\
static inline {t} repro_mod_{tag}({t} a, {t} b) {{
    {t} r;
    if (b == 0 || b == -1) return 0;
    r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}}"""

_MINMAX = "static inline {t} repro_{kind}_{tag}({t} a, {t} b) {{ return (a {op} b || a != a) ? a : b; }}"

#: Helper functions a nest may reference, by name; an artifact carries only
#: the ones it uses.  The float max/min keep NumPy's NaN propagation
#: (fmax/fmin would drop it); the mod helpers replicate npy_divmod's floored
#: remainder, including the signed-zero rule and the integer guards NumPy
#: applies before hitting C's division traps.
_HELPERS = {
    **{
        f"repro_{kind}_{tag}": _MINMAX.format(t=t, kind=kind, tag=tag, op=op)
        for kind, op in (("max", ">"), ("min", "<"))
        for tag, t in (("f64", "double"), ("f32", "float"))
    },
    "repro_mod_f64": _FLOAT_MOD.format(t="double", tag="f64", f=""),
    "repro_mod_f32": _FLOAT_MOD.format(t="float", tag="f32", f="f"),
    "repro_mod_i64": _INT_MOD.format(t="int64_t", tag="i64"),
    "repro_mod_i32": _INT_MOD.format(t="int32_t", tag="i32"),
}

#: The prototype of every libm function emission can call.
_LIBM = {
    f"{name}{f}": f"{t} {name}{f}({', '.join([t] * arity)});"
    for name, arity in (("fmod", 2), ("copysign", 2), ("fabs", 1), ("sqrt", 1))
    for f, t in (("", "double"), ("f", "float"))
}
_LIBM["erf"] = "double erf(double);"

#: A translation unit declares what it calls: parsing ``<stdint.h>`` and
#: ``<math.h>`` was 2-9 ms of a ~55 ms kernel compile, for the same machine
#: code.  gcc and clang predefine the exact-width types; others include.
_DECLARE_IF = """\
#if defined(__INT64_TYPE__) && defined(__INT32_TYPE__)
typedef __INT64_TYPE__ int64_t;
typedef __INT32_TYPE__ int32_t;"""


def _assemble(banner: str, code: List[str]) -> str:
    """Prefix ``code`` with exactly the declarations and helpers it references."""
    text = "\n".join(code)
    helpers = [body for name, body in _HELPERS.items() if name in text]
    calls = "\n".join([text] + helpers)
    protos = [proto for name, proto in _LIBM.items() if f"{name}(" in calls]
    lines = [banner, _DECLARE_IF, *protos, "#else", "#include <stdint.h>"]
    if protos:
        lines.append("#include <math.h>")
    lines += ["#endif", ""] + helpers + ["", text]
    return "\n".join(lines) + "\n"


#: dtype → the suffix of its ``repro_mod_*`` / ``repro_max_*`` helpers.
_HELPER_TAG = {"BH_FLOAT64": "f64", "BH_FLOAT32": "f32", "BH_INT64": "i64", "BH_INT32": "i32"}

_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_COMPARE_SYMBOL = {"gt": ">", "ge": ">=", "lt": "<", "le": "<=", "eq": "==", "ne": "!="}


def _literal_names(body) -> Dict[int, str]:
    """``id(literal) -> k<i>`` for a statement list's float literals: they
    are launch operands (see :func:`repro.codegen.loopir.float_literals`),
    so no float constant ever reaches the C text."""
    return {id(literal): f"k{index}" for index, literal in enumerate(float_literals(body))}


def _literal_loads(nest, first: int) -> List[str]:
    """The ``const`` locals ``k<i>`` of a nest's float literals, each loaded
    once — above the loop nest — through the ``ptrs`` entries from ``first``."""
    return [
        f"    const {_CTYPE[literal.dtype_name]} k{index} = "
        f"*(const {_CTYPE[literal.dtype_name]} *)ptrs[{first + index}];"
        for index, literal in enumerate(float_literals(nest.body))
    ]


def _literal_c(literal: Literal, names: Dict[int, str]) -> str:
    name = literal.dtype_name
    value = literal.value
    if is_operand(literal):
        return names[id(literal)]
    if name == "BH_BOOL":
        return "1" if bool(value) else "0"
    if name == "BH_INT32":
        return f"({int(value)})"
    ivalue = int(value)
    if ivalue == -(2**63):
        return "(-9223372036854775807LL - 1)"
    return f"({ivalue}LL)"


def _cast_c(expr_c: str, dtype_name: str) -> str:
    if dtype_name == "BH_BOOL":
        # NumPy's unsafe cast to bool is a != 0 test, not a value truncation.
        return f"(unsigned char)(({expr_c}) != 0)"
    return f"({_CTYPE[dtype_name]})({expr_c})"


def _expr_c(expr, names: Dict[int, str]) -> str:
    if isinstance(expr, Load):
        return f"v{expr.slot}"
    if isinstance(expr, Literal):
        return _literal_c(expr, names)
    if isinstance(expr, Cast):
        return _cast_c(_expr_c(expr.arg, names), expr.dtype_name)
    if isinstance(expr, Op):
        return _op_c(expr, names)
    raise TypeError(f"unknown IR expression {expr!r}")


def _minmax_c(kind: str, dtype_name: str, a: str, b: str) -> str:
    if dtype_name in ("BH_FLOAT64", "BH_FLOAT32"):  # NaN-propagating helpers
        return f"repro_{kind}_{_HELPER_TAG[dtype_name]}({a}, {b})"
    symbol = ">" if kind == "max" else "<"
    return f"((({a}) {symbol} ({b})) ? ({a}) : ({b}))"


def _op_c(op: Op, names: Dict[int, str]) -> str:
    args = [_expr_c(arg, names) for arg in op.args]
    kind = op.kind
    if kind in _BINARY_SYMBOL:
        return f"(({args[0]}) {_BINARY_SYMBOL[kind]} ({args[1]}))"
    if kind in _COMPARE_SYMBOL:
        return f"(({args[0]}) {_COMPARE_SYMBOL[kind]} ({args[1]}))"
    if kind in ("max", "min"):
        return _minmax_c(kind, op.dtype_name, args[0], args[1])
    if kind == "mod":
        return f"repro_mod_{_HELPER_TAG[op.dtype_name]}({args[0]}, {args[1]})"
    if kind == "neg":
        return f"(-({args[0]}))"
    if kind == "abs":
        if op.dtype_name == "BH_FLOAT64":
            return f"fabs({args[0]})"
        if op.dtype_name == "BH_FLOAT32":
            return f"fabsf({args[0]})"
        if op.dtype_name == "BH_BOOL":
            return args[0]
        return f"((({args[0]}) < 0) ? (-({args[0]})) : ({args[0]}))"
    if kind == "sqrt":
        func = "sqrtf" if op.dtype_name == "BH_FLOAT32" else "sqrt"
        return f"{func}({args[0]})"
    if kind == "recip":
        one = "1.0f" if op.dtype_name == "BH_FLOAT32" else "1.0"
        return f"(({one}) / ({args[0]}))"
    if kind == "erf":  # always in double; -fno-builtin-erf keeps it a libm call
        return f"erf({args[0]})"
    if kind == "land":
        return f"((({args[0]}) != 0) && (({args[1]}) != 0))"
    if kind == "lor":
        return f"((({args[0]}) != 0) || (({args[1]}) != 0))"
    if kind == "lnot":
        return f"(({args[0]}) == 0)"
    raise TypeError(f"unknown IR op kind {kind!r}")


def _loads_of(expr, out: List[int]) -> None:
    if isinstance(expr, Load):
        out.append(expr.slot)
    elif isinstance(expr, Cast):
        _loads_of(expr.arg, out)
    elif isinstance(expr, Op):
        for arg in expr.args:
            _loads_of(arg, out)


def _statement_lines(body, slot_dtypes, element, memory_stores) -> List[str]:
    """The C statements computing one element of a statement list.

    Each slot is loaded (``element(slot)`` is its lvalue) into a scalar
    local at its first use and every store assigns that local;
    ``memory_stores`` maps a slot to the position of the one store that also
    writes its element back.
    """
    lines: List[str] = []
    defined = set()
    names = _literal_names(body)
    for position, statement in enumerate(body):
        loads: List[int] = []
        _loads_of(statement.expr, loads)
        for slot in loads:
            if slot in defined:
                continue
            defined.add(slot)
            lines.append(f"{_CTYPE[slot_dtypes[slot]]} v{slot} = {element(slot)};")
        out_slot = statement.slot
        value = _cast_c(_expr_c(statement.expr, names), slot_dtypes[out_slot])
        if out_slot in defined:
            lines.append(f"v{out_slot} = {value};")
        else:
            defined.add(out_slot)
            lines.append(f"{_CTYPE[slot_dtypes[out_slot]]} v{out_slot} = {value};")
        if memory_stores.get(out_slot) == position:
            lines.append(f"{element(out_slot)} = v{out_slot};")
    return lines


class _BodyEmitter:
    """Emits one loop-nest body; ``contiguous`` picks the addressing mode."""

    def __init__(self, nest: LoopNest, contiguous: bool) -> None:
        self.nest = nest
        self.contiguous = contiguous
        self.lines: List[str] = []
        self.itemsizes = [dtypes.from_name(n).itemsize for n in nest.slot_dtypes]
        # Statement index of the final store per slot: only these write memory.
        self.last_store: Dict[int, int] = {
            index: position
            for position, statement in enumerate(nest.body)
            for index in (statement.slot,)
        }

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * (depth + 1) + text)

    def _base_ptr(self, slot: int, level: int) -> str:
        return f"p{slot}" if level < 0 else f"b{slot}_{level}"

    def _element(self, slot: int) -> str:
        """Innermost-loop lvalue for one slot's current element."""
        rank = self.nest.rank
        base = self._base_ptr(slot, rank - 2)
        ctype = _CTYPE[self.nest.slot_dtypes[slot]]
        index = f"i{rank - 1}"
        if self.contiguous:
            return f"(({ctype} *){base})[{index}]"
        return f"(*({ctype} *)({base} + {index} * s{slot}_{rank - 1}))"

    def _loop_header(self, depth: int) -> str:
        return f"for (int64_t i{depth} = 0; i{depth} < n{depth}; ++i{depth}) {{"

    def emit(self) -> List[str]:
        rank = self.nest.rank
        num_slots = self.nest.num_slots
        for depth in range(rank - 1):
            self.line(depth, self._loop_header(depth))
            for slot in range(num_slots):
                if slot in self.nest.elided_slots:
                    continue
                prev = self._base_ptr(slot, depth - 1)
                self.line(
                    depth + 1,
                    f"char *b{slot}_{depth} = {prev} + i{depth} * s{slot}_{depth};",
                )
        depth = rank - 1
        self.line(depth, self._loop_header(depth))
        self._emit_statements(depth + 1)
        self.line(depth, "}")
        for depth in range(rank - 2, -1, -1):
            self.line(depth, "}")
        return self.lines

    def _emit_statements(self, depth: int) -> None:
        nest = self.nest
        # Only the final store per slot writes memory, and never a local one.
        memory_stores = {
            slot: position
            for slot, position in self.last_store.items()
            if slot not in nest.elided_slots
        }
        for text in _statement_lines(
            nest.body, nest.slot_dtypes, self._element, memory_stores
        ):
            self.line(depth, text)


# ---------------------------------------------------------------------------
# The kernel runtime artifact
# ---------------------------------------------------------------------------

#: What ``BH_ERF`` means on every tier that does not lower it into a kernel:
#: the host libm's ``erf`` over contiguous doubles.  The interpreter, the
#: kernel templates and the dist workers call this one loop; compiled
#: kernels call the same ``erf`` inline; ``math.erf`` (the no-compiler
#: fallback) is that function too, so all of them agree bit for bit.
_RT_VEC_ERF = f"""\
void {VEC_ERF_SYMBOL}(int64_t n, const double *src, double *dst)
{{
    int64_t i;
    for (i = 0; i < n; ++i)
        dst[i] = erf(src[i]);
}}
"""


def emit_runtime_source() -> str:
    """The kernel runtime artifact: ``BH_ERF``'s vector ``erf``.

    Compiled once per cache directory and loaded once per process;
    ``BH_ERF`` outside compiled kernels runs its ``repro_vec_erf``.  A host
    that builds no runtime computes ``BH_ERF`` with ``math.erf``.
    """
    return _assemble("/* Generated by repro.codegen; the kernel runtime. */", [_RT_VEC_ERF])


def emit_kernel_source(nest: LoopNest) -> str:
    """Emit the complete, deterministic C source for one loop nest."""
    rank = nest.rank
    num_slots = nest.num_slots
    itemsizes = [dtypes.from_name(name).itemsize for name in nest.slot_dtypes]
    lines = [
        f"void {KERNEL_SYMBOL}(const int64_t *dims, char **ptrs, const int64_t *strides)",
        "{",
    ]
    for depth in range(rank):
        lines.append(f"    const int64_t n{depth} = dims[{depth}];")
    for slot in range(num_slots):
        if slot in nest.elided_slots:
            continue  # no memory lane: the slot lives in a scalar local only
        lines.append(f"    char * const p{slot} = ptrs[{slot}];")
        for depth in range(rank):
            lines.append(
                f"    const int64_t s{slot}_{depth} = strides[{slot * rank + depth}];"
            )
    lines += _literal_loads(nest, num_slots)
    unit = " && ".join(
        f"s{slot}_{rank - 1} == {itemsizes[slot]}"
        for slot in range(num_slots)
        if slot not in nest.elided_slots
    ) or "1"
    lines.append(f"    if ({unit}) {{")
    lines.extend("    " + text for text in _BodyEmitter(nest, contiguous=True).emit())
    lines.append("    } else {")
    lines.extend("    " + text for text in _BodyEmitter(nest, contiguous=False).emit())
    lines.append("    }")
    lines.append("}")
    return _assemble(
        "/* Generated by repro.codegen; one artifact per canonical kernel form. */",
        lines,
    )
