"""C99 emission from the loop-nest IR.

One :class:`~repro.codegen.loopir.LoopNest` becomes one C translation unit
exporting two symbols::

    void repro_kernel(const int64_t *dims,   /* rank extents            */
                      char **ptrs,          /* slots..., float literals */
                      const int64_t *strides /* slot-major, in bytes    */)

    void repro_kernel_mt(const int64_t *dims, char **ptrs,
                         const int64_t *strides, int32_t nthreads,
                         repro_launch_fn launch)

Geometry is entirely runtime: the artifact is compiled once per canonical
kernel *form* and launched with whatever extents, pointers and strides the
current tile supplies.  ``ptrs[i]`` already includes the view's element
offset; ``strides[i * rank + d]`` is slot ``i``'s byte stride along loop
dimension ``d``.  So are the numbers: a float32/float64 literal is a
``const`` local ``k<j>`` loaded once, above the loop nest, from the address
in ``ptrs[slots + j]`` (:func:`repro.codegen.loopir.float_literals` fixes
``j``), so kernels that differ only in float constants are one source, one
digest, one compile.  Integer and bool literals — counts, indices, masks —
stay text (:func:`repro.codegen.loopir.is_operand`).

``repro_kernel_mt`` is the chunked entry point: it clamps ``nthreads`` to
the row count and hands the artifact's chunk function to ``launch`` — the
``repro_rt_launch`` of the process's one **kernel runtime artifact**
(:func:`emit_runtime_source`), which block-partitions the outermost loop
and runs the row ranges on its persistent pthread pool (``"pthread"``) or
an OpenMP parallel-for (``"openmp"``).  A null ``launch`` runs the whole
nest on the caller.  Kernel artifacts therefore contain no threading code,
no ``<pthread.h>`` and no undefined symbol: they are the same source, the
same flags and the same digest under every threading mode, and one
compiled artifact serves every thread count.
No artifact folds: a reduction is NumPy's ``ufunc.reduce`` on every tier,
and a kernel that ends in one compiles only its element-wise members (see
:mod:`repro.runtime.native`).

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
from repro.codegen.compiler import (
    KERNEL_SYMBOL,
    MT_KERNEL_SYMBOL,
    RT_LAUNCH_SYMBOL,
    VEC_ERF_SYMBOL,
)
from repro.codegen.loopir import (
    Cast,
    Literal,
    Load,
    LoopNest,
    Op,
    float_literals,
    is_operand,
)

#: Hard cap on in-kernel chunks; bounds the runtime's pool.
MT_MAX_PARTS = 64

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
#if defined(__INT64_TYPE__) && defined(__INT32_TYPE__) && defined(__INTPTR_TYPE__)
typedef __INT64_TYPE__ int64_t;
typedef __INT32_TYPE__ int32_t;
typedef __INTPTR_TYPE__ intptr_t;"""

_CHUNK_ARGS = "const int64_t *dims, char **ptrs, const int64_t *strides, int64_t row_start, int64_t row_stop"

#: The launch ABI shared by kernel artifacts and the runtime artifact: the
#: runtime calls ``run`` once per row range.
_ABI_TYPES = f"""\
typedef void (*repro_chunk_fn)({_CHUNK_ARGS});
typedef int (*repro_launch_fn)(repro_chunk_fn run, const int64_t *dims, char **ptrs, const int64_t *strides, int64_t rows, int parts);"""

_MT_DEFINE = f"#define REPRO_MT_MAX_PARTS {MT_MAX_PARTS}"

#: The loop nest is optimised once: inlined, -O3 vectorised it again in
#: every entry point that calls it, which was most of a kernel's compile.
_NOINLINE_DEFINE = """\
#if defined(__GNUC__)
#define REPRO_NOINLINE __attribute__((noinline))
#else
#define REPRO_NOINLINE
#endif"""


def _assemble(banner: str, code: List[str]) -> str:
    """Prefix ``code`` with exactly the declarations and helpers it references."""
    text = "\n".join(code)
    helpers = [body for name, body in _HELPERS.items() if name in text]
    calls = "\n".join([text] + helpers)
    protos = [proto for name, proto in _LIBM.items() if f"{name}(" in calls]
    lines = [banner, _DECLARE_IF, *protos, "#else", "#include <stdint.h>"]
    if protos:
        lines.append("#include <math.h>")
    lines += ["#endif", ""] + helpers + [_MT_DEFINE, _NOINLINE_DEFINE, _ABI_TYPES, "", text]
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
        # Depth 0 runs over the caller-supplied row range so the same body
        # serves both the serial entry (0..dims[0]) and one mt chunk.
        low = "row_start" if depth == 0 else "0"
        high = "row_stop" if depth == 0 else f"n{depth}"
        return f"for (int64_t i{depth} = {low}; i{depth} < {high}; ++i{depth}) {{"

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

#: Persistent worker pool of the pthread-mode runtime.  The pool's threads
#: are detached and live for the process: launches after the first pay no
#: thread start-up, and because every kernel artifact launches through this
#: one pool a process holds at most ``nthreads - 1`` of them however many
#: kernel forms it has compiled.  ``repro_rt_launch_mu`` serializes whole
#: launches process-wide, so concurrent callers queue up rather than
#: interleave task generations; the inner mutex + generation counter is the
#: arm/ack handshake with the workers.
_RT_PTHREAD = """\
#include <pthread.h>

typedef struct {
    repro_chunk_fn run;
    const int64_t *dims;
    char **ptrs;
    const int64_t *strides;
    int64_t start;
    int64_t stop;
} repro_rt_task;

static pthread_mutex_t repro_rt_launch_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_mutex_t repro_rt_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t repro_rt_wake = PTHREAD_COND_INITIALIZER;
static pthread_cond_t repro_rt_done = PTHREAD_COND_INITIALIZER;
static repro_rt_task repro_rt_tasks[REPRO_MT_MAX_PARTS];
static unsigned long repro_rt_generation = 0;
static int repro_rt_workers = 0;
static int repro_rt_armed = 0;
static int repro_rt_pending = 0;

static void *repro_rt_worker(void *arg)
{
    const int slot = (int)(intptr_t)arg;
    unsigned long seen = 0;
    for (;;) {
        repro_rt_task task;
        int armed;
        pthread_mutex_lock(&repro_rt_mu);
        while (repro_rt_generation == seen)
            pthread_cond_wait(&repro_rt_wake, &repro_rt_mu);
        seen = repro_rt_generation;
        armed = slot < repro_rt_armed;
        if (armed)
            task = repro_rt_tasks[slot];
        pthread_mutex_unlock(&repro_rt_mu);
        if (!armed)
            continue;
        task.run(task.dims, task.ptrs, task.strides, task.start, task.stop);
        pthread_mutex_lock(&repro_rt_mu);
        if (--repro_rt_pending == 0)
            pthread_cond_signal(&repro_rt_done);
        pthread_mutex_unlock(&repro_rt_mu);
    }
    return 0;
}

/* Block-partition rows [0, rows) into `parts` chunks -- the first
 * rows % parts chunks get one extra row, matching the middleware's
 * partition_length -- then run chunk 0 on the calling thread and the rest
 * on pool workers.  Returns
 * the number of chunks actually run: thread creation can fall short on a
 * constrained host, in which case the split shrinks to what exists. */
int repro_rt_launch(repro_chunk_fn run, const int64_t *dims, char **ptrs,
                    const int64_t *strides, int64_t rows, int parts)
{
    repro_rt_task own;
    int64_t chunk, extra, cursor;
    int index;
    if (parts > REPRO_MT_MAX_PARTS)
        parts = REPRO_MT_MAX_PARTS;
    pthread_mutex_lock(&repro_rt_launch_mu);
    pthread_mutex_lock(&repro_rt_mu);
    while (repro_rt_workers < parts - 1) {
        pthread_t tid;
        pthread_attr_t attr;
        if (pthread_attr_init(&attr) != 0)
            break;
        pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
        if (pthread_create(&tid, &attr, repro_rt_worker,
                           (void *)(intptr_t)repro_rt_workers) != 0) {
            pthread_attr_destroy(&attr);
            break;
        }
        pthread_attr_destroy(&attr);
        repro_rt_workers++;
    }
    if (parts - 1 > repro_rt_workers)
        parts = repro_rt_workers + 1;
    chunk = rows / parts;
    extra = rows % parts;
    cursor = 0;
    for (index = 0; index < parts; ++index) {
        const int64_t count = chunk + (index < extra ? 1 : 0);
        repro_rt_task *task = index == 0 ? &own : &repro_rt_tasks[index - 1];
        task->run = run;
        task->dims = dims;
        task->ptrs = ptrs;
        task->strides = strides;
        task->start = cursor;
        task->stop = cursor + count;
        cursor += count;
    }
    repro_rt_armed = parts - 1;
    repro_rt_pending = parts - 1;
    repro_rt_generation++;
    pthread_cond_broadcast(&repro_rt_wake);
    pthread_mutex_unlock(&repro_rt_mu);
    run(dims, ptrs, strides, own.start, own.stop);
    pthread_mutex_lock(&repro_rt_mu);
    while (repro_rt_pending != 0)
        pthread_cond_wait(&repro_rt_done, &repro_rt_mu);
    pthread_mutex_unlock(&repro_rt_mu);
    pthread_mutex_unlock(&repro_rt_launch_mu);
    return parts;
}
"""

#: The OpenMP-mode runtime: the same partition, one parallel-for.
_RT_OPENMP = """\
int repro_rt_launch(repro_chunk_fn run, const int64_t *dims, char **ptrs,
                    const int64_t *strides, int64_t rows, int parts)
{
    const int64_t chunk = rows / parts;
    const int64_t extra = rows % parts;
    int index;
#pragma omp parallel for schedule(static) num_threads(parts)
    for (index = 0; index < parts; ++index) {
        const int64_t start = (int64_t)index * chunk + (index < extra ? index : extra);
        const int64_t stop = start + chunk + (index < extra ? 1 : 0);
        run(dims, ptrs, strides, start, stop);
    }
    return parts;
}
"""

_RT_BODY = {"pthread": _RT_PTHREAD, "openmp": _RT_OPENMP}

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


def emit_runtime_source(mt_mode: str) -> str:
    """The kernel runtime artifact for one threading mode.

    Compiled once per cache directory and loaded once per process; every
    kernel artifact receives its ``repro_rt_launch`` as the ``launch``
    argument of ``repro_kernel_mt``, and ``BH_ERF`` outside compiled
    kernels runs its ``repro_vec_erf``.  There is no ``"serial"`` runtime: a
    host whose toolchain builds neither form launches with a null pointer
    and computes ``BH_ERF`` with ``math.erf``.
    """
    return _assemble(
        f"/* Generated by repro.codegen; the {mt_mode} kernel runtime. */",
        [_RT_BODY[mt_mode], _RT_VEC_ERF],
    )


# ---------------------------------------------------------------------------
# Kernel entry points
# ---------------------------------------------------------------------------

_BODY_HEAD = f"static REPRO_NOINLINE void repro_kernel_body({_CHUNK_ARGS})"

_MT_ENTRY_HEAD = (
    f"void {MT_KERNEL_SYMBOL}(const int64_t *dims, char **ptrs, "
    "const int64_t *strides, int32_t nthreads, repro_launch_fn launch)"
)


#: Both entry points of a kernel: the serial one runs ``repro_kernel_body``
#: over every row of ``dims[0]``, the chunked one hands the body to
#: ``launch`` per row range.
_ENTRIES = [
    f"void {KERNEL_SYMBOL}(const int64_t *dims, char **ptrs, const int64_t *strides)",
    "{",
    "    repro_kernel_body(dims, ptrs, strides, 0, dims[0]);",
    "}",
    "",
    _MT_ENTRY_HEAD,
    "{",
    "    const int64_t rows = dims[0];",
    "    int parts = (int)nthreads;",
    "    if (parts > REPRO_MT_MAX_PARTS) parts = REPRO_MT_MAX_PARTS;",
    "    if ((int64_t)parts > rows) parts = (int)rows;",
    "    if (parts <= 1 || launch == 0)",
    "        repro_kernel_body(dims, ptrs, strides, 0, rows);",
    "    else",
    "        launch(repro_kernel_body, dims, ptrs, strides, rows, parts);",
    "}",
]


def emit_kernel_source(nest: LoopNest) -> str:
    """Emit the complete, deterministic C source for one loop nest."""
    rank = nest.rank
    num_slots = nest.num_slots
    itemsizes = [dtypes.from_name(name).itemsize for name in nest.slot_dtypes]
    lines = [_BODY_HEAD, "{"]
    if rank == 1:
        lines.append("    (void)dims;")
    for depth in range(1, rank):
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
    lines += ["}", ""]
    lines += _ENTRIES
    return _assemble(
        "/* Generated by repro.codegen; one artifact per canonical kernel form. */",
        lines,
    )
