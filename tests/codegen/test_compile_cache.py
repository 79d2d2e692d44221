"""On-disk compiled-artifact cache: hygiene, corruption and concurrency.

The cache directory is shared state — between backend instances, between
processes, between CI runs restored from an artifact cache — so its failure
contract matters more than its hit rate: **corruption may cost a compile,
never correctness**.  Every test here damages the store in a specific way
(truncation, bit rot, sidecar loss, schema drift, racing writers) and
asserts the reader degrades to a clean recompile with a verifiable artifact
left behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.codegen import artifact_digest, clear_memory_cache, find_c_compiler
from repro.codegen.cache import (
    ARTIFACT_SCHEMA,
    _artifact_paths,
    get_compiled_kernel,
    memory_cache_size,
)
from repro.codegen.compiler import CompiledKernel, CompiledRuntime, CompilerUnavailable
from repro.codegen.emit_c import emit_runtime_source
from repro.codegen.loopir import float_literals

requires_compiler = pytest.mark.skipif(
    find_c_compiler() is None, reason="no C compiler on this host"
)


def _source(tag: str) -> str:
    """A trivial but unique kernel source (unique digest per ``tag``)."""
    return (
        "#include <stdint.h>\n"
        f"/* cache-test kernel: {tag} */\n"
        "void repro_kernel(const int64_t *dims, char **ptrs,\n"
        "                  const int64_t *strides) {\n"
        "    (void)dims; (void)ptrs; (void)strides;\n"
        "}\n"
    )


class _Kind:
    """One kind of stored artifact: how to make a source and how to resolve it.

    The store treats a kernel and the kernel runtime alike; the corruption
    and race tests below run over both.
    """

    def __init__(self, make_source, loader):
        self.source = make_source
        self.loader = loader

    @property
    def resolve_args(self):
        return {"loader": self.loader}

    def digest(self, source):
        return artifact_digest(source, 2)


_KERNEL = _Kind(_source, CompiledKernel)

#: A trailing comment gives each test its own digest, as ``tag`` does for
#: kernels.
_RUNTIME = _Kind(
    lambda tag: emit_runtime_source() + f"/* cache-test runtime: {tag} */\n",
    CompiledRuntime,
)


@pytest.fixture(params=["kernel", "runtime"])
def kind(request):
    return _KERNEL if request.param == "kernel" else _RUNTIME


@pytest.fixture(autouse=True)
def fresh_memory_cache():
    clear_memory_cache()
    yield
    clear_memory_cache()


def _compile(source, cache_dir, **kwargs):
    return get_compiled_kernel(source, cache_dir=str(cache_dir), **kwargs)


@requires_compiler
class TestCacheLifecycle:
    def test_outcome_sequence_compiled_memory_disk(self, tmp_path):
        source = _source("lifecycle")
        _, outcome = _compile(source, tmp_path)
        assert outcome == "compiled"
        _, outcome = _compile(source, tmp_path)
        assert outcome == "memory"
        clear_memory_cache()
        _, outcome = _compile(source, tmp_path)
        assert outcome == "disk"
        assert memory_cache_size() == 1  # disk hit repopulates the memo

    def test_artifact_triple_on_disk(self, tmp_path):
        source = _source("triple")
        _compile(source, tmp_path)
        digest = artifact_digest(source, 2)
        so_path, meta_path, c_path = _artifact_paths(str(tmp_path), digest)
        assert os.path.isfile(so_path)
        assert os.path.isfile(c_path)
        meta = json.loads(open(meta_path).read())
        assert meta["schema"] == ARTIFACT_SCHEMA
        assert len(meta["sha256"]) == 64
        # No temp files leaked by the atomic-rename publication.
        assert not [name for name in os.listdir(tmp_path) if ".tmp" in name]

    def test_opt_level_changes_the_digest(self):
        source = _source("optlevel")
        assert artifact_digest(source, 0) != artifact_digest(source, 2)

    def test_mt_symbol_binding_is_optional(self, tmp_path):
        # A kernel binds ``repro_kernel`` and nothing else: a library
        # without a ``repro_kernel_mt`` loads, and one that still carries
        # that retired entry point loads the same way, its extra symbol
        # never bound.
        extra = (
            "void repro_kernel_mt(const int64_t *dims, char **ptrs,\n"
            "                     const int64_t *strides) {\n"
            "    (void)dims; (void)ptrs; (void)strides;\n"
            "}\n"
        )
        for source in (_source("nomtsymbol"), _source("stalemtsymbol") + extra):
            kernel, outcome = _compile(source, tmp_path)
            assert outcome == "compiled"
            assert kernel.fn is not None
            assert not hasattr(kernel, "fn_mt")

    def test_compiler_unavailable_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.codegen.cache.find_c_compiler", lambda: None)
        with pytest.raises(CompilerUnavailable):
            _compile(_source("nocompiler"), tmp_path)


@requires_compiler
class TestCorruption:
    """Each damage mode must be detected, discarded and recompiled.

    The pristine artifact is produced by a *subprocess*: corruption on disk
    is only ever observed by a process that has not already loaded that
    artifact (a loaded one is served from the in-process memo and never
    re-read), and a process must not ``dlopen`` a path, mutate the file in
    place, and load the same path again — the dynamic loader dedups by
    name and would hand back the stale mapping.
    """

    def _damaged_reload(self, tmp_path, kind, tag, damage, loads=None):
        source = kind.source(tag)
        _compile_in_subprocess(source, tmp_path, kind)
        paths = _artifact_paths(str(tmp_path), kind.digest(source))
        damage(*paths)
        loader = kind.loader
        if loads is not None:
            # Record every library the reader hands to the dynamic loader.
            def loader(path):
                loads.append(path)
                return kind.loader(path)

        artifact, outcome = _compile(source, tmp_path, loader=loader)
        assert outcome == "compiled", "damaged artifact must recompile, not load"
        assert isinstance(artifact, kind.loader)
        # The store healed: a cold reader now gets a verified disk hit.
        clear_memory_cache()
        _, outcome = _compile(source, tmp_path, **kind.resolve_args)
        assert outcome == "disk"

    def test_truncated_library(self, tmp_path, kind):
        def truncate(so_path, meta_path, c_path):
            size = os.path.getsize(so_path)
            with open(so_path, "r+b") as handle:
                handle.truncate(size // 2)

        self._damaged_reload(tmp_path, kind, "truncated", truncate)

    def test_emptied_library(self, tmp_path, kind):
        def empty(so_path, meta_path, c_path):
            open(so_path, "wb").close()

        self._damaged_reload(tmp_path, kind, "emptied", empty)

    def test_bit_rot_hash_mismatch(self, tmp_path, kind):
        def flip(so_path, meta_path, c_path):
            with open(so_path, "r+b") as handle:
                handle.seek(0, os.SEEK_END)
                handle.write(b"\x00garbage")

        self._damaged_reload(tmp_path, kind, "bitrot", flip)

    def test_garbage_library_with_matching_hash(self, tmp_path, kind):
        # The sidecar verifies, but the loader must still reject the blob:
        # dlopen failure is the last line of defence.
        import hashlib

        def forge(so_path, meta_path, c_path):
            blob = b"\x7fNOT-AN-ELF"
            with open(so_path, "wb") as handle:
                handle.write(blob)
            meta = json.loads(open(meta_path).read())
            meta["sha256"] = hashlib.sha256(blob).hexdigest()
            with open(meta_path, "w") as handle:
                json.dump(meta, handle)

        self._damaged_reload(tmp_path, kind, "forged", forge)

    def test_missing_sidecar(self, tmp_path, kind):
        def drop(so_path, meta_path, c_path):
            os.unlink(meta_path)

        self._damaged_reload(tmp_path, kind, "nosidecar", drop)

    def test_unparseable_sidecar(self, tmp_path, kind):
        def scribble(so_path, meta_path, c_path):
            with open(meta_path, "w") as handle:
                handle.write("{not json")

        self._damaged_reload(tmp_path, kind, "badjson", scribble)

    def test_schema_drift(self, tmp_path, kind):
        def bump(so_path, meta_path, c_path):
            meta = json.loads(open(meta_path).read())
            meta["schema"] = ARTIFACT_SCHEMA + 1
            with open(meta_path, "w") as handle:
                json.dump(meta, handle)

        self._damaged_reload(tmp_path, kind, "schema", bump)

    def _older_schema_is_discarded(self, tmp_path, kind, schema):
        assert schema < ARTIFACT_SCHEMA

        def downgrade(so_path, meta_path, c_path):
            meta = json.loads(open(meta_path).read())
            meta["schema"] = schema
            with open(meta_path, "w") as handle:
                json.dump(meta, handle)

        loads = []
        self._damaged_reload(tmp_path, kind, "oldschema", downgrade, loads)
        # Exactly one library reached the loader, and only after the older
        # sidecar had been replaced by a freshly published one.
        assert len(loads) == 1
        digest = kind.digest(kind.source("oldschema"))
        _, meta_path, _ = _artifact_paths(str(tmp_path), digest)
        assert json.loads(open(meta_path).read())["schema"] == ARTIFACT_SCHEMA

    def test_schema_2_artifacts_are_discarded_never_loaded(self, tmp_path, kind):
        """A store restored from an old schema must fully recompile.

        A schema-2 kernel embeds its own C worker pool; dlopen'ing one
        would start threads the middleware does not know about.  The version gate
        treats a schema-2 sidecar — even next to a perfectly valid library
        — exactly like corruption: discard, recompile, republish.
        """
        self._older_schema_is_discarded(tmp_path, kind, 2)

    def test_schema_3_artifacts_are_discarded_never_loaded(self, tmp_path, kind):
        """A schema-3 kernel has its float constants compiled in and reads no
        literal entry of ``ptrs``: launched under the current ABI it would
        compute with the numbers of whichever program built it."""
        self._older_schema_is_discarded(tmp_path, kind, 3)

    def test_schema_4_artifacts_are_discarded_never_loaded(self, tmp_path, kind):
        """A schema-4 chunk takes a scratch lane for its fold: no current
        artifact folds a reduction or takes one."""
        assert ARTIFACT_SCHEMA == 5
        self._older_schema_is_discarded(tmp_path, kind, 4)

    def test_discarded_artifacts_are_removed(self, tmp_path):
        source = _source("removal")
        _compile(source, tmp_path)
        digest = artifact_digest(source, 2)
        so_path, meta_path, _ = _artifact_paths(str(tmp_path), digest)
        clear_memory_cache()
        with open(meta_path, "w") as handle:
            handle.write("rotten")
        _compile(source, tmp_path)  # recompiles and republishes
        assert os.path.isfile(so_path)
        assert json.loads(open(meta_path).read())["schema"] == ARTIFACT_SCHEMA


class TestArtifactIdentity:
    """What names an artifact: the kernel's form.  Float constants are launch
    operands (no ``cc`` run per value); integer constants are text, by design
    (they count, index and mask, and ``% 7`` is worth its strength reduction)."""

    @staticmethod
    def _sources(dtype, constants):
        from repro.bytecode.builder import ProgramBuilder
        from repro.bytecode.opcodes import OpCode
        from repro.codegen.emit_c import emit_kernel_source
        from repro.codegen.loopir import lower_kernel

        sources = []
        for constant in constants:
            builder = ProgramBuilder()
            x = builder.new_vector(64, dtype=dtype)
            y = builder.new_vector(64, dtype=dtype)
            builder.emit(OpCode.BH_MOD, y, x, constant)
            builder.add(y, y, constant)
            nest = lower_kernel(builder.build())
            sources.append((emit_kernel_source(nest), nest))
        return sources

    def test_float_constants_do_not_reach_the_source(self):
        from repro.bytecode import dtypes

        values = (2.5, -0.0, float("nan"), float("-inf"), 5e-324)
        (first, nest), *others = self._sources(dtypes.float64, values)
        assert all(source == first for source, _ in others)
        assert len({artifact_digest(source, 2) for source, _ in [(first, nest)] + others}) == 1
        # Two occurrences, two operands, after the slots.
        assert [literal.value for literal in float_literals(nest.body)] == [2.5, 2.5]
        for index in (0, 1):
            assert f"const double k{index} = *(const double *)ptrs[{2 + index}];" in first
        assert "0x" not in first and "NAN" not in first and "INFINITY" not in first

    def test_positive_zero_is_an_operand_too(self):
        """A zero is a number like any other: ``x * 0.0``, ``x * -0.0`` and
        ``x * 2.5`` are one source.  (A ``zeros()`` fill is no kernel at
        all: the native backend writes it without a compiler.)"""
        from repro.bytecode.builder import ProgramBuilder
        from repro.codegen.emit_c import emit_kernel_source
        from repro.codegen.loopir import lower_kernel

        sources = []
        for value in (0.0, -0.0, 2.5):
            builder = ProgramBuilder()
            x, y = builder.new_vector(64), builder.new_vector(64)
            builder.multiply(y, x, value)
            sources.append(emit_kernel_source(lower_kernel(builder.build())))
        zero, negative_zero, other = sources
        assert zero == negative_zero == other
        assert "(0.0)" not in zero and "k0" in zero

    def test_integer_constants_stay_text(self):
        from repro.bytecode import dtypes

        (seven, nest), (nine, _) = self._sources(dtypes.int64, (7, 9))
        assert seven != nine and artifact_digest(seven, 2) != artifact_digest(nine, 2)
        assert "(7LL)" in seven and "(9LL)" in nine
        assert float_literals(nest.body) == () and "k0" not in seven

    def test_a_chain_of_constants_is_folded_at_lowering(self):
        """NumPy's dtype probe already computed a constants-only step: the
        kernel gets the value, not a loop-invariant chain to hoist — until
        the slot is stored something that varies."""
        import numpy as np

        from repro.bytecode.builder import ProgramBuilder
        from repro.bytecode.opcodes import OpCode
        from repro.codegen.emit_c import emit_kernel_source
        from repro.codegen.loopir import Literal, lower_kernel

        builder = ProgramBuilder()
        x, a, b, y = (builder.new_vector(64) for _ in range(4))
        builder.identity(a, 2)
        builder.emit(OpCode.BH_SQRT, b, a)
        builder.multiply(y, x, b)  # y = x * sqrt(2): one literal
        builder.add(a, a, x)  # a varies from here on
        builder.multiply(b, a, 3.0)
        nest = lower_kernel(builder.build())
        assert [type(statement.expr) is Literal for statement in nest.body] == [
            True, True, False, False, False,
        ]
        assert [literal.value for literal in float_literals(nest.body)] == [
            np.sqrt(np.float64(2)), np.sqrt(np.float64(2)), 2.0, 3.0,
        ]
        source = emit_kernel_source(nest)
        assert "sqrt" not in source and "(2LL)" in source

    def test_a_unit_declares_what_it_calls(self):
        from repro.bytecode import dtypes

        ((source, _),) = self._sources(dtypes.float64, (2.5,))
        declared, _, rest = source.partition("#else\n")
        fallback, _, body = rest.partition("#endif\n")
        assert "double fmod(double, double);" in declared
        assert "double copysign(double, double);" in declared
        assert "sqrt" not in declared and "erf" not in declared
        assert fallback == "#include <stdint.h>\n#include <math.h>\n"
        assert "#include" not in declared + body
        ((source, _),) = self._sources(dtypes.int64, (7,))
        assert "#include <math.h>" not in source and "fmod" not in source


#: Worker script: compile one kernel form into a shared cache dir and print
#: the outcome.  Run as a subprocess so the worker is a genuinely cold
#: process (empty in-process memo, no loaded artifacts), like a fresh
#: service start.
_RACER = """
import sys
sys.path.insert(0, {src!r})
from repro.codegen import cache
source = open({source_path!r}).read()
artifact, outcome = cache.get_compiled_kernel(
    source,
    cache_dir={cache_dir!r},
    loader=getattr(cache, {loader!r}),
)
assert isinstance(artifact, getattr(cache, {loader!r}))
print(outcome)
"""

_SRC_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


def _racer_script(source_path, cache_dir, kind) -> str:
    return _RACER.format(
        src=_SRC_ROOT,
        source_path=str(source_path),
        cache_dir=str(cache_dir),
        loader=kind.loader.__name__,
    )


def _compile_in_subprocess(source: str, cache_dir, kind) -> str:
    """Populate ``cache_dir`` with ``source``'s artifact from a cold process."""
    source_path = os.path.join(str(cache_dir), "kernel_source.c.txt")
    os.makedirs(str(cache_dir), exist_ok=True)
    with open(source_path, "w") as handle:
        handle.write(source)
    script = _racer_script(source_path, cache_dir, kind)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    os.unlink(source_path)
    return result.stdout.strip()


@requires_compiler
class TestConcurrency:
    def test_racing_processes_compile_the_same_form(self, tmp_path, kind):
        """Two cold processes, one artifact, one shared cache directory.

        Whatever the interleaving — both compile, or one wins the rename
        race and the other reads it — both must end with a working kernel,
        and the directory must end consistent (verified artifact, no temp
        litter).
        """
        source_path = tmp_path / "kernel_source.c.txt"
        source_path.write_text(kind.source("race"))
        cache_dir = tmp_path / "cache"
        script = _racer_script(source_path, cache_dir, kind)
        racers = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outcomes = []
        for racer in racers:
            stdout, stderr = racer.communicate(timeout=120)
            assert racer.returncode == 0, stderr
            outcomes.append(stdout.strip())
        assert all(outcome in ("compiled", "disk") for outcome in outcomes)
        # The surviving store is coherent: this process loads it verified.
        clear_memory_cache()
        _, outcome = _compile(source_path.read_text(), cache_dir, **kind.resolve_args)
        assert outcome == "disk"
        assert not [name for name in os.listdir(cache_dir) if ".tmp" in name]
