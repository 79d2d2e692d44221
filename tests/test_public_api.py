"""Tests for the public API surface of the top-level package.

An open-source release lives or dies by its import surface staying stable;
these tests pin the names documented in the README and verify that every
``__all__`` entry actually resolves.
"""

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _fresh(script: str, *args) -> None:
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
        timeout=120,
    )
    assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr


class TestTopLevelExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") >= 1

    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name!r}"

    @pytest.mark.parametrize(
        "name",
        [
            "ProgramBuilder",
            "Program",
            "Instruction",
            "OpCode",
            "View",
            "BaseArray",
            "Constant",
            "optimize",
            "default_pipeline",
            "CostModel",
            "NumPyInterpreter",
            "MemoryManager",
            "format_program",
            "parse_program",
            "validate_program",
            "get_backend",
            "Config",
            "get_config",
        ],
    )
    def test_documented_names_exist(self, name):
        assert hasattr(repro, name)

    def test_subpackages_importable(self):
        for module in (
            "repro.bytecode",
            "repro.core",
            "repro.runtime",
            "repro.linalg",
            "repro.frontend",
            "repro.workloads",
            "repro.utils",
            "repro.tools",
        ):
            assert importlib.import_module(module) is not None

    def test_subpackage_all_entries_resolve(self):
        for module_name in (
            "repro.bytecode",
            "repro.core",
            "repro.runtime",
            "repro.linalg",
            "repro.frontend",
            "repro.workloads",
            "repro.utils",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


class TestExportsOnDemand:
    """Packages that resolve their exports on first use, each in a fresh interpreter."""

    @pytest.mark.parametrize(
        "package",
        [
            "repro",
            "repro.runtime",
            "repro.dist",
            "repro.codegen",
            "repro.bytecode",
            "repro.tools",
        ],
    )
    def test_every_export_resolves_to_its_defining_object(self, package):
        _fresh(
            """
            import importlib, sys
            name = sys.argv[1]
            pkg = importlib.import_module(name)
            extra = {"__version__"} if name == "repro" else set()
            assert sorted(pkg.__all__) == sorted(set(pkg._EXPORTS) | extra)
            for export, module in pkg._EXPORTS.items():
                value = getattr(pkg, export)
                expected = importlib.import_module(module)
                if module != f"{name}.{export}":
                    expected = getattr(expected, export)
                assert value is expected, export
                assert export in dir(pkg), export
            namespace = {}
            exec(f"from {name} import *", namespace)
            assert set(pkg.__all__) <= set(namespace)
            try:
                pkg.no_such_export
            except AttributeError as exc:
                assert repr(name) in str(exc) and "no_such_export" in str(exc), exc
            else:
                raise AssertionError("an unknown name resolved")
            print("ok")
            """,
            package,
        )

    def test_the_names_bench_imports_and_linalg_functions_resolve(self):
        _fresh(
            """
            import inspect
            import repro.linalg.inverse
            import repro
            # A submodule import must not rebind linalg's functions of that name.
            assert inspect.isfunction(repro.linalg.inverse)
            assert inspect.isfunction(repro.linalg.solve)
            from repro import codegen
            assert callable(codegen.clear_memory_cache)
            from repro.codegen import find_c_compiler
            from repro.dist.backend import WorkerPool
            from repro.runtime.memplan import attach_memory_plan
            from repro.runtime.plan import ExecutionPlan, canonical_program_key, fingerprint_of_key
            from repro.runtime.tiling import decompose, resolve_num_threads
            # A submodule nobody imported yet still resolves as an attribute.
            assert repro.frontend.session.Session
            print("ok")
            """
        )


class TestReadmeQuickstartSnippets:
    def test_frontend_quickstart(self):
        from repro import frontend as np
        from repro.frontend import reset_session

        reset_session()
        a = np.zeros(10)
        a += 1
        a += 1
        a += 1
        assert list(a.to_numpy()) == [3.0] * 10

    def test_bytecode_quickstart(self):
        from repro import NumPyInterpreter, ProgramBuilder, format_program, optimize

        builder = ProgramBuilder()
        a0 = builder.new_vector(10)
        builder.identity(a0, 0)
        builder.add(a0, a0, 1)
        builder.add(a0, a0, 1)
        builder.add(a0, a0, 1)
        builder.sync(a0)
        program = builder.build()
        report = optimize(program)
        assert "BH_ADD" in format_program(report.optimized)
        result = NumPyInterpreter().execute(report.optimized)
        assert list(result.value(a0)) == [3.0] * 10

    def test_public_docstrings_exist(self):
        # every public module and top-level class carries a docstring
        import repro.core as core
        import repro.runtime as runtime

        for obj in (repro, core, runtime, repro.ProgramBuilder, repro.Program, repro.CostModel):
            assert obj.__doc__ and obj.__doc__.strip()


def _call(path, **options):
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)(**options)


#: Each setting has one way in: the thread, tile and worker counts are the
#: configuration's ``parallel_num_threads``, ``parallel_tile_elements`` and
#: ``dist_num_workers``, and every artifact goes through the cache
#: directory.  (The former ``Config`` fields are in ``tests/test_utils.py``.)
REMOVED_OPTIONS = (
    ("repro.runtime.parallel.ParallelBackend", {"num_threads": 1}),
    ("repro.runtime.parallel.ParallelBackend", {"tile_elements": 64}),
    ("repro.runtime.native.NativeBackend", {"num_threads": 1}),
    ("repro.runtime.native.NativeBackend", {"tile_elements": 64}),
    ("repro.dist.backend.DistributedBackend", {"num_workers": 2}),
    (
        "repro.codegen.cache.get_compiled_kernel",
        {"source": "void repro_kernel(void) {}", "use_disk": False},
    ),
)


@pytest.mark.parametrize(
    "path, options",
    REMOVED_OPTIONS,
    ids=[f"{path.rpartition('.')[2]}-{list(options)[-1]}" for path, options in REMOVED_OPTIONS],
)
def test_a_removed_option_cannot_be_passed(path, options):
    with pytest.raises(TypeError):
        _call(path, **options)


def test_a_session_has_no_optimize_switch_of_its_own():
    from repro.frontend.session import Session

    session = Session(backend="interpreter")
    with pytest.raises(AttributeError):
        session.optimize_enabled
    # ``optimize=`` is the one switch: an assignment makes a plain
    # attribute and leaves the engine, which a service's tenants share, as
    # it was built.
    session.optimize_enabled = False
    assert session.engine.optimize is True
