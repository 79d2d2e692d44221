"""Smoke tests that run every example script's ``main()`` end to end.

The examples are part of the public deliverable; these tests keep them
working as the library evolves.  Sizes are kept small by monkey-patching the
example parameters where needed — the point is that the code paths run, not
that they run long.
"""

import ast
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def load_example(name: str):
    """Import an example script as a module."""
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        output = capsys.readouterr().out
        assert "BH_ADD" in output
        assert "Result" in output

    def test_power_expansion(self, capsys):
        module = load_example("power_expansion")
        module.describe_chains(10)
        module.run_strategy(10, 10_000, "power_of_two")
        module.main()
        output = capsys.readouterr().out
        assert "BH_MULTIPLY" in output
        assert "power_of_two" in output

    def test_linear_solve(self, capsys):
        load_example("linear_solve").main()
        output = capsys.readouterr().out
        assert "BH_LU_SOLVE" in output
        assert "expected 0" in output

    def test_heat_equation(self, capsys):
        module = load_example("heat_equation")
        baseline = module.run(32, 3, optimize=False)
        optimized = module.run(32, 3, optimize=True)
        assert abs(baseline["checksum"] - optimized["checksum"]) < 1e-6
        assert optimized["kernels"] <= baseline["kernels"]

    def test_black_scholes(self, capsys):
        module = load_example("black_scholes")
        baseline = module.price(5_000, optimize=False)
        optimized = module.price(5_000, optimize=True)
        assert baseline["mean_price"] == pytest.approx(optimized["mean_price"], rel=1e-9)
        assert optimized["kernels"] < baseline["kernels"]

    def test_image_pipeline(self, capsys):
        module = load_example("image_pipeline")
        baseline = module.run(32, 32, 2, optimize=False)
        optimized = module.run(32, 32, 2, optimize=True)
        assert baseline["foreground"] == pytest.approx(optimized["foreground"], abs=1e-12)


def loaded_example_names(test_class) -> set:
    """The example names ``test_class``'s methods pass to :func:`load_example`."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(test_class)))
    return {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "load_example"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def test_every_example_has_a_smoke_test():
    scripts = {path.stem for path in EXAMPLES_DIR.glob("*.py")}
    assert scripts == loaded_example_names(TestExamplesRun)
