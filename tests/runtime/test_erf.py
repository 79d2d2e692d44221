"""``BH_ERF`` has one definition: the host libm's ``erf``, in double.

The compiled vector helper (``repro_vec_erf`` of the kernel runtime
artifact) and the ``math.erf`` loop a host without a compiler runs are the
same function, so they must agree bit for bit on every operand shape and
dtype; scipy is not involved, and is never imported by a flush
(``tests/test_imports.py``).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.bytecode.base import BaseArray
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.bytecode.view import View
from repro.codegen import clear_memory_cache, find_c_compiler
from repro.runtime import interpreter as interpreter_module
from repro.runtime.engine import ExecutionEngine
from repro.runtime.interpreter import _erf
from repro.runtime.native import FIRST_LAUNCH
from repro.utils.config import config_override, get_config
from repro.utils.errors import ExecutionError
from tests.tiers import on_tier

requires_helper = pytest.mark.skipif(
    find_c_compiler() is None or interpreter_module.erf_helper(get_config())[1] is not None,
    reason="no compiled erf helper on this host (no compiler, or a serial-only toolchain)",
)

NO_HELPER = (None, "erf: no compiled helper (test)")


def _compiled():
    """The vector erf the live configuration's artifact directory holds."""
    return interpreter_module.erf_helper(get_config())[0]

SPECIALS = np.array(
    [
        np.nan,
        -np.nan,
        np.inf,
        -np.inf,
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1e-310,
        2.2250738585072014e-308,
        6.5,
        -6.5,
        27.3,
        -1e300,
        # Literals gcc folds to other bits than glibc computes.
        float.fromhex("-0x1.2e06a5c970ffcp+0"),
        float.fromhex("-0x1.87fea7da962f8p-1"),
    ]
)


def _bits(array) -> tuple:
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


def _both_paths(values, out_dtype=np.float64, out=None):
    """``_erf(values)`` through the compiled helper and through the fallback."""
    results = []
    for helper in (_compiled(), None):
        target = (
            np.full(np.shape(values), 7, dtype=out_dtype) if out is None else out.copy()
        )
        _erf(values, target, helper)
        results.append(target)
    return results


@requires_helper
class TestCompiledHelper:
    def test_is_math_erf_bit_for_bit(self):
        rng = np.random.default_rng(20260219)
        values = np.concatenate(
            [rng.uniform(-6.5, 6.5, 9000), rng.standard_normal(1000) * 1e-3, SPECIALS]
        )
        out = np.empty_like(values)
        _erf(values, out, _compiled())
        expected = np.array([math.erf(value) for value in values])
        assert _bits(out) == _bits(expected)

    def test_is_within_an_ulp_or_so_of_scipy(self):
        scipy_erf = pytest.importorskip("scipy.special").erf
        values = np.random.default_rng(3).uniform(-6.5, 6.5, 10_000)
        out = np.empty_like(values)
        _erf(values, out, _compiled())
        np.testing.assert_allclose(out, scipy_erf(values), rtol=1e-14, atol=0)

    def test_contiguous_float64_is_computed_in_place(self, monkeypatch):
        # The destination is the only memory the call may touch: no
        # full-size temporary, no copy pass.
        copies = []
        real_array = np.array
        helper = _compiled()
        monkeypatch.setattr(np, "array", lambda *a, **k: copies.append(a) or real_array(*a, **k))
        values = np.linspace(-3, 3, 101)
        out = np.empty_like(values)
        _erf(values, out, helper)  # disjoint
        _erf(out, out, helper)  # the same elements
        assert not copies
        expected = [math.erf(math.erf(value)) for value in values]
        assert _bits(out) == _bits(np.array(expected))

    def test_a_shifted_window_of_the_destination_is_not_read_after_it_is_written(self):
        buffer = np.linspace(-2, 2, 33)
        expected = np.array([math.erf(value) for value in buffer[:-1]])
        _erf(buffer[:-1], buffer[1:], _compiled())
        assert _bits(buffer[1:]) == _bits(expected)


@requires_helper
class TestHelperAndFallbackAgree:
    """Every operand kind, on both paths, bitwise equal to each other."""

    @staticmethod
    def _check(values, out_dtype=np.float64, out=None):
        compiled, fallback = _both_paths(values, out_dtype, out)
        assert _bits(compiled) == _bits(fallback)
        return compiled

    def test_special_values(self):
        out = self._check(SPECIALS)
        assert np.isnan(out[:2]).all() and out[2] == 1.0 and out[3] == -1.0
        assert np.signbit(out[5]) and out[5] == 0.0

    def test_zero_size(self):
        assert self._check(np.empty(0)).shape == (0,)
        assert self._check(np.empty((3, 0))).shape == (3, 0)

    def test_zero_dimensional(self):
        out = self._check(np.array(0.75))
        assert out.shape == () and float(out) == math.erf(0.75)

    def test_non_contiguous(self):
        grid = np.linspace(-3, 3, 120).reshape(10, 12)
        self._check(grid[1:-1, 1:-1])
        self._check(grid[:, ::3])
        self._check(grid.T)

    def test_negative_strides(self):
        grid = np.linspace(-3, 3, 120).reshape(10, 12)
        self._check(grid[::-1, ::-2])

    def test_strided_destination(self):
        values = np.linspace(-3, 3, 40).reshape(5, 8)
        out = np.zeros((7, 20))[1:-1, 2:18:2]
        compiled, fallback = _both_paths(values, out=out)
        assert _bits(compiled) == _bits(fallback)
        assert _bits(compiled) == _bits(np.vectorize(math.erf)(values))

    def test_broadcast_constant(self):
        out = self._check(np.float64(0.5), out=np.empty((4, 3)))
        assert (out == math.erf(0.5)).all()

    def test_float32_is_computed_in_double_and_rounded_once(self):
        values = np.linspace(-3, 3, 97, dtype=np.float32)
        out = self._check(values, out_dtype=np.float32)
        expected = np.array([math.erf(float(value)) for value in values]).astype(np.float32)
        assert _bits(out) == _bits(expected)

    def test_integers_and_bools(self):
        self._check(np.arange(-4, 5, dtype=np.int64))
        self._check(np.arange(-4, 5, dtype=np.int32))
        out = self._check(np.array([True, False, True]))
        assert out[0] == math.erf(1.0) and out[1] == 0.0

    def test_a_destination_of_another_dtype_takes_the_unsafe_cast(self):
        values = np.linspace(-3, 3, 31) * 10
        self._check(values, out_dtype=np.int64)
        self._check(values, out_dtype=np.bool_)


def _erf_of_a_zero_size_view():
    base = BaseArray(8, name="x")
    out = BaseArray(8, name="y")
    builder = ProgramBuilder()
    builder.emit_unary(
        OpCode.BH_ERF, View(out, 0, (0,), (1,)), View(base, 0, (0,), (1,))
    )
    return builder.build(validate=False)


@pytest.mark.parametrize("helper", [None, NO_HELPER], ids=["compiled", "fallback"])
def test_erf_over_a_zero_size_view_executes(helper, monkeypatch):
    # np.vectorize without otypes raised on size 0: an ExecutionError on a
    # host without scipy.
    if helper is not None:
        monkeypatch.setattr(interpreter_module, "erf_helper", lambda config: helper)
    try:
        ExecutionEngine(backend="interpreter", optimize=False).execute(
            _erf_of_a_zero_size_view()
        )
    except ExecutionError as exc:  # pragma: no cover - the regression
        pytest.fail(f"BH_ERF over a zero-size view raised: {exc}")


class TestTheFallbackIsCounted:
    """No artifact: same bits, slower, and every tier's flush says so."""

    REASON = "erf: no compiled helper (test)"

    @staticmethod
    def _program(length=64):
        builder = ProgramBuilder()
        x, t, out = (builder.new_vector(length) for _ in range(3))
        builder.arange(x)
        builder.multiply(t, x, 0.05)
        builder.emit_unary(OpCode.BH_ERF, out, t)
        builder.sync(out)
        return builder.build(), out

    @pytest.mark.parametrize("tier", ["interpreter", "parallel", "parallel4", "native"])
    @pytest.mark.parametrize("tiled", [False, True], ids=["serial", "tiled"])
    def test_per_flush_and_cumulatively(self, tier, tiled, monkeypatch, tmp_path):
        program, out = self._program()
        expected = ExecutionEngine(backend="interpreter", optimize=False).execute(program)
        monkeypatch.setattr(interpreter_module, "erf_helper", lambda config: (None, self.REASON))
        # On native the kernel must leave the compiled path for the
        # template's erf to run at all: no compiler, and no artifact to load.
        monkeypatch.setattr("repro.codegen.cache.find_c_compiler", lambda: None)
        clear_memory_cache()
        tiles = dict(parallel_tile_elements=16, parallel_serial_threshold=4) if tiled else {}
        with config_override(codegen_cache_dir=str(tmp_path), **tiles), on_tier(tier) as backend:
            engine = ExecutionEngine(backend=backend, optimize=True)
            first = engine.execute(program)
            second = engine.execute(program)
        assert _bits(first.value(out)) == _bits(expected.value(out))
        for result in (first, second):
            assert result.stats.native_fallback_reasons.get(self.REASON) == 1
        if backend in ("parallel", "native"):
            assert engine.backend.fallback_reasons()[self.REASON] == 2
        if tiled and backend != "interpreter":
            assert first.stats.tiles_executed > 0
        if tiled and backend == "native":
            # The first launch of the form runs its template; the second
            # would compile it, and finds no compiler.
            for result in (first, second):
                assert result.stats.native_kernel_launches == 0
                assert result.stats.native_fallbacks == 1
            assert FIRST_LAUNCH in first.stats.native_fallback_reasons
            assert any("compiler" in reason for reason in second.stats.native_fallback_reasons)

    @requires_helper
    def test_a_compiled_kernel_needs_no_helper(self, monkeypatch, tmp_path):
        program, out = self._program()
        monkeypatch.setattr(interpreter_module, "erf_helper", lambda config: (None, self.REASON))
        with config_override(
            codegen_cache_dir=str(tmp_path), parallel_tile_elements=16, parallel_serial_threshold=4
        ):
            engine = ExecutionEngine(backend="native", optimize=True)
            engine.execute(program)  # the form's first launch: its template
            result = engine.execute(program)
        assert result.stats.native_kernel_launches > 0
        assert result.stats.native_fallback_reasons == {}

    def test_the_reason_names_the_codegen_error(self, monkeypatch, tmp_path):
        monkeypatch.setattr("repro.codegen.cache.find_c_compiler", lambda: None)
        clear_memory_cache()  # the loaded runtime would serve any directory
        program, _ = self._program()
        with config_override(codegen_cache_dir=str(tmp_path)):
            stats = ExecutionEngine(backend="interpreter", optimize=False).execute(program).stats
        assert stats.native_fallback_reasons == {
            "erf: no compiled helper (no C compiler (cc/gcc/clang) found on PATH)": 1
        }


# --------------------------------------------------------------------------- #
# Fresh processes: who may spawn a compiler
# --------------------------------------------------------------------------- #

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")

_SCRIPT = """
import hashlib, json, os, sys
sys.path.insert(0, {src!r})

def main():
    from repro.frontend.session import Session
    from repro.utils.config import config_override, get_config
    from repro.workloads import black_scholes

    sizes, tiers = {sizes!r}, {tiers!r}
    report = {{"pid": os.getpid(), "digests": {{}}, "reasons": {{}}}}
    with config_override(codegen_cache_dir={cache_dir!r}):
        for size in sizes:
            for backend, workers in tiers:
                with config_override(dist_num_workers=workers or 2):
                    optimize = backend != "oracle"
                    session = Session(
                        backend="interpreter" if backend == "oracle" else backend, optimize=optimize
                    )
                    prices = black_scholes(size, session=session).to_numpy()
                    key = f"{{backend}}{{workers or ''}}@{{size}}"
                    report["digests"][key] = hashlib.blake2b(prices.tobytes()).hexdigest()
                    report["reasons"][key] = session.stats_history[-1].native_fallback_reasons
    print(json.dumps(report))

if __name__ == "__main__":
    main()
"""


def _run_script(tmp_path, cache_dir, sizes, tiers, **env):
    # A file with a __main__ guard: dist workers are spawned.
    script = tmp_path / "flush_black_scholes.py"
    script.write_text(
        _SCRIPT.format(src=_SRC, cache_dir=str(cache_dir), sizes=sizes, tiers=tiers)
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, **env),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(find_c_compiler() is None, reason="no C compiler on this host")
def test_black_scholes_is_the_same_bits_with_and_without_the_helper(tmp_path):
    """native, dist at 1, 2 and 4 workers and the oracle, at three sizes:
    one digest per size, with the compiled helper and — under a compiler
    that only fails — with the ``math.erf`` loop, which every tier reports;
    and no dist worker ever runs a compiler."""
    sizes = (64, 20_000, 200_000)
    tiers = (("oracle", 0), ("native", 0), ("dist", 1), ("dist", 2), ("dist", 4))
    with_helper = _run_script(tmp_path, tmp_path / "warm", sizes, tiers)
    log = tmp_path / "cc.log"
    shim = tmp_path / "failing-cc"
    shim.write_text(f'#!/bin/sh\necho "$PPID $@" >> {log}\nexit 1\n')
    shim.chmod(0o755)
    without = _run_script(tmp_path, tmp_path / "empty", sizes, tiers, REPRO_CC=str(shim))
    for size in sizes:
        digests = {
            report["digests"][key]
            for report in (with_helper, without)
            for key in report["digests"]
            if key.endswith(f"@{size}")
        }
        assert len(digests) == 1, (size, with_helper["digests"], without["digests"])
    for key, reasons in without["reasons"].items():
        assert any(reason.startswith("erf: no compiled helper (") for reason in reasons), (
            key,
            reasons,
        )
    if interpreter_module.erf_helper(get_config())[1] is None:  # not a serial-only toolchain
        for key, reasons in with_helper["reasons"].items():
            assert not any(reason.startswith("erf:") for reason in reasons), (key, reasons)
    # Every compiler run was the master's: a worker loads or falls back.
    spawners = {line.split()[0] for line in log.read_text().splitlines()}
    assert spawners == {str(without["pid"])}
