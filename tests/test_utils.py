"""Tests for configuration, the shared LRU and the error hierarchy."""

import dataclasses

import pytest

from repro.utils import (
    Config,
    ExecutionError,
    ReproError,
    RewriteError,
    ValidationError,
    config_override,
    get_config,
    set_config,
)
from repro.utils.errors import ParseError
from repro.utils.lru import BoundedLRU


class TestConfig:
    def test_defaults(self):
        config = Config()
        assert config.default_backend == "interpreter"
        assert config.check_ir is False
        assert config.parallel_tile_elements == 65536

    def test_global_get_set(self):
        custom = Config(default_backend="parallel")
        set_config(custom)
        assert get_config().default_backend == "parallel"

    def test_set_config_type_checked(self):
        with pytest.raises(TypeError):
            set_config({"default_backend": "parallel"})

    def test_replace_returns_new_object(self):
        config = Config()
        changed = config.replace(check_ir=True)
        assert changed is not config
        assert changed.check_ir is True
        assert config.check_ir is False

    def test_a_config_is_frozen(self):
        config = Config(enabled_passes=["dce"])
        assert config.enabled_passes == ("dce",)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.check_ir = True
        assert hash(config) == hash(Config(enabled_passes=("dce",)))

    def test_config_override_restores_previous(self):
        baseline = get_config()
        with config_override(check_ir=True, parallel_tile_elements=4) as overridden:
            assert get_config() is overridden
            assert get_config().check_ir is True
            assert get_config().parallel_tile_elements == 4
        assert get_config().check_ir is baseline.check_ir

    def test_config_override_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with config_override(check_ir=True):
                raise RuntimeError("boom")
        assert get_config().check_ir is False


#: Former fields whose values are now constructor arguments, defaults or
#: constants (``ExecutionEngine(optimize=)``, ``PowerExpansionPass(limit=)``,
#: ``ArrayService(max_inflight=)``, ``KERNEL_OPT_LEVEL`` ...); native without
#: codegen is the parallel backend, and every artifact goes through the
#: cache directory.
REMOVED_FIELDS = (
    "verify_rewrites",
    "max_constant_merge_window",
    "power_expansion_limit",
    "fusion_max_kernel_size",
    "fixed_point_max_iterations",
    "random_seed",
    "plan_cache_size",
    "service_max_inflight",
    "service_tenant_max_inflight",
    "service_admission_timeout_seconds",
    "service_pool_max_bytes",
    "service_fairness",
    "codegen_opt_level",
    "codegen_enabled",
    "codegen_reductions_enabled",
    "optimize",
    "codegen_disk_cache_enabled",
)


@pytest.mark.parametrize("name", REMOVED_FIELDS)
def test_a_removed_field_cannot_be_set(name):
    with pytest.raises(TypeError):
        Config(**{name: 1})
    with pytest.raises(TypeError):
        with config_override(**{name: 1}):
            pass  # pragma: no cover - the override itself raises
    assert not hasattr(get_config(), name)


class TestBoundedLRU:
    def test_evicts_least_recently_used_first(self):
        lru = BoundedLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refreshes "a": "b" is now the oldest
        lru.put("c", 3)
        assert lru.peek("b") is None
        assert lru.values() == [1, 3]
        assert len(lru) == 2
        assert lru.evictions == 1

    def test_put_replaces_and_refreshes(self):
        lru = BoundedLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)
        lru.put("c", 3)
        assert lru.peek("a") == 10
        assert lru.peek("b") is None

    def test_put_names_what_it_evicted(self):
        # For owners that mirror the cache elsewhere (the dist pool tells
        # its workers which plan tokens to drop).
        lru = BoundedLRU(2)
        assert lru.put("a", 1) == []
        assert lru.put("b", 2) == []
        assert lru.put("a", 10) == []
        assert lru.put("c", 3) == ["b"]

    def test_peek_is_silent(self):
        lru = BoundedLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.peek("a") == 1
        assert lru.peek("missing", "default") == "default"
        assert (lru.hits, lru.misses) == (0, 0)
        lru.put("c", 3)  # "a" was peeked, not refreshed: it is evicted
        assert lru.peek("a") is None

    def test_a_cached_none_is_a_hit(self):
        lru = BoundedLRU(2)
        sentinel = object()
        assert lru.get("form", sentinel) is sentinel
        lru.put("form", None)
        assert lru.get("form", sentinel) is None
        assert (lru.hits, lru.misses) == (1, 1)

    def test_setdefault_keeps_the_first_value(self):
        lru = BoundedLRU(1)
        first, second = object(), object()
        assert lru.setdefault("key", first) is first
        assert lru.setdefault("key", second) is first
        assert lru.setdefault("other", second) is second  # evicts "key"
        assert lru.peek("key") is None
        assert lru.evictions == 1

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValueError):
            BoundedLRU(0)

    def test_clear_keeps_counters_and_stats_are_prefixed(self):
        lru = BoundedLRU(3)
        lru.put("a", 1)
        lru.get("a")
        lru.get("b")
        lru.clear()
        assert lru.stats("demo_") == {
            "demo_hits": 1,
            "demo_misses": 1,
            "demo_evictions": 0,
            "demo_size": 0,
            "demo_capacity": 3,
            "demo_contentions": 0,
        }

    def test_counters_exact_under_thread_hammer(self, thread_hammer):
        lru = BoundedLRU(4)
        threads, lookups = 8, 4000

        def body(offset: int) -> None:
            for step in range(lookups):
                key = (step + offset) % 16
                if lru.get(key) is None:
                    lru.setdefault(key, key + 1)

        thread_hammer(threads, body)
        assert lru.hits + lru.misses == threads * lookups
        assert len(lru) == 4
        assert lru.evictions >= 16 - 4  # 16 keys through 4 slots


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_type", [ValidationError, ExecutionError, RewriteError, ParseError]
    )
    def test_all_errors_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, ReproError)

    def test_errors_are_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise ValidationError("bad program")
