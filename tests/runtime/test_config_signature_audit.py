"""Audit: every plan-affecting Config knob is in the plan-cache signature.

The plan cache replays an optimized program, its tile decomposition, its
memory plan and (for the native backend) its pre-compiled kernels whenever
the program fingerprint *and* the config signature match.  A knob that
changes any of those artifacts but is missing from
``repro.runtime.plan._CONFIG_SIGNATURE_FIELDS`` lets a stale plan replay
under new settings — the class of bug is silent wrong-speed or wrong-shape
execution, not a crash, which is why this audit is structural: adding a
``Config`` field forces an explicit decision here.

Every field must appear in exactly one of two sets:

* the signature (``_CONFIG_SIGNATURE_FIELDS``), or
* the exemption list below, each entry justified by *why* a cached plan is
  equally valid under any value of that knob.
"""

from __future__ import annotations

import dataclasses

from repro.runtime.plan import _CONFIG_SIGNATURE_FIELDS, config_signature
from repro.utils.config import Config, config_override

#: Fields that may change without invalidating a cached plan.  A knob
#: belongs here only when the plan's contents (optimized program, tiling,
#: memory directives, compiled kernels) are provably identical under every
#: value of the knob.
EXEMPT_FIELDS = {
    # Selects which backend the front-end asks for; each backend keeps its
    # own plans (the backend name is part of the plan-cache key already).
    "default_backend",
    # Toggles whether the pipeline runs at all; unoptimized flushes bypass
    # the plan cache entirely rather than reading stale optimized plans.
    "optimize",
    # Cache administration: resizing the plan cache changes *which* plans
    # stay cached, never what a cached plan contains.
    "plan_cache_size",
    # Service-layer admission and pooling knobs: they gate *when* a flush
    # is allowed to run and how freed buffers recycle between tenants,
    # never what the optimizer, tiler, memory planner or codegen produce —
    # a plan compiled under any value replays identically under another.
    "service_max_inflight",
    "service_tenant_max_inflight",
    "service_admission_timeout_seconds",
    "service_pool_max_bytes",
    "service_fairness",
    # The static checking layer is read-only: the IR verifier and the
    # plan-artifact checks inspect programs and plans but never rewrite
    # them, so a plan built with checks off is byte-identical to one built
    # with checks on (and a cached plan is re-checked at execution time
    # anyway when the knob is enabled).
    "check_ir",
}


def _config_field_names() -> set:
    return {field.name for field in dataclasses.fields(Config)}


def test_every_config_field_is_classified():
    """Signature ∪ exemptions covers Config exactly, with no overlap."""
    fields = _config_field_names()
    signature = set(_CONFIG_SIGNATURE_FIELDS)
    unclassified = fields - signature - EXEMPT_FIELDS
    assert not unclassified, (
        f"Config field(s) {sorted(unclassified)} are neither in the "
        "plan-cache signature nor explicitly exempted; decide whether a "
        "cached plan survives a change of each knob and classify it"
    )
    stale = (signature | EXEMPT_FIELDS) - fields
    assert not stale, f"signature/exemptions name removed Config field(s): {sorted(stale)}"
    overlap = signature & EXEMPT_FIELDS
    assert not overlap, f"field(s) both signed and exempted: {sorted(overlap)}"


def test_codegen_knobs_are_in_the_signature():
    """The native backend's knobs must invalidate plans when changed."""
    codegen_fields = {name for name in _config_field_names() if name.startswith("codegen_")}
    assert codegen_fields  # the backend exists; its knobs must too
    assert codegen_fields <= set(_CONFIG_SIGNATURE_FIELDS)


def test_signature_value_changes_with_each_signed_field():
    """Changing any signed field produces a different signature value.

    Guards against a field being listed but read incorrectly (e.g. a typo
    that makes ``config_signature`` hash the same value for both settings).
    """
    baseline = config_signature(Config())
    perturbed = {
        "enabled_passes": ["constant_merge"],
        "max_constant_merge_window": 2,
        "power_expansion_limit": 3,
        "fusion_max_kernel_size": 2,
        "fusion_scheduler": "consecutive",
        "fusion_cost_threshold": 1.0,
        "fixed_point_max_iterations": 1,
        "verify_rewrites": True,
        "random_seed": 1234,
        "parallel_num_threads": 3,
        "parallel_tile_elements": 128,
        "parallel_serial_threshold": 2,
        "memory_plan_enabled": False,
        "memory_pool_max_bytes": 0,
        "memory_zero_policy": "always",
        "codegen_enabled": False,
        "codegen_cache_dir": "/tmp/elsewhere",
        "codegen_opt_level": 0,
        "codegen_disk_cache_enabled": False,
        "codegen_threads": 3,
        "codegen_reductions_enabled": False,
        "dist_num_workers": 3,
        "dist_shm_max_bytes": 1 << 20,
    }
    assert set(perturbed) == set(_CONFIG_SIGNATURE_FIELDS)
    for name, value in perturbed.items():
        assert getattr(Config(), name) != value, (
            f"perturbation for {name!r} equals the default; pick another value"
        )
        with config_override(**{name: value}):
            assert config_signature() != baseline, (
                f"changing {name!r} did not change the config signature"
            )
