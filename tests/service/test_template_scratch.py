"""Block scratch of a template launch belongs to the call, not the template.

Tenants of one service share the backend's template cache, so two threads
launch the *same* ``KernelTemplate`` object at once — each over its own
data.  Were a kernel-local slot's scratch lane kept on the template, one
tenant's intermediate values would surface in the other's result.
"""

import numpy as np

import repro.frontend as bh
from repro.runtime import kernel as kernel_module
from repro.service import ArrayService
from repro.utils.config import config_override

LENGTH, FLUSHES, TENANTS = 4096, 20, 2


def _request(values, session):
    """``exp(log(x) * 1.7) + x``: two temporaries no one else observes."""
    x = bh.array(values, session=session)
    return (bh.exp(bh.log(x) * 1.7) + x).to_numpy()


def test_two_tenants_launching_one_cached_template_stay_bitwise(
    thread_hammer, monkeypatch
):
    # 64-element blocks: every launch reuses its lanes dozens of times, and
    # the hammer's short switch interval interleaves the tenants mid-launch.
    monkeypatch.setattr(kernel_module, "TEMPLATE_BLOCK_ELEMENTS", 64)
    rng = np.random.default_rng(17)
    inputs = [rng.random(LENGTH) + 0.5 + index for index in range(TENANTS)]
    reference = bh.Session(backend="interpreter", optimize=False)
    expected = [_request(values, reference) for values in inputs]
    outputs = [[] for _ in range(TENANTS)]
    with config_override(parallel_tile_elements=1024, parallel_serial_threshold=4):
        with ArrayService(backend="parallel") as service:
            sessions = [service.open_session() for _ in range(TENANTS)]

            def tenant(index: int) -> None:
                for _ in range(FLUSHES):
                    outputs[index].append(_request(inputs[index], sessions[index]))

            thread_hammer(TENANTS, tenant)
            total = service.total_stats()
            templates = service.engine.cache_stats()["tile_template_size"]
    # One structure, one cached template, launched by both tenants with its
    # temporaries in block scratch.
    assert templates == 1
    assert total.template_slots_elided >= 2 * TENANTS * FLUSHES
    for index in range(TENANTS):
        for output in outputs[index]:
            assert output.tobytes() == expected[index].tobytes()
