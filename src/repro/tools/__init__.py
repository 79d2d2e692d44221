"""Command-line tools.

* :mod:`repro.tools.cli` — the ``repro-opt`` byte-code optimizer CLI: parse a
  textual byte-code listing, run the transformation pipeline, and print the
  optimized listing together with a report and cost-model comparison.

``main`` is exported on demand, so ``python -m repro.tools.cli`` loads the
module once, as ``__main__``.
"""

from repro._exports import export_on_demand

export_on_demand(globals(), {"repro.tools.cli": ("main",)})
