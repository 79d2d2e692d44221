"""Entry point of one workload subprocess (started by ``bench/run.py``).

Everything runs under the ``__main__`` check: the ``dist`` backend spawns
its workers with the ``spawn`` start method, which re-imports this file in
every worker — top-level work here would run again inside each of them and
break the worker handshake.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

if __name__ == "__main__":
    from bench.harness import child_main

    sys.exit(child_main())
