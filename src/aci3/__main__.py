"""The one process entry of ``aci3`` and ``python -m aci3``.

A process that runs one command never needs the cyclic garbage collector:
reference counting frees the kernels' garbage, which holds no cycles, and
every route's input limits bound it.  ``cli.main`` leaves the collector
alone, so in-process callers (tests, a tracer) keep it.
"""

import gc
import sys


def run() -> int:
    """Run the command in ``sys.argv`` with the collector off, and freeze the
    heap before returning, so the exit-time collection has nothing to walk."""
    gc.disable()
    try:
        from . import cli
        return cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
