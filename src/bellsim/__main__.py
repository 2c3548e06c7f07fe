"""The ``bellsim`` command: ``python -m bellsim`` and the console script.

numpy's OpenBLAS starts worker threads when numpy is first imported, one
short of the CPU count, and they spin for about 0.1 s of CPU in every
process. bellsim makes no BLAS call (every station sign comes from the
elementwise ``s0*dx + s1*dy + s2*dz`` of ``experiment.station_readings``,
less the terms of a coordinate that is zero in every direction of a setting
group, and a test scans the sources for BLAS calls), so the command asks for one
BLAS thread before anything imports numpy. A value already in the environment wins. ``import bellsim`` alone
changes no environment variable.

The imports leave some 33 000 objects (numpy's, most of them) that live as
long as the process. The cyclic garbage collector would walk them again in
every older-generation collection: while the command runs, in each forked
worker of ``parallel.map_ranges`` (where touching them copies their pages)
and at interpreter exit. So the command imports with the collector off,
then freezes what the imports left into the permanent generation, as the
``gc.freeze`` documentation advises for a process that forks without exec,
and turns the collector back on; objects the command makes are collected
as before. This is done here and not in ``cli.main``: tests and library
callers run ``cli.main`` in a process of their own, whose heap a freeze
would hide from its collector for good.
"""

import gc
import os
import sys


def main(argv=None) -> int:
    """Run the ``bellsim`` command line with one BLAS thread unless the environment says
    otherwise, and with the heap its imports leave frozen out of the garbage collector."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    gc.disable()
    try:
        from .cli import main as cli_main
    finally:
        gc.freeze()
        gc.enable()

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
