"""The ``bellsim`` command: ``python -m bellsim`` and the console script.

numpy's OpenBLAS starts worker threads when numpy is first imported, one
short of the CPU count, and they spin for about 0.1 s of CPU in every
process. bellsim makes no BLAS call (every station sign comes from the
elementwise ``s0*dx + s1*dy + s2*dz`` of ``experiment.station_readings``,
less the terms of a coordinate that is zero in every direction of a setting
group, and a test scans the sources for BLAS calls), so the command asks for one
BLAS thread before anything imports numpy. A value already in the environment wins. ``import bellsim`` alone
changes no environment variable.
"""

import os
import sys


def main(argv=None) -> int:
    """Run the ``bellsim`` command line with one BLAS thread unless the environment says otherwise."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
