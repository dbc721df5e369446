"""gearlab: isospectral gear graphs, random-walk conjugation, zeta equivalence.

Importing the package, before any gearlab module loads numpy, sets
``OPENBLAS_THREAD_TIMEOUT`` unless the caller has set it, so OpenBLAS's
idle workers sleep instead of spinning on a second core after the last
BLAS call, in the ``gearlab`` command and in-process callers alike.  A
process that loaded numpy first is left as it is.
"""

import os
import sys

__version__ = "0.1.0"

# OpenBLAS workers spin 2^28 cycles (~0.1 s) for work after each call; 2^20
# lets them sleep once the caller is idle, with the same threads.
OPENBLAS_THREAD_TIMEOUT = "20"

if "numpy" not in sys.modules:      # OpenBLAS reads it when numpy loads
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", OPENBLAS_THREAD_TIMEOUT)
