"""Tile graphs of expanding circle maps: level-increasing random walks,
exact Green and Martin kernels, harmonic measures and their dimension."""

__version__ = "0.1.0"

import os

# numpy's OpenBLAS starts a thread per core when numpy is imported, a cost
# every command pays at start-up, while the only BLAS call here is the small
# polyfit of dimension_report.  The variable must be set before the first
# numpy import; a value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
