"""Dressed-atom bipartite entanglement in a spherical cavity at finite temperature.

Pipeline, one module per stage; every public name is imported from the
module that defines it:

- `model`: parameters, SI conversion and the arrowhead coupling matrix;
- `spectral`: the dressed spectrum of that matrix;
- `dynamics`: excitation amplitudes and the decay-rate fit;
- `density`: the two-qubit reduced density matrix, in closed form and by
  brute-force thermal trace;
- `entanglement`: concurrence, entanglement of formation and negativity;
- `thermal`: Bose-Einstein weights and the atom's occupation;
- `reporting` and `cli`: CSV and manifest output and the command line.

`errors` holds the exceptions every stage raises.  The package itself
holds only `__version__`.  Unless the environment already sets it,
importing the package sets OPENBLAS_THREAD_TIMEOUT to 4, OpenBLAS's
minimum, before numpy loads, so idle BLAS workers sleep at once instead of
spinning for about 0.1 s of CPU after each threaded product; it changes
neither the thread count nor a byte of output, and does nothing when numpy
was imported first.
"""

import os

# read by OpenBLAS when numpy first loads it; importing any submodule runs this first
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"
