"""Dressed-atom bipartite entanglement in a spherical cavity at finite temperature.

Pipeline: coupled-oscillator model -> dressed spectrum -> excitation
dynamics -> two-qubit reduced density matrix (closed form and brute-force
thermal trace) -> entanglement measures and thermal occupation.

Unless the environment already sets it, importing the package sets
OPENBLAS_THREAD_TIMEOUT to 4, OpenBLAS's minimum, before numpy loads, so
idle BLAS workers sleep at once instead of spinning for about 0.1 s of CPU
after each threaded product; it changes neither the thread count nor a byte
of output, and does nothing when numpy was imported first.
"""

import os

# read by OpenBLAS when numpy first loads it, so it must precede every submodule
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"

from .density import (EntangledStateSpec, ReducedDensityMatrix, ThermalBathSpec,
                      reduced_density_closed, thermal_trace_oracle)
from .dynamics import amplitudes, decay_rate_fit
from .entanglement import (EntanglementMeasures, entanglement_of_formation, family_concurrence,
                           measures, partial_transpose)
from .model import CouplingMatrix, ModelParams, build_coupling_matrix, natural_from_si
from .spectral import DressedSpectrum, diagonalize
from .thermal import OccupationSeries, bose_einstein, occupation_series, occupation_weights

__all__ = [
    "__version__",
    "CouplingMatrix", "DressedSpectrum", "EntangledStateSpec", "EntanglementMeasures",
    "ModelParams", "OccupationSeries", "ReducedDensityMatrix", "ThermalBathSpec",
    "amplitudes", "bose_einstein", "build_coupling_matrix", "decay_rate_fit", "diagonalize",
    "entanglement_of_formation", "family_concurrence", "measures", "natural_from_si",
    "occupation_series", "occupation_weights", "partial_transpose", "reduced_density_closed",
    "thermal_trace_oracle",
]
