"""Dressed-atom bipartite entanglement in a spherical cavity at finite temperature.

Pipeline: coupled-oscillator model -> dressed spectrum -> excitation
dynamics -> two-qubit reduced density matrix (closed form and brute-force
thermal trace) -> entanglement measures and thermal occupation.
"""

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
