"""Dressed-atom bipartite entanglement in a spherical cavity at finite temperature.

Pipeline: coupled-oscillator model -> dressed spectrum -> excitation
dynamics -> two-qubit reduced density matrix (closed form and brute-force
thermal trace) -> entanglement measures and thermal occupation.
"""

__version__ = "0.1.0"

from .density import (EntangledStateSpec, ReducedDensityMatrix, ThermalBathSpec,
                      reduced_density_closed, thermal_trace_oracle)
from .dynamics import DecayFit, SurvivalSeries, amplitudes, decay_rate_fit, survival_series
from .entanglement import (EntanglementMeasures, concurrence, entanglement_of_formation,
                           family_concurrence, measures, negativity)
from .model import (CouplingMatrix, ModeLadder, ModelParams, build_coupling_matrix,
                    build_mode_ladder, natural_from_si, si_from_natural)
from .spectral import DressedSpectrum, diagonalize, dressed_spectrum
from .thermal import OccupationSeries, bose_einstein, cavity_occupation_summary, occupation_series

__all__ = [
    "__version__",
    "CouplingMatrix", "DecayFit", "DressedSpectrum",
    "EntangledStateSpec", "EntanglementMeasures", "ModeLadder", "ModelParams",
    "OccupationSeries", "ReducedDensityMatrix", "SurvivalSeries", "ThermalBathSpec",
    "amplitudes", "bose_einstein", "build_coupling_matrix", "build_mode_ladder",
    "cavity_occupation_summary", "concurrence", "decay_rate_fit", "diagonalize",
    "dressed_spectrum", "entanglement_of_formation", "family_concurrence", "measures",
    "natural_from_si", "negativity", "occupation_series",
    "reduced_density_closed", "si_from_natural", "survival_series",
    "thermal_trace_oracle",
]
