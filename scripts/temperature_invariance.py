#!/usr/bin/env python3
"""Temperature-independence demonstration.

Runs the brute-force thermal trace against the closed-form reduced matrix
over a beta list, then repeats with the deliberately broken bath
normalization to show the comparison is sensitive to the cancellation it
certifies.
"""

import argparse
from pathlib import Path

import numpy as np

from dressedcavity.density import (EntangledStateSpec, ThermalBathSpec,
                                   reduced_density_closed, thermal_trace_oracle)
from dressedcavity.dynamics import amplitudes
from dressedcavity.entanglement import measures
from dressedcavity.model import ModelParams
from dressedcavity.reporting import write_csv
from dressedcavity.spectral import dressed_spectrum


def run(out: Path, betas, t: float, xi: float, phi: float, n_modes_oracle: int,
        n_max: int) -> None:
    params = ModelParams(omega_bar=1.0, g=0.01, radius=1.0, n_modes=n_modes_oracle)
    spectrum = dressed_spectrum(params)
    state = EntangledStateSpec(xi, phi)
    f00 = amplitudes(spectrum, [t])[0, 0]
    closed = reduced_density_closed(state, f00, f00)
    rows = []
    for scheme in ("normalized", "per_level_partition"):
        for beta in betas:
            bath = ThermalBathSpec(beta=beta, n_max=n_max, n_modes_oracle=n_modes_oracle)
            rho = thermal_trace_oracle(state, spectrum, bath, t, weight_scheme=scheme)
            deviation = float(np.max(np.abs(rho.matrix - closed.matrix)))
            rows.append((scheme, beta, deviation, rho.trace))
            print(f"{scheme:>20}  beta={beta:<8g} max|oracle-closed|={deviation:.3e}  "
                  f"trace={rho.trace:.6f}")
    m = measures(closed)
    print(f"measures at t={t}: C={m.concurrence:.6f} EoF={m.eof:.6f} N={m.negativity:.6f} "
          "(independent of every beta above)")
    write_csv(out / "invariance.csv",
              ["scheme", "beta[1/natural-frequency]", "max_deviation[dimensionless]",
               "trace[dimensionless]"],
              rows, metadata={"t": t, "xi": xi, "phi": phi,
                              "n_modes_oracle": n_modes_oracle, "n_max": n_max})
    print(f"wrote {out}/invariance.csv")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("runs/invariance"))
    ap.add_argument("--betas", type=float, nargs="+", default=[0.2, 1.0, 5.0, 50.0])
    ap.add_argument("--t", type=float, default=0.7)
    ap.add_argument("--xi", type=float, default=0.3)
    ap.add_argument("--phi", type=float, default=1.1)
    ap.add_argument("--n-modes-oracle", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=4)
    args = ap.parse_args()
    run(args.out, args.betas, args.t, args.xi, args.phi, args.n_modes_oracle, args.n_max)
