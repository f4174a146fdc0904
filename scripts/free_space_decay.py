#!/usr/bin/env python3
"""Free-space dissipation experiment: weak coupling in a huge cavity.

Evolves the survival probability on the acceptance parameters, fits the
decay rate over the exponential window, and compares against the
golden-rule value pi*g.  Emits the survival series and the thermal
occupation approach to equilibrium as CSV.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from dressedcavity.dynamics import decay_rate_fit, survival_series, wigner_weisskopf_rate
from dressedcavity.model import ModelParams
from dressedcavity.reporting import write_csv
from dressedcavity.spectral import dressed_spectrum
from dressedcavity.thermal import bose_einstein, occupation_series, occupation_weights


def run(out: Path, g: float, radius: float, n_modes: int, beta: float) -> None:
    params = ModelParams(omega_bar=1.0, g=g, radius=radius, n_modes=n_modes)
    print(f"model: omega_bar=1 g={g} R={radius:.4g} N={n_modes} "
          f"(mode span {n_modes * params.delta_omega:.3g})")
    spectrum = dressed_spectrum(params)

    t = np.linspace(0.0, 100.0, 2001)
    series = survival_series(spectrum, t)
    fit = decay_rate_fit(series, (5.0, 80.0))
    oracle = wigner_weisskopf_rate(g)
    print(f"fitted Gamma = {fit.rate:.6f}  (golden rule pi*g = {oracle:.6f}, "
          f"rel dev {abs(fit.rate - oracle) / oracle:.2%}, R^2 = {fit.r_squared:.7f})")
    write_csv(out / "survival.csv",
              ["t[natural-time]", "survival[probability]", "phase[rad]"],
              zip(series.t, series.survival, series.phase),
              metadata={"g": g, "radius": radius, "n_modes": n_modes,
                        "gamma_fit": fit.rate, "gamma_golden_rule": oracle})

    t_occ = np.linspace(0.0, 300.0, 601)
    occ = occupation_series(spectrum, occupation_weights(params, beta, 1.0), t_occ)
    target = bose_einstein(1.0, beta)
    long_time = float(np.mean(occ[t_occ >= 150.0]))
    print(f"occupation at beta={beta}: long-time mean {long_time:.5f} "
          f"vs Bose-Einstein {target:.5f}")
    write_csv(out / "occupation.csv",
              ["t[natural-time]", "occupation[quanta]"],
              zip(t_occ, occ),
              metadata={"beta": beta, "n0_init": 1.0, "equilibrium": target})
    print(f"wrote {out}/survival.csv and {out}/occupation.csv")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("runs/free_space"))
    ap.add_argument("--g", type=float, default=0.01)
    ap.add_argument("--radius", type=float, default=500.0 * math.pi)
    ap.add_argument("--n-modes", type=int, default=1000)
    ap.add_argument("--beta", type=float, default=1.0)
    args = ap.parse_args()
    run(args.out, args.g, args.radius, args.n_modes, args.beta)
