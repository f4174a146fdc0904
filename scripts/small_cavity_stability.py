#!/usr/bin/env python3
"""Small-cavity stability experiment: atom frequency below the first mode.

With omega_bar*R/pi < 1 the excitation has no resonant mode to decay into;
the survival probability oscillates near 1 and the concurrence of the
shared-excitation state stays near its initial value.
"""

import argparse
from pathlib import Path

import numpy as np

from dressedcavity.density import EntangledStateSpec, reduced_density_closed
from dressedcavity.dynamics import amplitudes, survival_series
from dressedcavity.entanglement import family_concurrence, measures
from dressedcavity.model import ModelParams
from dressedcavity.reporting import write_csv
from dressedcavity.spectral import dressed_spectrum


def run(out: Path, g: float, radius: float, n_modes: int, xi: float,
        t_max: float, samples: int) -> None:
    params = ModelParams(omega_bar=1.0, g=g, radius=radius, n_modes=n_modes)
    print(f"model: omega_bar=1 g={g} R={radius} N={n_modes} "
          f"(omega_bar*R/pi = {radius / np.pi:.3f})")
    spectrum = dressed_spectrum(params)
    t = np.linspace(0.0, t_max, samples)
    series = survival_series(spectrum, t)
    min_survival = float(np.min(series.survival))
    c0 = family_concurrence(xi, 1.0)
    print(f"min survival over [0, {t_max:g}] = {min_survival:.5f}")
    print(f"concurrence floor = {family_concurrence(xi, min_survival):.5f} "
          f"({family_concurrence(xi, min_survival) / c0:.2%} of C(0) = {c0:.5f})")

    # sparse checkpoint of the full measure set along the way
    state = EntangledStateSpec(xi, 0.0)
    checkpoints = []
    for tc, f in zip(t[::samples // 20], amplitudes(spectrum, t[::samples // 20], 0)):
        m = measures(reduced_density_closed(state, f, f))
        checkpoints.append((tc, float(abs(f) ** 2), m.concurrence, m.eof, m.negativity))
    write_csv(out / "stability.csv",
              ["t[natural-time]", "survival[probability]", "concurrence[dimensionless]",
               "eof[ebits]", "negativity[dimensionless]"],
              checkpoints,
              metadata={"g": g, "radius": radius, "n_modes": n_modes, "xi": xi,
                        "min_survival": min_survival})
    print(f"wrote {out}/stability.csv")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("runs/small_cavity"))
    ap.add_argument("--g", type=float, default=0.01)
    ap.add_argument("--radius", type=float, default=1.0)
    ap.add_argument("--n-modes", type=int, default=64)
    ap.add_argument("--xi", type=float, default=0.5)
    ap.add_argument("--t-max", type=float, default=1000.0)
    ap.add_argument("--samples", type=int, default=20001)
    args = ap.parse_args()
    run(args.out, args.g, args.radius, args.n_modes, args.xi, args.t_max, args.samples)
