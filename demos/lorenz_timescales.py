"""Diffusion time as a timescale knob on the Lorenz attractor.

Each embedding column c has norm lambda_c^(t/2), so raising the diffusion
time t suppresses components with smaller eigenvalues.  On a chaotic
trajectory this progressively strips fine mixing structure and leaves the
slow organization of the two attractor lobes.
"""

import numpy as np

from nydmap import LorenzParams, decompose, diffusion_map, integrate_lorenz, subsample_rows

if __name__ == "__main__":
    params = LorenzParams(t_end=2.0, dt=1e-3)
    trajectory = integrate_lorenz(params)
    X = subsample_rows(trajectory, 1500)
    print(f"integrated {trajectory.n} states, embedded {X.n} of them")

    sigma = 10.0
    model = decompose(X, sigma, "deterministic", 8)

    print("\neigenvalues:")
    print(np.array2string(model.eigenvalues, precision=6))

    print("\ncolumn norms of the embedding (row = diffusion time):")
    header = "  t     " + "  ".join(f"c{c + 1:<6d}" for c in range(8))
    print(header)
    for t in (1.0, 10.0, 100.0):
        emb = diffusion_map(model, t=t)
        norms = np.linalg.norm(emb.coords, axis=0)
        cells = "  ".join(f"{v:7.1e}" for v in norms)
        print(f"  {t:<5g} {cells}")
    print("\nlarger t keeps only the slowest components, as the norms show")
