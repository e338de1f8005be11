"""How sketch size and Krylov blocks buy eigenvalue accuracy.

The randomized projection sketch approximates the dominant eigenspace of
the diffusion operator.  Oversampling widens the sketch; each of the q
Krylov blocks after the start block (``power_iterations``) costs one more
multiply, and the basis keeps every product, so it reaches toward the top
of the spectrum.  At q = 0 the sketch is plain Nystrom on the Gaussian
start block, from one multiply.  Pivoted column sampling is far
cheaper, since it fetches only its pivot columns of the kernel and takes
the degrees from its factor, but less accurate at equal sketch width.
Widening it buys accuracy fast: the last table gives the column sketch's
embedding error on Lorenz data as its width grows past the kernel's
numerical rank (about 560 columns).
"""

import warnings

import numpy as np

from nydmap import (
    LorenzParams,
    RankDeficiencyWarning,
    decompose,
    diffusion_map,
    generate_helix,
    integrate_lorenz,
    relative_embedding_error,
    subsample_rows,
)

if __name__ == "__main__":
    n = 1200
    sigma = 0.5
    d = 20
    X = generate_helix(n, noise_std=0.05, seed=0)
    reference = decompose(X, sigma, "deterministic", d).eigenvalues

    def max_rel_error(model):
        return float((np.abs(model.eigenvalues - reference) / reference).max())

    print(f"max relative error of the top {d} eigenvalues (projection sketch):")
    print("  oversampling ->      2           10          30")
    for q in (0, 1, 2):
        errs = []
        for oversampling in (2, 10, 30):
            model = decompose(
                X, sigma, "nystrom_projection", d,
                oversampling=oversampling, power_iterations=q,
            )
            errs.append(max_rel_error(model))
        print(f"  q = {q}          " + "  ".join(f"{e:10.2e}" for e in errs))

    columns = decompose(X, sigma, "nystrom_columns", d, oversampling=30)
    print(f"\npivoted column sampling at the widest sketch: {max_rel_error(columns):.2e}")
    print("projection needs a handful of extra columns and one or two Krylov")
    print("blocks to hit solver-level accuracy; column sampling trades")
    print("that accuracy for never touching the full operator: it evaluates")
    print(f"only its {d + 30} pivot columns of the kernel, degrees included")

    X = subsample_rows(integrate_lorenz(LorenzParams()), 3000)
    sigma, d = 10.0, 100
    exact = diffusion_map(decompose(X, sigma, "deterministic", d), 1.0)
    print(f"\ncolumn sketch on Lorenz n = {X.n}, sigma = {sigma}, d = {d}, seed 1:")
    print("  width l    embedding error")
    for l in (110, 300, 500, 700):
        with warnings.catch_warnings():
            # Past the numerical rank, pivoting stops early and says so.
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            model = decompose(X, sigma, "nystrom_columns", d, oversampling=l - d, seed=1)
        err = relative_embedding_error(exact, diffusion_map(model, 1.0))
        print(f"  {l:7d}    {err:.2e}")
