"""Show that the accuracy metrics sit far above the reference's own rounding.

Usage, from the repository root:

    python3 perfbench/refcheck.py --seed 1          # compare-6k's inputs, ~1 min
    python3 perfbench/refcheck.py --seed 1 --smoke  # n = 500, seconds

Computes the exact reference twice, by the Lanczos route the benchmark uses
and by dense LAPACK (``scipy.linalg.eigh``), runs ``compare_methods`` once
on the same inputs, and prints how far apart the two routes are next to
each sketch's error.  Exits 1 unless every route difference is below a
tenth of the metric it would disturb.
"""

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from nydmap.runner import ExperimentConfig, compare_methods  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MARGIN = 0.1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    out_dir = os.path.join(HERE, "_work", f"refcheck-s{args.seed}")
    fields = WORKLOADS["compare-6k"].config_fields(args.seed, args.smoke, out_dir)

    A, root = checks.symmetric_operator(checks.input_points(fields), fields["sigma"])
    routes = {}
    for name, dense in (("lanczos", False), ("dense", True)):
        vals, vecs = checks.solve_exact(A, fields["d"], dense=dense)
        routes[name] = (vals, checks.embed(vals, vecs, root, fields["t"]))
    del A
    (ref_vals, ref_emb), (alt_vals, alt_emb) = routes["lanczos"], routes["dense"]
    route_gap = {
        "eig_rel_err": checks.eig_rel_err(ref_vals, alt_vals),
        "emb_rel_err": checks.emb_rel_err(ref_emb, alt_emb),
    }

    shutil.rmtree(out_dir, ignore_errors=True)
    compare_methods(ExperimentConfig(**fields))
    _, _, accuracy, _ = checks.check_outputs(
        WORKLOADS["compare-6k"], fields, out_dir, lambda: (ref_vals, ref_emb)
    )
    shutil.rmtree(out_dir, ignore_errors=True)

    ok = True
    for name, value in sorted(accuracy.items()):
        gap = route_gap[name.split(".")[0]]
        ratio = gap / value
        ok = ok and ratio < MARGIN
        print(f"{name} = {value:.3e}; dense vs Lanczos reference {gap:.3e} ({ratio:.1e} of it)")
    print("reference is far below every metric" if ok else "reference too close to a metric")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
