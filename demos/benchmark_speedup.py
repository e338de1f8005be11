"""Benchmark the deterministic solver against both Nystrom strategies.

Runs the same comparison the ``nydmap compare`` subcommand performs:
one deterministic reference decomposition, then each Nystrom strategy on
the same points, each run exactly as ``nydmap run`` runs it (the
projection multiplies by the matrix-free operator).  Equivalent CLI:

    nydmap compare --dataset helix --n 3000 --rank 60 --out results/benchmark_demo
"""

from nydmap import ExperimentConfig, compare_methods

if __name__ == "__main__":
    config = ExperimentConfig(
        dataset="helix",
        n=3000,
        sigma=0.5,
        d=60,
        oversampling=10,
        power_iterations=2,
        seed=0,
        output_dir="results/benchmark_demo",
    )
    report = compare_methods(config)

    det_time = report.wall_time_seconds["decomposition"]
    print(f"deterministic decomposition: {det_time:.3f}s, rank {report.effective_rank}")
    print()
    print(f"{'strategy':<22}{'decomp (s)':>12}{'speedup':>10}{'rel. error':>13}{'rank':>6}")
    for name, block in report.comparison.items():
        print(
            f"{name:<22}"
            f"{block['decomposition_seconds']:>12.3f}"
            f"{block['speedup_decomposition']:>10.2f}"
            f"{block['relative_error']:>13.2e}"
            f"{block['effective_rank']:>6d}"
        )
    print(f"\nfull report written to {config.output_dir}/report.json")
