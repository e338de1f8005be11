"""The benchmark's workloads: which pipeline each one calls, and at what size.

Every workload runs the helix generator at sigma 0.5 and noise 0.05 with
oversampling 10 and q = 2 power iterations.  The seed given to the
benchmark becomes ``ExperimentConfig.seed``, which drives the dataset
noise, the column set J, the test matrix Omega and the k-means start.
Why each workload exists is written down in NOTES.md.

This module is imported by the timed child process before the pipeline
call, so it imports nothing heavier than the standard library.
"""

from dataclasses import dataclass

COMMON = {
    "dataset": "helix",
    "sigma": 0.5,
    "noise_std": 0.05,
    "t": 1.0,
    "oversampling": 10,
    "power_iterations": 2,
}

# Smoke mode runs every code path at a size that finishes in seconds.
SMOKE_N = 500
SMOKE_D = 20


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "run" -> run_experiment, "compare" -> compare_methods
    n: int
    d: int
    method: str = "deterministic"
    cluster_k: int = 0
    # Methods whose output is scored against the exact reference.  Empty
    # where an exact top-d solve would cost more than the whole run.
    scored: tuple = ()

    def size(self, smoke):
        return (SMOKE_N, SMOKE_D) if smoke else (self.n, self.d)

    def config_fields(self, seed, smoke, output_dir):
        n, d = self.size(smoke)
        return dict(
            COMMON,
            n=n,
            d=d,
            method=self.method,
            cluster_k=self.cluster_k,
            seed=int(seed),
            output_dir=output_dir,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rp-stream-6k",
            "run",
            6000,
            100,
            method="nystrom_projection",
            scored=("rp",),
        ),
        Workload(
            "cols-cluster-15k",
            "run",
            15000,
            300,
            method="nystrom_columns",
            cluster_k=8,
        ),
        Workload("compare-6k", "compare", 6000, 100, scored=("rp", "cols")),
    )
}
