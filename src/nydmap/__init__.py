"""Diffusion maps with Nystrom-accelerated eigendecomposition.

The pipeline: build a Gaussian kernel on the data, normalize it into the
symmetric diffusion operator, take its top eigenpairs either exactly or
through a Nystrom sketch (kernel columns picked by randomly pivoted
Cholesky, with degrees taken from the factor, or a projection onto a
block Krylov basis started from Gaussian noise), and
embed the points by Markov eigenvector columns weighted with
sqrt(lambda^t).

Typical use::

    from nydmap import decompose, diffusion_map, generate_helix

    X = generate_helix(2000, noise_std=0.05, seed=0)
    model = decompose(X, sigma=0.5, method="nystrom_projection", d=50)
    emb = diffusion_map(model, t=1.0)

The ``nydmap`` console script exposes the benchmark harness; see
``nydmap --help``.
"""

__version__ = "0.1.0"

from .datasets import (
    DataMatrix,
    LorenzParams,
    generate_helix,
    generate_swiss_roll,
    integrate_lorenz,
    load_csv,
    lorenz_derivative,
    save_csv,
    subsample_rows,
)
from .embedding import (
    ClusterLabels,
    DiffusionEmbedding,
    diffusion_distance,
    diffusion_map,
    eigenvalue_power,
    kmeans_cluster,
    relative_embedding_error,
)
from .errors import (
    CapacityError,
    ContractError,
    DataFormatError,
    DegeneracyError,
    DimensionError,
    IndexingError,
    IntegrationError,
    NumericError,
    NydmapError,
    ParameterError,
    RankDeficiencyWarning,
    StageFailure,
)
from .kernel import (
    DegreeVector,
    degree_vector,
    gaussian_kernel_columns,
    gaussian_kernel_matrix,
)
from .nystrom import (
    gaussian_sketch_basis,
    nystrom_eigs,
    project,
    psd_inverse_sqrt,
    sample_columns,
)
from .runner import (
    ExperimentConfig,
    ExperimentReport,
    compare_methods,
    decompose,
    load_config_file,
    load_report,
    run_experiment,
)
from .spectral import (
    DiffusionOperator,
    SpectralModel,
    deterministic_model,
    eigendecompose,
    fix_signs,
    markov_matrix,
    recover_markov_eigvecs,
    symmetric_matrix,
)

__all__ = [
    "CapacityError",
    "ClusterLabels",
    "ContractError",
    "DataFormatError",
    "DataMatrix",
    "DegeneracyError",
    "DegreeVector",
    "DiffusionEmbedding",
    "DiffusionOperator",
    "DimensionError",
    "ExperimentConfig",
    "ExperimentReport",
    "IndexingError",
    "IntegrationError",
    "LorenzParams",
    "NumericError",
    "NydmapError",
    "ParameterError",
    "RankDeficiencyWarning",
    "SpectralModel",
    "StageFailure",
    "compare_methods",
    "decompose",
    "degree_vector",
    "deterministic_model",
    "diffusion_distance",
    "diffusion_map",
    "eigendecompose",
    "eigenvalue_power",
    "fix_signs",
    "gaussian_kernel_columns",
    "gaussian_kernel_matrix",
    "gaussian_sketch_basis",
    "generate_helix",
    "generate_swiss_roll",
    "integrate_lorenz",
    "kmeans_cluster",
    "load_config_file",
    "load_csv",
    "load_report",
    "lorenz_derivative",
    "markov_matrix",
    "nystrom_eigs",
    "project",
    "psd_inverse_sqrt",
    "recover_markov_eigvecs",
    "relative_embedding_error",
    "run_experiment",
    "sample_columns",
    "save_csv",
    "subsample_rows",
    "symmetric_matrix",
]
