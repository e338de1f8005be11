"""Output checks, digests and the exact reference for the accuracy metrics.

Nothing here runs inside a timed call.  ``check_outputs`` reads what one
pipeline call wrote and returns the problems it found (an empty list when
the outputs are sound), a digest of the eigenvalues and embeddings, and
the accuracy metrics of each scored method.

The reference is the exact top-d spectrum and embedding of the same
points, computed with this file's own kernel and scipy's Lanczos solver
(not nydmap's code), and cached under the hash of the generated points.
``refcheck.py`` recomputes it by a dense LAPACK route to show the metrics
sit far above the reference's own rounding.
"""

import hashlib
import json
import os

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import eigsh

from nydmap.datasets import generate_helix

REPORT_KEYS = ("config", "wall_time_seconds", "eigenvalues", "effective_rank", "warnings")
EIG_CEILING = 1.0 + 1e-10
# compare's deterministic spectrum against the reference, both exact solves.
EXACT_EIG_TOL = 1e-9
EXACT_EMB_TOL = 1e-6
# Sanity ceilings far above the errors these sketches make at the seed
# commit, in smoke mode too (see NOTES.md); an output above one is wrong.
# An all-zero embedding scores emb_rel_err = 1.
ACCURACY_CEILING = {
    "rp": {"eig_rel_err": 1e-2, "emb_rel_err": 1e-3},
    "cols": {"eig_rel_err": 10.0, "emb_rel_err": 0.9},
}
METHOD_FILE = {"rp": "embedding_nystrom_projection.csv", "cols": "embedding_nystrom_columns.csv"}
METHOD_KEY = {"rp": "nystrom_projection", "cols": "nystrom_columns"}


def input_points(fields):
    """The points the pipeline generates for these config fields."""
    return generate_helix(fields["n"], fields["noise_std"], fields["seed"]).values


def symmetric_operator(points, sigma):
    """A = D^-1/2 K D^-1/2 for the Gaussian kernel, built densely in numpy."""
    n = points.shape[0]
    A = np.zeros((n, n))
    buf = np.empty((n, n))
    for k in range(points.shape[1]):
        np.subtract.outer(points[:, k], points[:, k], out=buf)
        np.square(buf, out=buf)
        A += buf
    del buf
    A /= -sigma
    np.exp(A, out=A)
    root = np.sqrt(A.sum(axis=1))
    for i0 in range(0, n, 1024):
        # Dividing by the product keeps A exactly symmetric.
        A[i0 : i0 + 1024] /= root[i0 : i0 + 1024, None] * root[None, :]
    return A, root


def embed(vals, vecs, root, t):
    """Diffusion coordinates sqrt(lambda^t) v from eigenvectors of A."""
    markov = vecs / root[:, None]
    markov /= np.linalg.norm(markov, axis=0)
    return markov * np.sqrt(np.clip(vals, 0.0, None) ** t)


def solve_exact(A, d, dense=False):
    """Top-d eigenpairs of A, descending: Lanczos, or dense LAPACK."""
    n = A.shape[0]
    if dense:
        vals, vecs = scipy.linalg.eigh(A, subset_by_index=[n - d, n - 1])
    else:
        vals, vecs = eigsh(A, k=d, which="LA", v0=np.full(n, n**-0.5), tol=0.0)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def reference(fields, cache_dir):
    """Exact (eigenvalues, embedding) for one workload's inputs, cached."""
    points = input_points(fields)
    key = hashlib.sha256(points.tobytes())
    key.update(repr((points.shape, fields["sigma"], fields["d"], fields["t"])).encode())
    path = os.path.join(cache_dir, f"ref-{key.hexdigest()[:24]}.npz")
    if os.path.exists(path):
        with np.load(path) as cached:
            return cached["vals"], cached["emb"]
    A, root = symmetric_operator(points, fields["sigma"])
    vals, vecs = solve_exact(A, fields["d"])
    del A
    emb = embed(vals, vecs, root, fields["t"])
    os.makedirs(cache_dir, exist_ok=True)
    tmp = path + ".tmp.npz"
    np.savez(tmp, vals=vals, emb=emb)
    os.replace(tmp, path)
    return vals, emb


def eig_rel_err(ref_vals, vals):
    k = min(len(ref_vals), len(vals))
    return float(np.max(np.abs(vals[:k] - ref_vals[:k]) / np.abs(ref_vals[:k])))


def emb_rel_err(ref_emb, emb):
    ref_abs = np.abs(ref_emb)
    return float(np.linalg.norm(ref_abs - np.abs(emb)) / np.linalg.norm(ref_abs))


def _spectrum_problems(label, vals):
    vals = np.asarray(vals, dtype=float)
    problems = []
    if vals.size == 0 or not np.all(np.isfinite(vals)):
        problems.append(f"{label}: eigenvalues empty or not finite")
    elif np.any(np.diff(vals) > 0.0):
        problems.append(f"{label}: eigenvalues not descending")
    elif vals[-1] < 0.0 or vals[0] > EIG_CEILING:
        problems.append(f"{label}: eigenvalues outside [0, 1 + 1e-10]")
    return problems


def _read_embedding(path, n, d, labelled):
    try:
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return None, f"{os.path.basename(path)}: unreadable ({exc})"
    width = d + (1 if labelled else 0)
    if values.shape != (n, width):
        return None, f"{os.path.basename(path)}: shape {values.shape}, expected {(n, width)}"
    if not np.all(np.isfinite(values)):
        return None, f"{os.path.basename(path)}: non-finite entries"
    return values, None


def check_outputs(workload, fields, out_dir, get_reference):
    """Check one call's outputs.

    Returns (problems, digest, accuracy, report); ``get_reference`` is
    called only for workloads that score a method against the reference.
    """
    problems = []
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"], None, {}, None
    missing = [k for k in REPORT_KEYS if k not in report]
    if workload.entry == "compare" and "comparison" not in report:
        missing.append("comparison")
    if workload.cluster_k and "clustering" not in report:
        missing.append("clustering")
    if missing:
        return [f"report.json lacks {missing}"], None, {}, report

    n, d = fields["n"], fields["d"]
    spectra = {"report": report["eigenvalues"]}
    if workload.entry == "compare":
        files = ["embedding_deterministic.csv"] + [METHOD_FILE[m] for m in ("rp", "cols")]
        for m in ("rp", "cols"):
            spectra[m] = report["comparison"][METHOD_KEY[m]]["eigenvalues"]
    else:
        files = ["embedding.csv"]
    digest = hashlib.sha256()
    for label, vals in spectra.items():
        problems += _spectrum_problems(label, vals)
        digest.update(np.asarray(vals, dtype=float).tobytes())
    embeddings = {}
    labelled = workload.entry == "run" and workload.cluster_k > 0
    for name in files:
        values, problem = _read_embedding(os.path.join(out_dir, name), n, d, labelled)
        if problem:
            problems.append(problem)
            continue
        digest.update(values.tobytes())
        embeddings[name] = values[:, :d]
    accuracy = {}
    if workload.scored and not problems:
        ref_vals, ref_emb = get_reference()
        if workload.entry == "compare":
            det_vals = np.asarray(report["eigenvalues"])
            if det_vals.shape != ref_vals.shape:
                return problems + ["exact spectrum has the wrong length"], None, {}, report
            eig_gap = float(np.max(np.abs(det_vals - ref_vals)))
            emb_gap = emb_rel_err(ref_emb, embeddings["embedding_deterministic.csv"])
            if eig_gap > EXACT_EIG_TOL or emb_gap > EXACT_EMB_TOL:
                problems.append(
                    f"exact spectrum off the reference: eigenvalues {eig_gap:.2e}, "
                    f"embedding {emb_gap:.2e}"
                )
        for m in workload.scored:
            if workload.entry == "compare":
                vals, emb = spectra[m], embeddings[METHOD_FILE[m]]
            else:
                vals, emb = spectra["report"], embeddings["embedding.csv"]
            scores = {
                "eig_rel_err": eig_rel_err(ref_vals, np.asarray(vals)),
                "emb_rel_err": emb_rel_err(ref_emb, emb),
            }
            for metric, value in scores.items():
                accuracy[f"{metric}.{m}"] = value
                if not value <= ACCURACY_CEILING[m][metric]:
                    problems.append(f"{metric}.{m} = {value:.3e} above its ceiling")
    return problems, digest.hexdigest()[:16], accuracy, report
