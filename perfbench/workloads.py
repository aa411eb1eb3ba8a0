"""The three workloads: sizes, model settings, input generation and the pipeline.

Inputs are generated here with numpy from the workload seed, independently of
the package's own synthetic generators; the package only sees the files and
arrays this module writes.  The pipeline functions drive the public
``passglm`` API along the path the CLI takes: one pass to statistics, the
statistics file, the fit and the posterior JSON.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

import passglm as pg


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "logit" or "poisson"
    M: int  # polynomial degree
    R: float  # approximation half-width; covers the observed inner products
    prior_var: float
    d: int  # dimension of the statistics
    n_train: int
    n_test: int
    shards: int = 1
    input_dim: int = 0  # libsvm dimension before projection (0: no projection)
    part_records: int = 0  # records per libsvm part file (0: one file)
    nnz: int = 0  # draws of feature indices per wide record
    domain_radius: float | None = None
    from_file: bool = True

    @property
    def prior(self) -> pg.PriorSpec:
        return pg.PriorSpec.gaussian(self.prior_var)

    @property
    def mapping(self) -> pg.MappingSpec:
        return pg.get_mapping(self.model)


# sized so that a 30-second run holds several whole pipeline runs, whose
# median is reported: one run is ~1 s, ~4 s and ~7 s (see README, Sizes)
WORKLOADS = {
    w.name: w
    for w in (
        Workload("svm-d20", "logit", M=2, R=4.0, prior_var=4.0, d=20,
                 n_train=30_000, n_test=20_000),
        Workload("wide-proj-shard2", "logit", M=2, R=4.0, prior_var=1.0, d=500,
                 n_train=3000, n_test=4000, shards=2, input_dim=20_000,
                 part_records=500, nnz=20),
        Workload("poisson-m6", "poisson", M=6, R=2.5, prior_var=1.0, d=10,
                 n_train=20_000, n_test=5000, domain_radius=2.5, from_file=False),
    )
}


# --- input generation ----------------------------------------------------------


def _ball(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    z = rng.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z * (rng.random(n) ** (1.0 / d))[:, None]


def _fixed_theta(d: int, norm: float) -> np.ndarray:
    v = np.cos(1.0 + 2.0 * np.arange(d))
    return norm * v / np.linalg.norm(v)


def _logit_labels(rng: np.random.Generator, s: np.ndarray) -> np.ndarray:
    return np.where(rng.random(s.size) < 1.0 / (1.0 + np.exp(-s)), 1.0, -1.0)


def _wide_rows(rng: np.random.Generator, w: Workload, n: int) -> sp.csr_matrix:
    """Unit-norm sparse rows; feature popularity follows a Zipf-like law.

    Only the input dimension comes from the paper (its advertising set has
    20,000 covariates).  The row shape is an assumption, since the repo holds
    no description of that set: ``nnz`` = 20 draws per record (about 19.5
    distinct nonzeros) stands for a click log's few dozen active one-hot
    fields, and p_j proportional to (j + 10)^-1.1 for the heavy-tailed
    popularity of hashed categorical values.  Values are standard normal
    before the rows are scaled to unit norm.
    """
    pop = 1.0 / (np.arange(w.input_dim) + 10.0) ** 1.1
    cols = rng.choice(w.input_dim, size=(n, w.nnz), p=pop / pop.sum())
    rows = np.repeat(np.arange(n), w.nnz)
    X = sp.csr_matrix((rng.standard_normal(n * w.nnz), (rows, cols.ravel())),
                      shape=(n, w.input_dim))
    X.sum_duplicates()
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    X = (sp.diags(1.0 / norms) @ X).tocsr()
    X.sort_indices()
    return X


def generate(w: Workload, seed: int) -> dict:
    """Training and held-out arrays of one workload, a function of the seed only."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2017]))
    n = w.n_train + w.n_test
    if w.name == "svm-d20":
        X = _ball(rng, n, w.d)
        y = _logit_labels(rng, X @ _fixed_theta(w.d, 3.0))
    elif w.name == "wide-proj-shard2":
        X = _wide_rows(rng, w, n)
        theta = 2.0 * np.random.default_rng(2017).standard_normal(w.input_dim)  # fixed, like the others
        y = _logit_labels(rng, X @ theta)
    else:
        X = _ball(rng, n, w.d)
        y = rng.poisson(np.exp(X @ _fixed_theta(w.d, 1.5))).astype(float)
    return {
        "y": y[: w.n_train], "X": X[: w.n_train],
        "y_test": y[w.n_train:], "X_test": X[w.n_train:],
        "projection_seed": seed + 7,
    }


def write_inputs(w: Workload, data: dict, workdir: str, tracer) -> list[str]:
    """Write the training input the pass reads; returns its paths."""
    y, X = data["y"], data["X"]
    if not w.from_file:
        path = os.path.join(workdir, "train.npz")
        np.savez(path, y=y, X=X)
        return [path]
    if not w.part_records:
        path = os.path.join(workdir, "train.svm")
        with tracer.span("data.write_libsvm"):
            pg.write_libsvm(path, y, X)
        return [path]
    # the libsvm reader densifies each batch to (batch, input_dim), so the wide
    # input is split into part files that each stay one small batch
    paths = []
    for lo in range(0, len(y), w.part_records):
        path = os.path.join(workdir, f"train.{lo // w.part_records:03d}.svm")
        dense = X[lo : lo + w.part_records].toarray()
        with tracer.span("data.write_libsvm"):
            pg.write_libsvm(path, y[lo : lo + w.part_records], dense)
        paths.append(path)
    return paths


# --- the pipeline --------------------------------------------------------------


class PartFiles(pg.RecordStream):
    """Concatenation of libsvm part files read with the package's parser."""

    def __init__(self, paths, d: int):
        self.parts = [pg.parse_libsvm(p, d=d, labels="pm1") for p in paths]
        self.d = d
        self.passes = 0

    def _iter_batches(self, batch_size: int):
        for part in self.parts:
            yield from part.batches(batch_size)


def projection(w: Workload, seed: int) -> pg.ProjectionSpec:
    return pg.ProjectionSpec(seed=seed, input_dim=w.input_dim, output_dim=w.d)


def open_source(w: Workload, paths: list[str], arrays, projection_seed: int):
    """The record stream the one pass reads, opened the way a user would."""
    if not w.from_file:
        return pg.ArrayStream(*arrays)
    if w.input_dim:
        return pg.project(PartFiles(paths, w.input_dim), projection(w, projection_seed))
    return pg.parse_libsvm(paths[0], d=w.d, labels="pm1")


def build(w: Workload, source) -> pg.SuffStats:
    if w.shards > 1:
        return pg.run_sharded(source, w.shards, w.mapping, w.M, w.R)
    return pg.build_stats(source, w.mapping, w.M, w.R)


def fit(w: Workload, stats: pg.SuffStats, tracer):
    """Posterior from loaded statistics, as ``passglm fit`` builds it: a
    ``GaussianPosterior`` for the logistic workloads, the surrogate posterior
    (coefficients, MAP and its Laplace fit) for Poisson."""
    if w.model == "logit":
        with tracer.span("mappings.fit_terms"):
            (approx,) = pg.fit_terms(w.mapping, w.M, w.R)
        with tracer.span("posterior.fit"):
            return pg.posterior_lr2(stats, approx, w.prior)
    with tracer.span("posterior.fit"):
        return pg.posterior_general(stats, None, w.prior, domain_radius=w.domain_radius)
