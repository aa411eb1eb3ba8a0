"""Approximation-quality metrics: posterior errors, test NLL, AUC, histograms."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, MetricError
from .mappings import MappingSpec, _approximated_term, _records, _term_args, batch_log_likelihood

__all__ = [
    "EvalReport",
    "InnerProductHistogram",
    "gaussian_w2",
    "compare_posteriors",
    "test_nll",
    "test_nll_predictive",
    "roc_auc",
    "inner_product_histogram",
]


@dataclass
class EvalReport:
    """Posterior comparison summary.

    ``mean_err`` and ``var_err`` are averages of absolute per-coordinate
    differences; ``w2`` is the 2-Wasserstein distance between the Gaussian
    summaries (an upper bound on the 1-Wasserstein distance the theory
    speaks about).
    """

    mean_err: float
    var_err: float
    w2: float

    def as_dict(self) -> dict:
        return {"mean_err": self.mean_err, "var_err": self.var_err, "w2": self.w2}


def _as_gaussian_summary(g) -> tuple[np.ndarray, np.ndarray]:
    if hasattr(g, "mean") and hasattr(g, "cov"):
        return np.asarray(g.mean, dtype=float), np.asarray(g.cov(), dtype=float)
    mean, cov = g
    return np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)


def _sqrt_psd(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def gaussian_w2(mean_a, cov_a, mean_b, cov_b) -> float:
    """Closed-form 2-Wasserstein distance between two Gaussians."""
    mean_a = np.asarray(mean_a, dtype=float)
    mean_b = np.asarray(mean_b, dtype=float)
    root_a = _sqrt_psd(np.asarray(cov_a, dtype=float))
    cross = _sqrt_psd(root_a @ np.asarray(cov_b, dtype=float) @ root_a)
    sq = float(np.sum((mean_a - mean_b) ** 2)) + float(
        np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.trace(cross)
    )
    return float(np.sqrt(max(sq, 0.0)))


def compare_posteriors(a, b) -> EvalReport:
    """Mean/variance errors and W2 between two Gaussian posterior summaries."""
    mean_a, cov_a = _as_gaussian_summary(a)
    mean_b, cov_b = _as_gaussian_summary(b)
    if mean_a.shape != mean_b.shape:
        raise InvalidInputError(
            f"dimension mismatch: {mean_a.shape} vs {mean_b.shape}"
        )
    d = mean_a.size
    mean_err = float(np.mean(np.abs(mean_a - mean_b)))
    var_err = float(np.mean(np.abs(np.diag(cov_a) - np.diag(cov_b))))
    return EvalReport(
        mean_err=mean_err,
        var_err=var_err,
        w2=gaussian_w2(mean_a, cov_a, mean_b, cov_b),
    )


def test_nll(spec: MappingSpec, estimate, data) -> float:
    """Mean negative log-likelihood of held-out records at a point estimate.

    Posterior objects are reduced to their mean (plug-in evaluation).
    """
    if hasattr(estimate, "chol"):  # posterior object: plug in its mean
        estimate = estimate.mean
    theta = np.asarray(estimate, dtype=float)
    y, X = _records(spec, data)
    vals = batch_log_likelihood(spec, theta, y, X)
    return -float(vals.mean())


def test_nll_predictive(spec: MappingSpec, posterior, data, draws: int = 100, seed: int = 0) -> float:
    """Monte Carlo posterior-predictive mean negative log-likelihood."""
    y, X = _records(spec, data)
    thetas = posterior.sample(draws, seed=seed)
    acc = np.full(len(y), -np.inf)
    for theta in thetas:
        acc = np.logaddexp(acc, batch_log_likelihood(spec, theta, y, X))
    return -float(np.mean(acc - np.log(draws)))


def _average_ranks(a) -> np.ndarray:
    """1-based ranks of the flattened ``a``, ties sharing their mean rank.

    Equal to ``scipy.stats.rankdata(a, method="average")``, bit for bit: a
    NaN anywhere makes every rank NaN.
    """
    a = np.asarray(a, dtype=float).ravel()
    if np.isnan(a).any():
        return np.full(a.size, np.nan)
    sorter = np.argsort(a, kind="stable")
    inv = np.empty(a.size, dtype=np.intp)
    inv[sorter] = np.arange(a.size)
    sorted_a = a[sorter]
    obs = np.concatenate(([True], sorted_a[1:] != sorted_a[:-1]))
    dense = np.cumsum(obs)[inv]
    # count[k] is the number of values below the k-th distinct value
    count = np.concatenate((np.flatnonzero(obs), [a.size]))
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic; ties count 1/2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels > 0
    n_pos = int(pos.sum())
    n_neg = int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC is undefined without both classes present")
    ranks = _average_ranks(scores)
    u = float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@dataclass(frozen=True)
class InnerProductHistogram:
    """Histogram of the approximated term's arguments and the fraction of
    records whose argument falls inside the approximation interval."""

    counts: np.ndarray
    edges: np.ndarray
    in_range_fraction: float
    radius: float


def _term_range(spec: MappingSpec, y: np.ndarray, s: np.ndarray, radius: float):
    """The arguments of ``spec``'s approximated term at the linear predictors
    ``s``, and the fraction of them inside ``[-radius, radius]``."""
    args = _term_args(_approximated_term(spec), y, s)
    return args, float(np.mean(np.abs(args) <= radius))


def inner_product_histogram(
    spec: MappingSpec, data, theta, radius: float = 4.0, bins: int = 50
) -> InnerProductHistogram:
    """Histogram the arguments of ``spec``'s first term that a polynomial
    does not represent exactly, such as ``y_n (x_n . theta)`` for logit or
    ``x_n . theta - y_n`` for shuber, and check the premise that they stay
    within ``[-radius, radius]``.  Labels are read as for :func:`test_nll`.

    Emits a warning when fewer than half the records are in range, which
    signals that the polynomial approximation interval is badly matched to
    the data.  A ``radius`` that is not finite and > 0 raises
    :class:`InvalidInputError`.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise InvalidInputError(f"histogram radius must be finite and > 0, got {radius}")
    y, X = _records(spec, data)
    args, fraction = _term_range(spec, y, X @ np.asarray(theta, dtype=float), radius)
    counts, edges = np.histogram(args, bins=bins)
    if fraction < 0.5:
        warnings.warn(
            f"only {fraction:.1%} of inner products fall inside [-{radius}, {radius}]; "
            "the polynomial approximation is unlikely to be adequate",
            stacklevel=2,
        )
    return InnerProductHistogram(counts=counts, edges=edges, in_range_fraction=fraction, radius=radius)
