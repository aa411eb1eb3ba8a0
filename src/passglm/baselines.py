"""Reference inference methods: exact-MAP Laplace, adaptive MALA, and SGD.

These consume the same record sources as the statistics builder so that
head-to-head comparisons are fair.  All of them work with the exact
(non-approximate) log-likelihood of the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, special

from .errors import (
    ConvergenceError,
    DivergenceError,
    InvalidInputError,
    NumericError,
)
from .mappings import MappingSpec, _check_finite, _loglik_derivs, _materialize
from .metrics import _average_ranks
from .posterior import GaussianPosterior, PriorSpec, _chol_from_precision

__all__ = [
    "MalaConfig",
    "ChainOutput",
    "laplace",
    "exact_map",
    "mala",
    "sgd",
    "split_rhat",
]


def exact_map(
    spec: MappingSpec,
    prior: PriorSpec,
    data,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton iteration to the exact MAP.

    Returns the optimum and the Hessian of the negative log-posterior there.
    The absolute gradient norm at the reported optimum is at most ``tol``.
    """
    y, X = _materialize(data)
    y = spec.canonicalize_y(y)
    d = X.shape[1]
    mean = prior.mean_vector(d)
    prec = np.diag(prior.precision_diag(d))

    def evaluate(theta):
        # negative log-posterior and the per-record derivatives in X @ theta
        ll, d1, d2 = _loglik_derivs(spec, y, X @ theta, 2)
        return -float(np.sum(ll)) - prior.log_density(theta), d1, d2

    theta = mean
    f, d1, d2 = evaluate(theta)
    for _ in range(max_iter):
        _check_finite(d1, "gradient")
        grad = -(X.T @ d1) + prec @ (theta - mean)
        hess = -(X.T @ (d2[:, None] * X)) + prec
        if np.linalg.norm(grad) <= tol:
            return theta, hess
        try:
            step = linalg.cho_solve((linalg.cholesky(hess, lower=True), True), grad)
        except linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Hessian during Newton iteration: {exc}")
        alpha = 1.0
        decrement = float(grad @ step)
        while alpha > 1e-12:
            theta_next = theta - alpha * step
            f_next, d1, d2 = evaluate(theta_next)
            if f_next <= f - 1e-4 * alpha * decrement:
                break
            alpha *= 0.5
        theta, f = theta_next, f_next
    raise ConvergenceError(f"Newton did not reach gradient tolerance {tol} in {max_iter} iterations")


def laplace(spec: MappingSpec, prior: PriorSpec, data, tol: float = 1e-8) -> GaussianPosterior:
    """Gaussian approximation at the exact MAP with covariance equal to the
    inverse Hessian of the exact negative log-posterior."""
    theta, hess = exact_map(spec, prior, data, tol=tol)
    _, cov_chol, logdet = _chol_from_precision(hess)
    return GaussianPosterior(mean=theta, chol=cov_chol, logdet=logdet)


@dataclass
class MalaConfig:
    """Adaptive MALA settings.

    The step size adapts toward ``target_accept`` during burn-in and is
    frozen afterwards; a diagonal preconditioner is estimated from the
    burn-in draws.
    """

    iterations: int = 20_000
    chains: int = 3
    step_size: float = 0.1
    target_accept: float = 0.574
    burn_in_frac: float = 0.5
    seed: int = 0
    precondition: bool = True

    def __post_init__(self):
        if not (0.0 < self.target_accept < 1.0):
            raise InvalidInputError("target acceptance must be in (0, 1)")
        if self.iterations < 10:
            raise InvalidInputError("iteration count is too small")
        if not (0.0 < self.burn_in_frac < 1.0):
            raise InvalidInputError("burn-in fraction must be in (0, 1)")

    @property
    def burn_in(self) -> int:
        return int(self.iterations * self.burn_in_frac)


@dataclass
class ChainOutput:
    """Post-burn-in draws with acceptance and convergence diagnostics."""

    draws: np.ndarray  # (chains, kept, d)
    accept_rates: np.ndarray
    rhat: np.ndarray | None
    step_sizes: np.ndarray

    def pooled(self) -> np.ndarray:
        return self.draws.reshape(-1, self.draws.shape[-1])


def mala(spec: MappingSpec, prior: PriorSpec, data, config: MalaConfig) -> ChainOutput:
    """Adaptive Metropolis-adjusted Langevin sampling of the exact posterior.

    The proposal is ``theta + (h^2/2) D grad + h sqrt(D) z`` with the
    Metropolis-Hastings correction; ``D`` is a diagonal preconditioner frozen
    after burn-in.
    """
    y, X = _materialize(data)
    y = spec.canonicalize_y(y)
    d = X.shape[1]
    prior_mean = prior.mean_vector(d)
    prior_prec = prior.precision_diag(d)

    def log_post_and_grad(theta):
        ll, d1 = _loglik_derivs(spec, y, X @ theta, 1)
        _check_finite(d1, "gradient")
        lp = float(np.sum(ll)) - 0.5 * float(prior_prec @ (theta - prior_mean) ** 2)
        return lp, X.T @ d1 - prior_prec * (theta - prior_mean)

    kept = config.iterations - config.burn_in
    draws = np.empty((config.chains, kept, d))
    accept_rates = np.empty(config.chains)
    step_sizes = np.empty(config.chains)

    for c in range(config.chains):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, c]))
        theta = prior_mean + 0.5 * rng.standard_normal(d)
        lp, g = log_post_and_grad(theta)
        if not np.isfinite(lp):
            raise NumericError("log-posterior is not finite at the chain start")
        log_h = np.log(config.step_size)
        D = np.ones(d)
        run_mean = np.zeros(d)
        run_m2 = np.zeros(d)
        seen = 0
        accepted_post = 0
        for it in range(config.iterations):
            h = np.exp(log_h)
            h2 = h * h
            mu = theta + 0.5 * h2 * D * g
            prop = mu + h * np.sqrt(D) * rng.standard_normal(d)
            lp_prop, g_prop = log_post_and_grad(prop)
            mu_back = prop + 0.5 * h2 * D * g_prop
            log_q_fwd = -0.5 / h2 * float(((prop - mu) ** 2 / D).sum())
            log_q_back = -0.5 / h2 * float(((theta - mu_back) ** 2 / D).sum())
            log_alpha = lp_prop - lp + log_q_back - log_q_fwd
            accept_prob = min(1.0, np.exp(min(0.0, log_alpha)))
            if rng.random() < accept_prob:
                theta, lp, g = prop, lp_prop, g_prop
                if it >= config.burn_in:
                    accepted_post += 1
            if it < config.burn_in:
                log_h += (it + 1) ** -0.6 * (accept_prob - config.target_accept)
                seen += 1
                delta = theta - run_mean
                run_mean += delta / seen
                run_m2 += delta * (theta - run_mean)
                if config.precondition and seen > 100 and (it + 1) % 200 == 0:
                    D = np.maximum(run_m2 / (seen - 1), 1e-10)
            else:
                draws[c, it - config.burn_in] = theta
        accept_rates[c] = accepted_post / kept
        step_sizes[c] = np.exp(log_h)

    rhat = split_rhat(draws) if config.chains >= 2 else None
    return ChainOutput(draws=draws, accept_rates=accept_rates, rhat=rhat, step_sizes=step_sizes)


def split_rhat(draws: np.ndarray) -> np.ndarray:
    """Split-chain rank-normalized potential scale reduction factor.

    ``draws`` has shape ``(chains, samples, d)``; each chain is split in half
    and the classic between/within variance ratio is computed on rank-normal
    scores, per coordinate.
    """
    chains, samples, d = draws.shape
    half = samples // 2
    split = draws[:, : 2 * half].reshape(chains * 2, half, d)
    out = np.empty(d)
    m, n = split.shape[0], half
    for j in range(d):
        flat = split[:, :, j].ravel()
        ranks = _average_ranks(flat)
        z = special.ndtri((ranks - 0.375) / (flat.size + 0.25)).reshape(m, n)
        chain_means = z.mean(axis=1)
        w = z.var(axis=1, ddof=1).mean()
        b = n * chain_means.var(ddof=1)
        var_plus = (n - 1) / n * w + b / n
        out[j] = np.sqrt(var_plus / w)
    return out


def sgd(
    spec: MappingSpec,
    data,
    epochs: int,
    eta0: float = 1.0,
    prior: PriorSpec | None = None,
    seed: int = 0,
    divergence_norm: float = 1e6,
) -> np.ndarray:
    """Single-sample stochastic gradient ascent on the log-posterior.

    The step size follows ``eta0 / (1 + eta0 * lam * t)`` with ``lam`` the
    inverse prior variance (0 for flat/absent priors).  Records are shuffled
    each epoch under the seed; the final iterate is returned.
    """
    if epochs < 1:
        raise InvalidInputError("epochs must be >= 1")
    y, X = _materialize(data)
    y = spec.canonicalize_y(y)
    n, d = X.shape
    if prior is not None and prior.kind == "gaussian":
        lam = float(np.max(prior.precision_diag(d)))
        prior_mean = prior.mean_vector(d)
        prior_prec = prior.precision_diag(d)
    else:
        lam = 0.0
        prior_mean = np.zeros(d)
        prior_prec = np.zeros(d)

    rng = np.random.default_rng(seed)
    theta = np.zeros(d)
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for i in order:
            eta = eta0 / (1.0 + eta0 * lam * t)
            xi = X[i]
            (w,) = _loglik_derivs(spec, y[i : i + 1], np.array([xi @ theta]), 1, lowest=1)[1]
            theta = theta + eta * (w * xi - prior_prec * (theta - prior_mean) / n)
            t += 1
        norm = float(np.linalg.norm(theta))
        if norm > divergence_norm:
            raise DivergenceError(
                f"SGD iterate norm {norm:.3g} exceeded {divergence_norm:.3g}; "
                "try a smaller eta0"
            )
    return theta
