"""Reference inference methods: exact-MAP Laplace, adaptive MALA, and SGD.

These consume the same record sources as the statistics builder so that
head-to-head comparisons are fair.  All of them work with the exact
(non-approximate) log-likelihood of the mapping.  The exact MAP is found by
the same Newton solver as the surrogate MAP (``posterior._newton``).
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
from .mappings import MappingSpec, _check_finite, _loglik_derivs, _records
from .metrics import _average_ranks
from .posterior import GaussianPosterior, PriorSpec, _gaussian_at, _newton

__all__ = [
    "MalaConfig",
    "ChainOutput",
    "laplace",
    "exact_map",
    "mala",
    "sgd",
    "split_rhat",
]


class _LogPosterior:
    """The exact log-posterior of ``spec`` and ``prior`` on the records
    ``(y, X)``: the surface of ``exact_map``'s Newton solver and the target of
    ``mala``, read by ``derivs`` as on ``posterior.PolySurface``."""

    def __init__(self, spec: MappingSpec, prior: PriorSpec, y: np.ndarray, X: np.ndarray):
        self.spec, self.prior, self.y, self.X = spec, prior, y, X
        d = X.shape[1]
        self.mean = prior.mean_vector(d)
        self.prec = np.diag(prior.precision_diag(d))

    def derivs(self, theta: np.ndarray, order: int) -> list:
        """``[value, gradient, Hessian][: order + 1]`` at ``theta``, from one
        ``X @ theta`` and one ``_loglik_derivs`` call; a non-finite gradient
        contribution raises :class:`NumericError`."""
        out = _loglik_derivs(self.spec, self.y, self.X @ theta, order)
        out[0] = float(np.sum(out[0])) + self.prior.log_density(theta)
        if order >= 1:
            _check_finite(out[1], "gradient")
            out[1] = self.X.T @ out[1] - self.prec @ (theta - self.mean)
        if order >= 2:
            out[2] = self.X.T @ (out[2][:, None] * self.X) - self.prec
        return out


# exact_map's Newton fails after this many steps.
_MAX_ITER = 100


def exact_map(spec: MappingSpec, prior: PriorSpec, data, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Newton iteration (``posterior._newton``) to the exact MAP, from the
    prior mean.

    Returns the optimum and the Hessian of the negative log-posterior there.
    The absolute gradient norm at the reported optimum is at most ``tol``.
    """
    y, X = _records(spec, data)
    surface = _LogPosterior(spec, prior, y, X)
    try:
        theta, hess = _newton(surface.derivs, surface.mean, lambda f: tol, _MAX_ITER)
    except linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular Hessian during Newton iteration: {exc}") from None
    return theta, -hess


def laplace(spec: MappingSpec, prior: PriorSpec, data, tol: float = 1e-8) -> GaussianPosterior:
    """Gaussian approximation at the exact MAP with covariance equal to the
    inverse Hessian of the exact negative log-posterior."""
    return _gaussian_at(*exact_map(spec, prior, data, tol=tol))


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")


# MALA starts at step size _STEP_SIZE and adapts it toward the acceptance rate
# _TARGET_ACCEPT (Roberts & Rosenthal) during the first _BURN_IN_FRAC of a chain.
_STEP_SIZE = 0.1
_TARGET_ACCEPT = 0.574
_BURN_IN_FRAC = 0.5


@dataclass
class MalaConfig:
    """Adaptive MALA settings.

    The step size adapts toward ``_TARGET_ACCEPT`` during burn-in and is
    frozen afterwards; a diagonal preconditioner is estimated from the
    burn-in draws.
    """

    iterations: int = 20_000
    chains: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 10:
            raise InvalidInputError("iteration count is too small")
        if self.chains < 1:
            raise InvalidInputError(f"chain count must be >= 1, got {self.chains}")
        _check_seed(self.seed)

    @property
    def burn_in(self) -> int:
        return int(self.iterations * _BURN_IN_FRAC)


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
    y, X = _records(spec, data)
    d = X.shape[1]
    post = _LogPosterior(spec, prior, y, X)

    kept = config.iterations - config.burn_in
    draws = np.empty((config.chains, kept, d))
    accept_rates = np.empty(config.chains)
    step_sizes = np.empty(config.chains)

    for c in range(config.chains):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, c]))
        theta = post.mean + 0.5 * rng.standard_normal(d)
        lp, g = post.derivs(theta, 1)
        if not np.isfinite(lp):
            raise NumericError("log-posterior is not finite at the chain start")
        log_h = np.log(_STEP_SIZE)
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
            lp_prop, g_prop = post.derivs(prop, 1)
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
                log_h += (it + 1) ** -0.6 * (accept_prob - _TARGET_ACCEPT)
                seen += 1
                delta = theta - run_mean
                run_mean += delta / seen
                run_m2 += delta * (theta - run_mean)
                if seen > 100 and (it + 1) % 200 == 0:
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


# SGD reports divergence once an epoch ends with an iterate norm above this.
_DIVERGENCE_NORM = 1e6


def sgd(
    spec: MappingSpec,
    data,
    epochs: int,
    eta0: float = 1.0,
    prior: PriorSpec = PriorSpec.flat(),
    seed: int = 0,
) -> np.ndarray:
    """Single-sample stochastic gradient ascent on the log-posterior.

    The step size follows ``eta0 / (1 + eta0 * lam * t)`` with ``lam`` the
    largest prior precision (0 for the default flat prior).  Records are
    shuffled each epoch under the seed; the final iterate is returned.
    """
    if epochs < 1:
        raise InvalidInputError("epochs must be >= 1")
    if not (np.isfinite(eta0) and eta0 > 0):
        raise InvalidInputError(f"eta0 must be finite and > 0, got {eta0}")
    _check_seed(seed)
    y, X = _records(spec, data)
    n, d = X.shape
    prior_mean, prior_prec = prior.mean_vector(d), prior.precision_diag(d)
    lam = float(np.max(prior_prec))

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
        if norm > _DIVERGENCE_NORM:
            raise DivergenceError(
                f"SGD iterate norm {norm:.3g} exceeded {_DIVERGENCE_NORM:.3g}; "
                "try a smaller eta0"
            )
    return theta
