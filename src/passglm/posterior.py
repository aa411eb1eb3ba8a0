"""Approximate posteriors built from polynomial sufficient statistics.

For the degree-2 logistic surrogate with a Gaussian prior the posterior is an
exact Gaussian with closed-form mean and covariance.  For every other
supported case the surrogate log-posterior is a polynomial in the parameter;
its mode is found by Newton iteration and a Gaussian is fitted at the mode.
``_newton`` is the package's one Newton solver: it also finds the exact MAP
of the Laplace baseline (``baselines.exact_map``), and ``_gaussian_at`` fits
the Gaussian at both modes.

Every fit resolves its ``approx`` argument with ``_approxes``: ``None`` means
the statistics' own terms (``SuffStats.approxes``); raw (logistic) statistics,
which do not depend on the radius, take any approximation of their degree in
place of theirs; folded statistics accept only one of their own.

Covariances are represented by lower-triangular Cholesky factors obtained
from the precision matrix without explicitly inverting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .chebyshev import PolyApprox, eval_poly
from .errors import (
    ConvergenceError,
    InvalidInputError,
    NonConcaveError,
    NotPositiveDefiniteError,
    PathologicalApproximationError,
)
from .mappings import _records, _term_args, log_likelihood_hess
from .suffstats import MultiIndexSet, SuffStats, enumerate_indices

__all__ = [
    "PriorSpec",
    "GaussianPosterior",
    "SurrogatePosterior",
    "MapCertificate",
    "PolySurface",
    "surrogate_loglik_coefficients",
    "posterior_lr2",
    "posterior_general",
    "map_error_certificate",
]


@dataclass(frozen=True)
class PriorSpec:
    """Gaussian (diagonal-covariance) or flat improper prior on the parameter."""

    kind: str  # "gaussian" or "flat"
    mean: np.ndarray | None = None
    variance: np.ndarray | float | None = None

    @staticmethod
    def gaussian(variance: float | np.ndarray, mean: np.ndarray | float = 0.0) -> "PriorSpec":
        v = np.asarray(variance, dtype=float)
        if not np.all(v > 0):
            raise InvalidInputError(f"prior variance must be positive, got {variance}")
        return PriorSpec(kind="gaussian", mean=np.asarray(mean, dtype=float), variance=v)

    @staticmethod
    def flat() -> "PriorSpec":
        return PriorSpec(kind="flat")

    @staticmethod
    def parse(text: str) -> "PriorSpec":
        """Parse CLI syntax: ``flat`` or ``gaussian:SIGMA2``."""
        if text == "flat":
            return PriorSpec.flat()
        if text.startswith("gaussian:"):
            try:
                variance = float(text.split(":", 1)[1])
            except ValueError:
                raise InvalidInputError(f"cannot parse prior {text!r}: SIGMA2 is not a number") from None
            return PriorSpec.gaussian(variance)
        raise InvalidInputError(f"cannot parse prior {text!r}")

    def mean_vector(self, d: int) -> np.ndarray:
        if self.kind == "flat" or self.mean is None:
            return np.zeros(d)
        return np.broadcast_to(np.asarray(self.mean, dtype=float), (d,)).copy()

    def precision_diag(self, d: int) -> np.ndarray:
        """Diagonal of the prior precision (zeros for the flat prior)."""
        if self.kind == "flat":
            return np.zeros(d)
        return np.broadcast_to(1.0 / np.asarray(self.variance, dtype=float), (d,)).copy()

    def log_density(self, theta: np.ndarray) -> float:
        if self.kind == "flat":
            return 0.0
        d = theta.size
        prec = self.precision_diag(d)
        diff = theta - self.mean_vector(d)
        return -0.5 * float(prec @ (diff * diff))


@dataclass(frozen=True)
class GaussianPosterior:
    """Gaussian posterior summary: mean, lower Cholesky factor of the
    covariance, and the covariance log-determinant."""

    mean: np.ndarray
    chol: np.ndarray
    logdet: float

    @property
    def d(self) -> int:
        return self.mean.size

    def cov(self) -> np.ndarray:
        return self.chol @ self.chol.T

    def marginal_variances(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.chol, self.chol)

    def sample(self, count: int, seed: int | None = None) -> np.ndarray:
        """Draw ``count`` samples; deterministic under a fixed seed."""
        if count < 1:
            raise InvalidInputError("sample count must be >= 1")
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((count, self.d))
        return self.mean + z @ self.chol.T


@dataclass(frozen=True)
class SurrogatePosterior:
    """Polynomial surrogate log-posterior with its mode and Laplace fit."""

    surface: "PolySurface"
    map_estimate: np.ndarray
    laplace: GaussianPosterior
    domain_radius: float | None = None

    @property
    def coefficients(self) -> np.ndarray:
        return self.surface.coefficients


def _chol_from_precision(precision: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """One Cholesky factorization of a precision matrix, read three ways.

    Returns the lower factor ``m`` of the index-reversed precision ``J P J``
    (``J`` the reversal), the lower Cholesky factor of the covariance
    ``P^-1 = (J m^-T J)(J m^-T J)^T`` and the covariance log-determinant.
    ``P x = r`` solves as ``cho_solve((m, True), r[::-1])[::-1]``; no explicit
    inverse is formed.
    """
    try:
        m = linalg.cholesky(precision[::-1, ::-1], lower=True)
    except linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"precision matrix is not positive definite: {exc}")
    eye = np.eye(precision.shape[0])
    cov_chol = linalg.solve_triangular(m, eye, lower=True, trans="T")[::-1, ::-1]
    logdet_cov = -2.0 * float(np.sum(np.log(np.diag(m))))
    return m, cov_chol, logdet_cov


def _check_logistic_leading_coefficient(b: np.ndarray) -> None:
    nz = np.flatnonzero(np.abs(b) > 1e-12)
    if nz.size == 0:
        raise PathologicalApproximationError("all polynomial coefficients vanish")
    lead = int(nz[-1])
    if lead == 0:
        raise PathologicalApproximationError("approximation is constant in the parameter")
    if lead % 2 == 1 or b[lead] >= 0:
        raise PathologicalApproximationError(
            f"logistic approximation with leading coefficient b_{lead}={b[lead]:.3g} "
            "makes the surrogate log-likelihood unbounded above; usable logistic "
            "degrees are M = 2 + 4k (degree-4k leading terms are positive)"
        )


def _approxes(stats: SuffStats, approx: PolyApprox | None) -> tuple[PolyApprox, ...]:
    """The fitted terms a fit of ``stats`` with ``approx`` uses (module docstring)."""
    if approx is None:
        return stats.approxes
    if stats.mapping.raw_monomial:
        if approx.M != stats.index_set.M:
            raise InvalidInputError("approximation degree must match the statistics")
        return (approx,)
    if not any(approx.R == a.R and np.array_equal(approx.b, a.b) for a in stats.approxes):
        raise InvalidInputError("folded statistics carry their own fitted terms (stats.approxes)")
    return stats.approxes


def posterior_lr2(stats: SuffStats, approx: PolyApprox | None, prior: PriorSpec) -> GaussianPosterior:
    """Closed-form Gaussian posterior for the degree-2 logistic surrogate.

    The precision is ``prior_precision - 2 b2 T2`` and the mean solves
    ``precision @ mean = b1 t1 + prior_precision @ prior_mean``, where ``t1``
    and ``T2`` are the degree-1 vector and degree-2 matrix of raw monomial
    statistics and ``b`` the coefficients of the resolved ``approx``.
    """
    if not stats.mapping.raw_monomial:
        raise InvalidInputError("closed-form path requires raw logistic statistics")
    if stats.index_set.M != 2:
        raise InvalidInputError("closed-form path requires degree M = 2")
    if prior.kind != "gaussian":
        raise InvalidInputError("closed-form path requires a Gaussian prior")
    b = _approxes(stats, approx)[0].b
    if b[2] >= 0:
        raise PathologicalApproximationError(
            f"quadratic coefficient b2={b[2]:.3g} >= 0 would make the surrogate "
            "log-likelihood unbounded above"
        )
    d = stats.index_set.d
    vals = stats.values()
    t1 = vals[1 : d + 1]
    pairs = stats.index_set.rows[1 + d :]
    T2 = np.empty((d, d))
    T2[pairs[:, 0], pairs[:, 1]] = vals[1 + d :]
    T2[pairs[:, 1], pairs[:, 0]] = vals[1 + d :]

    prec_diag = prior.precision_diag(d)
    precision = -2.0 * b[2] * T2
    precision[np.diag_indices(d)] += prec_diag
    rhs = b[1] * t1 + prec_diag * prior.mean_vector(d)
    rev_chol, cov_chol, logdet = _chol_from_precision(precision)
    mean = linalg.cho_solve((rev_chol, True), rhs[::-1])[::-1]
    return GaussianPosterior(mean=mean, chol=cov_chol, logdet=logdet)


# --- polynomial surfaces ----------------------------------------------------


class PolySurface:
    """A polynomial in ``d`` variables over a multi-index set, with gradient
    and Hessian evaluation.

    As ``d/dtheta_u theta**(j + e_u) = (j_u + 1) theta**j``, the gradient is
    a fixed ``(d, |K_<M|)`` matrix times the monomials of degree below ``M``,
    and the Hessian's upper triangle one row per pair ``u <= v`` over
    ``K_<M-1``.  Both are built once from ``MultiIndexSet.up``; the Hessian
    is mirrored, so it is exactly symmetric.
    """

    def __init__(self, index_set: MultiIndexSet, coefficients: np.ndarray):
        self.index_set = index_set
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.coefficients.shape != (len(index_set),):
            raise InvalidInputError("coefficient vector does not match the index set")
        c, up = self.coefficients, index_set.up
        rows = index_set.rows[: len(up)]
        E = np.zeros(up.shape, dtype=np.int8)  # E[j, u]: the exponent of u in index j
        np.add.at(E, (np.nonzero(rows >= 0)[0], rows[rows >= 0]), 1)
        self._grad = (c[up] * (E + 1.0)).T
        low = index_set.offsets[max(index_set.M - 1, 0)]
        self._pairs = u, v = np.triu_indices(index_set.d)
        hess = c[up[up[:low][:, u], v]] * (E[:low, u] + 1.0)
        hess *= E[:low, v] + (u == v) + 1.0
        self._hess = hess.T

    def _monomials(self, theta: np.ndarray, stop: int | None = None) -> np.ndarray:
        # the -1 padding picks the appended 1.0
        return np.prod(np.append(theta, 1.0)[self.index_set.rows[:stop]], axis=1)

    def value(self, theta: np.ndarray) -> float:
        return float(self.coefficients @ self._monomials(theta))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self._grad @ self._monomials(theta, self._grad.shape[1])

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        H = np.empty((self.index_set.d,) * 2)
        H[self._pairs] = H[self._pairs[::-1]] = self._hess @ self._monomials(theta, self._hess.shape[1])
        return H


def surrogate_loglik_coefficients(stats: SuffStats, approx: PolyApprox | None = None) -> np.ndarray:
    """Monomial coefficients of the surrogate log-likelihood over the index set.

    Raw logistic statistics get the multinomial-weighted coefficients of the
    resolved ``approx`` applied here; general-form statistics already carry them.
    """
    b = _approxes(stats, approx)[0].b
    vals = stats.values()
    if not stats.mapping.raw_monomial:
        return vals
    _check_logistic_leading_coefficient(b)
    iset = stats.index_set
    return iset.multinom * b[iset.degrees] * vals


def _surrogate_posterior_surface(
    stats: SuffStats, approx: PolyApprox | None, prior: PriorSpec
) -> PolySurface:
    lik_coef = surrogate_loglik_coefficients(stats, approx)
    d = stats.index_set.d
    M = stats.index_set.M
    target_M = max(M, 2) if prior.kind == "gaussian" else M
    # a lower-degree index set is a prefix of a higher-degree one
    iset = stats.index_set if target_M == M else enumerate_indices(d, target_M)
    coef = np.zeros(len(iset))
    coef[: len(lik_coef)] = lik_coef
    if prior.kind == "gaussian":
        prec = prior.precision_diag(d)
        mean = prior.mean_vector(d)
        coef[0] += -0.5 * float(prec @ (mean * mean))
        coef[1 : d + 1] += prec * mean
        coef[iset.up[1 + np.arange(d), np.arange(d)]] += -0.5 * prec
    return PolySurface(iset, coef)


# The surrogate's Newton stops at stationarity <= _GRAD_TOL * max(1, |value|),
# or fails after _MAX_ITER steps.
_GRAD_TOL = 1e-8
_MAX_ITER = 500
# Newton's sufficient-increase constant and the smallest step it backtracks to.
_ARMIJO = 1e-4
_MIN_STEP = 1e-12


def _newton(surface, theta: np.ndarray, tol, max_iter: int, radius: float | None = None):
    """Maximize ``surface`` (``value``, ``gradient`` and ``hessian``, as on
    :class:`PolySurface`) from ``theta`` by damped Newton iteration.

    Each step solves with the Cholesky factor of ``-H`` (its ``LinAlgError``
    reaches the caller) and is halved until the Armijo condition holds
    (Nocedal & Wright, *Numerical Optimization*, ch. 3); with ``radius``,
    every candidate is projected onto that ball.  Returns the point and the
    Hessian there once the projected gradient norm is at most ``tol(value)``;
    after ``max_iter`` steps raises :class:`ConvergenceError` with the trace
    ``(step, value, gradient norm)``.
    """
    f = surface.value(theta)
    trace = []
    for it in range(max_iter):
        g = surface.gradient(theta)
        H = surface.hessian(theta)
        trace.append((it, f, float(np.linalg.norm(g))))
        if _stationarity(theta, g, radius) <= tol(f):
            return theta, H
        step = linalg.cho_solve((linalg.cholesky(-H, lower=True), True), g)
        g_dot_step = float(g @ step)
        alpha = 1.0
        while alpha > _MIN_STEP:
            candidate = theta + alpha * step
            if radius is not None:
                candidate = _project_ball(candidate, radius)
            f_candidate = surface.value(candidate)
            if f_candidate >= f + _ARMIJO * alpha * g_dot_step:
                break
            alpha *= 0.5
        theta, f = candidate, f_candidate
    raise ConvergenceError(f"Newton did not reach its tolerance in {max_iter} iterations", trace=trace)


def _gaussian_at(mode: np.ndarray, precision: np.ndarray) -> GaussianPosterior:
    """The Gaussian fitted at a mode: mean ``mode``, precision ``precision``."""
    _, cov_chol, logdet = _chol_from_precision(precision)
    return GaussianPosterior(mean=mode, chol=cov_chol, logdet=logdet)


def posterior_general(
    stats: SuffStats,
    approx: PolyApprox | None,
    prior: PriorSpec,
    domain_radius: float | None = None,
) -> SurrogatePosterior:
    """Surrogate-MAP plus Laplace-on-surrogate posterior for general degree.

    Maximizes the polynomial surrogate log-posterior with :func:`_newton`,
    projecting onto the ball of ``domain_radius`` when given, then fits a
    Gaussian at the optimum.
    """
    if domain_radius is not None and not domain_radius > 0:
        raise InvalidInputError(f"domain radius must be > 0, got {domain_radius}")
    surface = _surrogate_posterior_surface(stats, approx, prior)
    if stats.mapping.name == "poisson":
        _check_poisson_convexity(_approxes(stats, approx)[1])
    theta = prior.mean_vector(stats.index_set.d)
    if domain_radius is not None:
        theta = _project_ball(theta, domain_radius)
    if np.max(np.linalg.eigvalsh(surface.hessian(theta))) >= 0:
        _raise_nonconcave(stats)
    try:
        theta, H = _newton(
            surface, theta, lambda f: _GRAD_TOL * max(1.0, abs(f)), _MAX_ITER, domain_radius
        )
    except linalg.LinAlgError:
        _raise_nonconcave(stats)
    if np.max(np.linalg.eigvalsh(H)) >= 0:
        _raise_nonconcave(stats)
    return SurrogatePosterior(
        surface=surface,
        map_estimate=theta,
        laplace=_gaussian_at(theta.copy(), -H),
        domain_radius=domain_radius,
    )


def _stationarity(theta: np.ndarray, grad: np.ndarray, radius: float | None) -> float:
    if radius is None:
        return float(np.linalg.norm(grad))
    return float(np.linalg.norm(_project_ball(theta + grad, radius) - theta))


def _project_ball(theta: np.ndarray, radius: float) -> np.ndarray:
    norm = float(np.linalg.norm(theta))
    if norm <= radius:
        return theta
    return theta * (radius / norm)


def _raise_nonconcave(stats: SuffStats):
    if stats.mapping.raw_monomial:
        raise PathologicalApproximationError(
            "surrogate log-posterior is not concave; logistic approximations "
            "with degree M = 4k have positive leading coefficients and are "
            "pathological (usable degrees are M = 2 + 4k)"
        )
    raise NonConcaveError("surrogate log-posterior is not concave on the domain")


def _check_poisson_convexity(approx: PolyApprox) -> None:
    if approx.M % 2 == 1:
        raise NonConcaveError("Poisson surrogate requires an even degree")
    grid = np.linspace(-approx.R, approx.R, 2001)
    d2 = np.zeros_like(grid)
    for m in range(2, approx.M + 1):
        d2 += approx.b[m] * m * (m - 1) * grid ** (m - 2)
    # stats fold the negated exponential, so convexity of f_M means d2 <= 0 here
    if np.max(d2) >= 0:
        raise NonConcaveError(
            "the approximated exponential term is not convex on [-R, R]; "
            "increase the degree or shrink the interval"
        )


# --- MAP error certificate ---------------------------------------------------


@dataclass(frozen=True)
class MapCertificate:
    """Numerical evaluation of the surrogate-MAP error bound.

    ``bound`` is ``4 eps_n / rho_n``; ``measured_sq`` is the actual squared
    distance between the exact and surrogate MAP points.  The premise flags
    report whether the checked assumptions held; the bound is only guaranteed
    when they do.
    """

    eps_n: float
    rho_n: float
    bound: float
    measured_sq: float
    in_range_fraction: float
    premises: dict = field(default_factory=dict)
    surrogate_map: np.ndarray | None = None

    @property
    def premises_ok(self) -> bool:
        return all(self.premises.values())

    @property
    def holds(self) -> bool:
        return self.measured_sq <= self.bound


# Share of term arguments inside [-R, R] at which the range premise counts as held.
_IN_RANGE_THRESHOLD = 0.98


def map_error_certificate(
    exact_map: np.ndarray,
    approx: PolyApprox | None,
    stats: SuffStats,
    prior: PriorSpec,
    data,
) -> MapCertificate:
    """Evaluate the MAP error bound ``4 eps_n / rho_n`` numerically.

    ``eps_n`` is estimated as ``N`` times the largest approximation error of
    the mapping over the observed inner-product range at the exact MAP (an
    empirical, not certified, stand-in for the uniform premise).  ``rho_n``
    is the smallest Hessian eigenvalue of the exact negative log-posterior at
    the exact MAP.  Premise failures are flagged, never fatal.
    """
    exact_map = np.asarray(exact_map, dtype=float)
    mapping = stats.mapping
    d = exact_map.size

    y, X = _records(mapping, data)
    s = X @ exact_map

    eps_n = 0.0
    worst_fraction = 1.0
    n = len(y)
    for term, term_approx in zip(mapping.terms, _approxes(stats, approx)):
        arg = _term_args(term, y, s)
        worst_fraction = min(
            worst_fraction, float(np.mean(np.abs(arg) <= stats.radius))
        )
        if term.exact_degree is not None and term.exact_degree <= stats.index_set.M:
            continue
        span = max(float(np.max(np.abs(arg))), 1e-12)
        grid = np.linspace(-span, span, 20_001)
        err = float(np.max(np.abs(term.phi(grid) - eval_poly(term_approx, grid))))
        weight = float(np.max(np.abs(y) ** term.y_power))
        eps_n += n * weight * err

    hess = log_likelihood_hess(mapping, exact_map, (y, X))
    neg_log_post_hess = -hess + np.diag(prior.precision_diag(d))
    rho_n = float(np.min(np.linalg.eigvalsh(neg_log_post_hess)))

    if stats.mapping.raw_monomial and stats.index_set.M == 2 and prior.kind == "gaussian":
        surrogate_map = posterior_lr2(stats, approx, prior).mean
    else:
        surrogate_map = posterior_general(stats, approx, prior).map_estimate

    measured = float(np.sum((exact_map - surrogate_map) ** 2))
    bound = math.inf if rho_n <= 0 else 4.0 * eps_n / rho_n
    premises = {
        "inner_products_in_range": worst_fraction >= _IN_RANGE_THRESHOLD,
        "posterior_strongly_log_concave_at_map": rho_n > 0,
        "prior_log_concave": prior.kind in ("gaussian", "flat"),
    }
    return MapCertificate(
        eps_n=eps_n,
        rho_n=rho_n,
        bound=bound,
        measured_sq=measured,
        in_range_fraction=worst_fraction,
        premises=premises,
        surrogate_map=surrogate_map,
    )
