"""Approximate posteriors built from polynomial sufficient statistics.

For the degree-2 logistic surrogate with a Gaussian or flat prior the
posterior is an exact Gaussian with closed-form mean and covariance.  For
every other supported case the surrogate log-posterior is a polynomial in the
parameter; a Gaussian is fitted at its mode, found by Newton iteration, and
inside a ball by a search for the ball's multiplier around it (``_ball_mode``).
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
from .metrics import _term_range
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
    """Gaussian prior on the parameter with diagonal ``precision``; ``mean``
    and ``precision`` are scalars or length-``d`` vectors.  The flat improper
    prior is its zero-precision limit, so every fit treats both alike."""

    mean: np.ndarray | float = 0.0
    precision: np.ndarray | float = 0.0

    @staticmethod
    def gaussian(variance: float | np.ndarray, mean: np.ndarray | float = 0.0) -> "PriorSpec":
        v = np.asarray(variance, dtype=float)
        if not np.all(v > 0):
            raise InvalidInputError(f"prior variance must be positive, got {variance}")
        return PriorSpec(mean=np.asarray(mean, dtype=float), precision=1.0 / v)

    @staticmethod
    def flat() -> "PriorSpec":
        return PriorSpec()

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
        return np.broadcast_to(np.asarray(self.mean, dtype=float), (d,)).copy()

    def precision_diag(self, d: int) -> np.ndarray:
        """Diagonal of the prior precision (zeros for the flat prior)."""
        return np.broadcast_to(np.asarray(self.precision, dtype=float), (d,)).copy()

    def log_density(self, theta: np.ndarray) -> float:
        """Unnormalized log-density: ``-(theta - mean)' P (theta - mean) / 2``."""
        diff = theta - self.mean_vector(theta.size)
        return -0.5 * float(self.precision_diag(theta.size) @ (diff * diff))


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
    """Polynomial surrogate log-posterior with its mode and Laplace fit.
    ``multiplier`` is 0.0 unless the ``domain_radius`` ball binds; then the
    mode is on its boundary, where the gradient is ``multiplier * map_estimate``,
    and the Laplace fit there ignores the boundary."""

    surface: "PolySurface"
    map_estimate: np.ndarray
    laplace: GaussianPosterior
    domain_radius: float | None = None
    multiplier: float = 0.0

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
    b = _approxes(stats, approx)[0].b
    if b[2] >= 0:
        raise PathologicalApproximationError(
            f"quadratic coefficient b2={b[2]:.3g} >= 0 would make the surrogate "
            "log-likelihood unbounded above"
        )
    d = stats.index_set.d
    vals = stats.values()
    t1 = vals[1 : d + 1]
    prefix, last = stats.index_set.parent[2]  # a degree-1 index's position is its variable
    T2 = np.empty((d, d))
    T2[prefix, last] = vals[1 + d :]
    T2[last, prefix] = vals[1 + d :]

    prec_diag = prior.precision_diag(d)
    precision = -2.0 * b[2] * T2
    precision[np.diag_indices(d)] += prec_diag
    rhs = b[1] * t1 + prec_diag * prior.mean_vector(d)
    rev_chol, cov_chol, logdet = _chol_from_precision(precision)
    mean = linalg.cho_solve((rev_chol, True), rhs[::-1])[::-1]
    return GaussianPosterior(mean=mean, chol=cov_chol, logdet=logdet)


# --- polynomial surfaces ----------------------------------------------------


class PolySurface:
    """A polynomial in ``d`` variables over a multi-index set, evaluated with
    its gradient and Hessian by ``derivs``.

    As ``d/dtheta_u theta**(j + e_u) = (j_u + 1) theta**j``, the gradient is
    a fixed ``(d, |K_<M|)`` matrix times the monomials of degree below ``M``,
    and the Hessian's upper triangle one row per pair ``u <= v`` over
    ``K_<M-1``.  Both are built once from ``MultiIndexSet.up`` and ``multinom``;
    the Hessian is mirrored, so it is exactly symmetric.
    """

    def __init__(self, index_set: MultiIndexSet, coefficients: np.ndarray):
        self.index_set = index_set
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.coefficients.shape != (len(index_set),):
            raise InvalidInputError("coefficient vector does not match the index set")
        c, up = self.coefficients, index_set.up
        # k[j, u] = (|j| + 1) multinom[j] / multinom[j + e_u], the exponent of u in
        # j + e_u; exact, as both divide (|j| + 1)!, a float64 integer up to 22!
        head = index_set.multinom[: len(up)] * (index_set.degrees[: len(up)] + 1)
        k = (head[:, None] / index_set.multinom[up]).astype(np.int8)
        self._grad = (c[up] * k).T
        low = index_set.offsets[max(index_set.M - 1, 0)]
        self._pairs = u, v = np.triu_indices(index_set.d)
        plus_u = up[:low][:, u]
        hess = c[up[plus_u, v]]
        hess *= k[:low, u]
        hess *= k[plus_u, v]
        self._hess = hess.T

    def derivs(self, theta: np.ndarray, order: int) -> list:
        """``[value, gradient, Hessian][: order + 1]`` at ``theta``, from one
        build of its monomials (``MultiIndexSet.monomials`` of a one-record
        batch): in canonical order those of degree below ``M`` and ``M - 1``
        are prefixes of them."""
        mono = self.index_set.monomials(theta[None, :], self.index_set.M)[:, 0]
        out = [float(self.coefficients @ mono)]
        if order >= 1:
            out.append(self._grad @ mono[: self._grad.shape[1]])
        if order >= 2:
            H = np.empty((self.index_set.d,) * 2)
            H[self._pairs] = H[self._pairs[::-1]] = self._hess @ mono[: self._hess.shape[1]]
            out.append(H)
        return out


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
    d, M = stats.index_set.d, stats.index_set.M
    # a lower-degree index set is a prefix of a higher-degree one
    iset = stats.index_set if M >= 2 else enumerate_indices(d, 2)
    coef = np.zeros(len(iset))
    coef[: len(lik_coef)] = lik_coef
    prec, mean = prior.precision_diag(d), prior.mean_vector(d)
    coef[0] += -0.5 * float(prec @ (mean * mean))
    coef[1 : d + 1] += prec * mean
    coef[iset.up[1 + np.arange(d), np.arange(d)]] += -0.5 * prec
    return PolySurface(iset, coef)


# The surrogate's Newton stops at stationarity <= _GRAD_TOL * max(1, |value|),
# or fails after _MAX_ITER steps (a ball's multiplier search: _MAX_SOLVES solves).
_GRAD_TOL = 1e-8
_MAX_ITER = 500
_MAX_SOLVES = 50
# Newton's sufficient-increase constant and the smallest step it backtracks to.
_ARMIJO = 1e-4
_MIN_STEP = 1e-12
# Within this many ulps of |f| the value is rounding: a step whose predicted
# increase is this small is judged by the gradient, and may lower f this much.
_ROUNDING_ULPS = 16


def _newton(derivs, theta: np.ndarray, tol, max_iter: int):
    """Maximize the surface ``derivs`` (``derivs(theta, order)`` returns
    ``[value, gradient, Hessian][: order + 1]``, as :meth:`PolySurface.derivs`)
    from ``theta`` by damped Newton iteration.

    Each step solves with the Cholesky factor of ``-H`` (its ``LinAlgError``
    reaches the caller) and is halved until the Armijo condition holds
    (Nocedal & Wright, *Numerical Optimization*, ch. 3).  Near the optimum the
    predicted increase ``g . step`` can fall below the rounding of ``f``,
    where Armijo can no longer tell a better point from a worse one: when it
    is within ``_ROUNDING_ULPS`` ulps of ``|f|``, the full step is also taken
    if it lowers the gradient norm and lowers ``f`` by at most that rounding
    (the idea of Hager & Zhang's approximate Wolfe conditions, SIAM J. Optim.
    16, 2005).  A trial point is read at order 0 (order 1 for that test), an
    accepted one at order 2.  Returns the point and the Hessian there once
    the gradient norm is at most ``tol(value)``; after ``max_iter`` steps
    raises :class:`ConvergenceError` with the trace ``(step, value, gradient
    norm)``, whose message counts the steps taken at the rounding floor.
    """
    f, g, H = derivs(theta, 2)
    trace, floor_steps = [], 0
    for it in range(max_iter):
        grad_norm = float(np.linalg.norm(g))
        trace.append((it, f, grad_norm))
        if grad_norm <= tol(f):
            return theta, H
        step = linalg.cho_solve((linalg.cholesky(-H, lower=True), True), g)
        g_dot_step = float(g @ step)
        rounding = _ROUNDING_ULPS * np.spacing(abs(f))
        alpha = 1.0
        while alpha > _MIN_STEP:
            candidate = theta + alpha * step
            (f_candidate,) = derivs(candidate, 0)
            if f_candidate >= f + _ARMIJO * alpha * g_dot_step:
                break
            if alpha == 1.0 and g_dot_step <= rounding and f_candidate >= f - rounding:
                if np.linalg.norm(derivs(candidate, 1)[1]) < grad_norm:
                    floor_steps += 1
                    break
            alpha *= 0.5
        theta = candidate
        f, g, H = derivs(theta, 2)
    raise ConvergenceError(
        f"Newton did not reach its tolerance in {max_iter} iterations "
        f"({floor_steps} taken at the rounding floor of f)",
        trace=trace,
    )


def _ball_mode(surface: PolySurface, theta: np.ndarray, radius: float):
    """The maximizer ``theta`` of ``surface`` over ``|theta| <= radius``, the
    surface's Hessian there and the ball's multiplier, 0.0 for a free mode
    inside the ball.  Otherwise safeguarded Newton steps on ``1/|theta| -
    1/radius`` (slope ``-theta' H^-1 theta / |theta|^3 > 0`` for the penalized
    ``H``; Moré & Sorensen, SIAM J. Sci. Stat. Comput. 4, 1983) move ``lam``
    until the mode of ``surface - lam |theta|^2 / 2``, scaled onto the
    sphere, meets ``_GRAD_TOL`` in ``| |theta| - radius |`` and in the
    residual ``|grad - multiplier * theta|``, the multiplier read there as
    ``max(0, grad . theta) / radius^2``.  The residual bounds the projected
    gradient ``|P(theta + grad) - theta|`` (the projection is nonexpansive)."""
    tol = lambda f: _GRAD_TOL * max(1.0, abs(f))
    theta, H = _newton(surface.derivs, theta, tol, _MAX_ITER)
    lam, lo, hi = 0.0, 0.0, math.inf

    def penalized(t, order):  # surface - lam |t|^2 / 2, at the current lam
        penalty = (0.5 * lam * float(t @ t), lam * t, lam * np.eye(t.size))
        return [a - b for a, b in zip(surface.derivs(t, order), penalty)]

    for _ in range(_MAX_SOLVES):
        norm = float(np.linalg.norm(theta))
        if norm <= radius and lam == 0.0:
            return theta, H, lam
        on_sphere = theta * (radius / norm)
        f, grad, hess = surface.derivs(on_sphere, 2)
        multiplier = max(0.0, float(grad @ on_sphere)) / radius**2
        residual = np.linalg.norm(grad - multiplier * on_sphere)
        if max(abs(norm - radius), residual) <= tol(f):
            return on_sphere, hess, multiplier
        lo, hi = (lam, hi) if norm > radius else (lo, lam)
        h_inv_theta = linalg.cho_solve((linalg.cholesky(-H, lower=True), True), theta)
        lam += (1.0 / radius - 1.0 / norm) * norm**3 / float(theta @ h_inv_theta)
        if not lo < lam < hi:  # bisect the bracket
            lam = 0.5 * (lo + hi)
        theta, H = _newton(penalized, theta, tol, _MAX_ITER)
    raise ConvergenceError(f"the multiplier of radius {radius} is not found in {_MAX_SOLVES} solves")


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
    over the ball of ``domain_radius`` when given (:func:`_ball_mode`; with
    ``|x| <= 1`` it keeps every inner product inside ``[-radius, radius]``),
    and fits a Gaussian with the surrogate's own Hessian at the mode.
    """
    if domain_radius is not None and not (math.isfinite(domain_radius) and domain_radius > 0):
        raise InvalidInputError(f"domain radius must be > 0, got {domain_radius}")
    surface = _surrogate_posterior_surface(stats, approx, prior)
    if stats.mapping.name == "poisson":
        _check_poisson_convexity(_approxes(stats, approx)[1])
    try:
        theta, H, lam = _ball_mode(surface, prior.mean_vector(stats.index_set.d), domain_radius or math.inf)
        laplace = _gaussian_at(theta.copy(), -H)  # its Cholesky is the concavity verdict at the mode
    except (linalg.LinAlgError, NotPositiveDefiniteError):
        _raise_nonconcave(stats)
    return SurrogatePosterior(
        surface=surface,
        map_estimate=theta,
        laplace=laplace,
        domain_radius=domain_radius,
        multiplier=lam,
    )


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

    @property
    def premises_ok(self) -> bool:
        return all(self.premises.values())


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
    the exact MAP.  The range premise is read on the approximated term, as
    ``inner_product_histogram`` reads it.  Premise failures are flagged,
    never fatal.
    """
    exact_map = np.asarray(exact_map, dtype=float)
    mapping = stats.mapping
    y, X = _records(mapping, data)
    s = X @ exact_map

    _, in_range = _term_range(mapping, y, s, stats.radius)
    eps_n = 0.0
    n = len(y)
    for term, term_approx in zip(mapping.terms, _approxes(stats, approx)):
        arg = _term_args(term, y, s)
        if term.exact_degree is not None and term.exact_degree <= stats.index_set.M:
            continue
        span = max(float(np.max(np.abs(arg))), 1e-12)
        grid = np.linspace(-span, span, 20_001)
        err = float(np.max(np.abs(term.phi(grid) - eval_poly(term_approx, grid))))
        weight = float(np.max(np.abs(y) ** term.y_power))
        eps_n += n * weight * err

    hess = log_likelihood_hess(mapping, exact_map, (y, X))
    neg_log_post_hess = -hess + np.diag(prior.precision_diag(exact_map.size))
    rho_n = float(np.min(np.linalg.eigvalsh(neg_log_post_hess)))

    if stats.mapping.raw_monomial and stats.index_set.M == 2:
        surrogate_map = posterior_lr2(stats, approx, prior).mean
    else:
        surrogate_map = posterior_general(stats, approx, prior).map_estimate

    measured = float(np.sum((exact_map - surrogate_map) ** 2))
    bound = math.inf if rho_n <= 0 else 4.0 * eps_n / rho_n
    premises = {
        "inner_products_in_range": in_range >= _IN_RANGE_THRESHOLD,
        "posterior_strongly_log_concave_at_map": rho_n > 0,
    }
    return MapCertificate(
        eps_n=eps_n,
        rho_n=rho_n,
        bound=bound,
        measured_sq=measured,
        in_range_fraction=in_range,
        premises=premises,
    )
