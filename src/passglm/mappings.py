"""GLM mapping functions, their term decompositions and the model registry.

Every supported GLM writes its per-record log-likelihood as a sum of terms

    y**y_power * phi(y**y_in_arg_power * (x . theta) - y_offset * y)

plus an optional parameter-free base term in ``y`` alone.  This is the shape
that lets an order-``M`` polynomial approximation of each ``phi`` turn the
log-likelihood into an inner product between monomial statistics of the data
and monomials of the parameter.

This module is the one place that knows which models exist.  Each factory in
:data:`MAPPING_FACTORIES` returns a :class:`MappingSpec` carrying every
per-model fact: its terms, each term's analytic error bound (``Term.bound``),
its label convention, its PGLM v1 file id (``model_id``) and its label
sampler (``sample``).  The file format, the synthetic generators, the sharded
path and the command line all read these fields, so a new model is one
factory with a fresh ``model_id``.

The exact log-likelihood and its derivatives in the linear predictor
``x . theta`` are evaluated in one place, ``_loglik_derivs``.  The public
reductions below, the exact baselines, the held-out metrics and the MAP error
certificate all call it, so no other module knows the term shape.  They read
records through ``_records``: the whole source in memory, its labels mapped.

A mapping with ``raw_monomial`` set (the logistic one) is special-cased
throughout the package: since its label enters only through ``y * x`` and
``y**2 = 1``, the statistics can be stored as raw monomial sums with the
polynomial coefficients applied later.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy import special

from .chebyshev import (
    BoundReport,
    PolyApprox,
    fit_chebyshev,
    sup_bound_exp,
    sup_bound_logit,
    sup_bound_shuber,
)
from .errors import InvalidInputError, NumericError

__all__ = [
    "Term",
    "MappingSpec",
    "mapping_logit",
    "mapping_poisson",
    "mapping_shuber",
    "mapping_cauchy",
    "mapping_gamma",
    "mapping_probit",
    "get_mapping",
    "MAPPING_FACTORIES",
    "fit_terms",
    "log_likelihood",
    "log_likelihood_grad",
    "log_likelihood_hess",
    "degree_weights",
]

_PROBE_GRID = np.linspace(-15.0, 15.0, 61)


def _no_bound(R: float, M: int) -> None:
    return None


@dataclass(frozen=True)
class Term:
    """One additive component of a GLM log-likelihood.

    ``y_power`` and ``y_in_arg_power`` are restricted to {0, 1}; ``y_offset``
    is the coefficient of the ``y`` shift inside the argument.  ``bound(R, M)``
    is the analytic sup-error bound of the degree-``M`` Chebyshev fit of
    ``phi`` on ``[-R, R]``, or ``None`` where no ellipse bound is known.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    d2phi: Callable[[np.ndarray], np.ndarray]
    y_power: int = 0
    y_in_arg_power: int = 0
    y_offset: float = 0.0
    exact_degree: int | None = None  # set when phi is itself a polynomial
    bound: Callable[[float, int], BoundReport | None] = _no_bound

    def __post_init__(self):
        if self.y_power not in (0, 1) or self.y_in_arg_power not in (0, 1):
            raise InvalidInputError("y exponents are restricted to {0, 1}")
        try:
            with np.errstate(all="ignore"):
                self._probe()
        except ArithmeticError as exc:  # e.g. a Python-float scale squared past the range
            raise InvalidInputError(f"term function fails on the probe grid: {exc}") from None

    def _probe(self) -> None:
        for f in (self.phi, self.dphi, self.d2phi):
            if not np.all(np.isfinite(f(_PROBE_GRID))):
                raise InvalidInputError("term function is not finite on the probe grid")
        # cheap smoothness probe: each derivative must match central
        # differences of the function below it
        h = 1e-5
        pairs = (("phi", self.phi, "dphi", self.dphi), ("dphi", self.dphi, "d2phi", self.d2phi))
        for f_name, f, df_name, df in pairs:
            fd = (f(_PROBE_GRID + h) - f(_PROBE_GRID - h)) / (2 * h)
            scale = np.maximum(1.0, np.abs(fd))
            if np.max(np.abs(fd - df(_PROBE_GRID)) / scale) > 1e-4:
                raise InvalidInputError(f"{df_name} does not match finite differences of {f_name}")


@dataclass(frozen=True)
class MappingSpec:
    """A GLM mapping function and its term decomposition.

    ``model_id`` is the PGLM v1 file id of a registered model (``None`` for a
    custom mapping, which can be neither stored nor sharded); ``sample(rng,
    s)`` draws one label per linear predictor in ``s``.
    """

    name: str
    terms: tuple[Term, ...]
    log_base: Callable[[np.ndarray], np.ndarray] | None = None
    label_mode: str | None = None  # "pm1", "01" or None
    y_domain: str | None = None  # "nonnegative", "positive" or None (any finite label)
    scale: float | None = None
    raw_monomial: bool = False
    model_id: int | None = None
    sample: Callable[[np.random.Generator, np.ndarray], np.ndarray] | None = None

    def canonicalize_y(self, y: np.ndarray, first_record: int = 0) -> np.ndarray:
        """Map labels to the convention the mapping expects.

        A label outside the model's domain raises an error naming its record,
        counted from ``first_record``.
        """
        y = np.asarray(y, dtype=float)
        if self.label_mode is not None:
            return _binary_labels(y, self.label_mode, first_record)
        if self.y_domain == "nonnegative":
            return _checked_labels(y, first_record, y >= 0, f"{self.name} labels must be >= 0")
        if self.y_domain == "positive":
            return _checked_labels(y, first_record, y > 0, f"{self.name} labels must be > 0")
        return _checked_labels(y, first_record)


def _checked_labels(y, first_record: int, ok=True, rule: str = "") -> np.ndarray:
    """``y`` as floats once every label is finite and ``ok`` holds for it;
    else the first bad label raises naming its record, counted from
    ``first_record``: :class:`NumericError` if not finite, else
    :class:`InvalidInputError` with ``rule``."""
    y = np.asarray(y, dtype=float)
    good = np.isfinite(y) & ok
    if not good.all():
        i = int(np.argmin(good))
        record = first_record + i
        if not np.isfinite(y[i]):
            raise NumericError(f"non-finite label at record {record}", record_index=record)
        raise InvalidInputError(f"{rule}; record {record} has label {y[i]:g}")
    return y


def _binary_labels(y, label_mode: str, first_record: int = 0) -> np.ndarray:
    """Labels in {-1, 0, +1} in ``label_mode``: +1 stays 1, and -1 and 0
    become -1 (``"pm1"``) or 0 (``"01"``); any other label raises
    (:func:`_checked_labels`)."""
    ok = np.isin(y, (-1.0, 0.0, 1.0))
    y = _checked_labels(y, first_record, ok, "binary labels must be in {-1, 0, +1}")
    return np.where(y > 0, 1.0, -1.0 if label_mode == "pm1" else 0.0)


def _sigmoid(s):
    return special.expit(s)


def mapping_logit() -> MappingSpec:
    """Logistic regression with labels in {-1, +1}."""
    return MappingSpec(
        name="logit",
        terms=(
            Term(
                phi=lambda s: -np.logaddexp(0.0, -s),
                dphi=lambda s: _sigmoid(-s),
                d2phi=lambda s: -_sigmoid(s) * _sigmoid(-s),
                y_power=0,
                y_in_arg_power=1,
                y_offset=0.0,
                bound=sup_bound_logit,
            ),
        ),
        label_mode="pm1",
        raw_monomial=True,
        model_id=1,
        sample=lambda rng, s: np.where(rng.random(s.size) < 1.0 / (1.0 + np.exp(-s)), 1.0, -1.0),
    )


def mapping_poisson() -> MappingSpec:
    """Poisson regression with log link; the -log y! term is parameter-free."""
    return MappingSpec(
        name="poisson",
        terms=(
            Term(
                phi=lambda s: np.asarray(s, dtype=float),
                dphi=lambda s: np.ones_like(np.asarray(s, dtype=float)),
                d2phi=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                y_power=1,
                exact_degree=1,
            ),
            Term(
                phi=lambda s: -np.exp(s),
                dphi=lambda s: -np.exp(s),
                d2phi=lambda s: -np.exp(s),
                y_power=0,
                bound=sup_bound_exp,
            ),
        ),
        log_base=lambda y: -special.gammaln(np.asarray(y, dtype=float) + 1.0),
        y_domain="nonnegative",
        model_id=2,
        sample=lambda rng, s: rng.poisson(np.exp(s)).astype(float),
    )


def mapping_shuber(b: float = 1.0) -> MappingSpec:
    """Robust regression with the negative smoothed Huber loss, scale ``b``."""
    if not (b > 0):
        raise InvalidInputError(f"huber scale must be positive, got {b}")

    def phi(v):
        v = np.asarray(v, dtype=float)
        return -(b**2) * (np.sqrt(1.0 + (v / b) ** 2) - 1.0)

    def dphi(v):
        v = np.asarray(v, dtype=float)
        return -v / np.sqrt(1.0 + (v / b) ** 2)

    def d2phi(v):
        v = np.asarray(v, dtype=float)
        return -((1.0 + (v / b) ** 2) ** -1.5)

    return MappingSpec(
        name="shuber",
        terms=(
            Term(
                phi=phi,
                dphi=dphi,
                d2phi=d2phi,
                y_offset=1.0,
                bound=lambda R, M: sup_bound_shuber(R, M, b),
            ),
        ),
        scale=b,
        model_id=3,
        sample=lambda rng, s: s + _sample_smoothed_huber_noise(rng, s.size, b),
    )


def _sample_smoothed_huber_noise(rng: np.random.Generator, n: int, b: float) -> np.ndarray:
    """Rejection sampling from the density proportional to
    exp(-b^2 (sqrt(1 + v^2/b^2) - 1)), using a Laplace envelope."""
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = 2 * (n - filled) + 16
        v = rng.laplace(scale=1.0 / b, size=m)
        log_accept = b * np.abs(v) - b**2 * np.sqrt(1.0 + (v / b) ** 2)
        keep = v[np.log(rng.random(m)) < log_accept]
        take = min(keep.size, n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def mapping_cauchy(b: float = 1.0) -> MappingSpec:
    """Robust regression with the Cauchy likelihood.  Not log-concave; the
    posterior-quality guarantees of the rest of the package do not apply."""
    if not (b > 0):
        raise InvalidInputError(f"cauchy scale must be positive, got {b}")

    def phi(v):
        v = np.asarray(v, dtype=float)
        return -np.log1p((v / b) ** 2)

    def dphi(v):
        v = np.asarray(v, dtype=float)
        return -2.0 * v / (b**2 + v**2)

    def d2phi(v):
        v = np.asarray(v, dtype=float)
        return -2.0 * (b**2 - v**2) / (b**2 + v**2) ** 2

    return MappingSpec(
        name="cauchy",
        terms=(Term(phi=phi, dphi=dphi, d2phi=d2phi, y_offset=1.0),),
        scale=b,
        model_id=4,
        sample=lambda rng, s: s + b * rng.standard_cauchy(s.size),
    )


def mapping_gamma(nu: float = 1.0) -> MappingSpec:
    """Gamma regression with log link and shape ``nu``."""
    if not (nu > 0):
        raise InvalidInputError(f"gamma shape must be positive, got {nu}")

    def log_base(y):
        y = np.asarray(y, dtype=float)
        return nu * math.log(nu) + (nu - 1.0) * np.log(y) - special.gammaln(nu)

    def bound(R, M):
        rep = sup_bound_exp(R, M)
        return BoundReport(
            r=rep.r, C=nu * rep.C, sup_bound=nu * rep.sup_bound, deriv_bound=nu * rep.deriv_bound
        )

    return MappingSpec(
        name="gamma",
        terms=(
            Term(
                phi=lambda s: -nu * np.asarray(s, dtype=float),
                dphi=lambda s: np.full_like(np.asarray(s, dtype=float), -nu),
                d2phi=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                y_power=0,
                exact_degree=1,
            ),
            Term(
                phi=lambda s: -nu * np.exp(-np.asarray(s, dtype=float)),
                dphi=lambda s: nu * np.exp(-np.asarray(s, dtype=float)),
                d2phi=lambda s: -nu * np.exp(-np.asarray(s, dtype=float)),
                y_power=1,
                bound=bound,
            ),
        ),
        log_base=log_base,
        y_domain="positive",
        scale=nu,
        model_id=5,
        sample=lambda rng, s: rng.gamma(shape=nu, scale=np.exp(s) / nu),
    )


def _mills(s):
    # n(s) / Phi(-s), computed in log space
    s = np.asarray(s, dtype=float)
    logpdf = -0.5 * s**2 - 0.5 * math.log(2 * math.pi)
    return np.exp(logpdf - special.log_ndtr(-s))


def mapping_probit() -> MappingSpec:
    """Probit regression with labels in {0, 1}."""

    def phi1(s):
        return special.log_ndtr(-np.asarray(s, dtype=float))

    def dphi1(s):
        return -_mills(s)

    def d2phi1(s):
        h = _mills(s)
        return np.asarray(s, dtype=float) * h - h**2

    def phi2(s):
        s = np.asarray(s, dtype=float)
        return special.log_ndtr(s) - special.log_ndtr(-s)

    def dphi2(s):
        return _mills(-np.asarray(s, dtype=float)) + _mills(s)

    def d2phi2(s):
        s = np.asarray(s, dtype=float)
        g = _mills(-s)
        h = _mills(s)
        return (-s * g - g**2) + (h**2 - s * h)

    return MappingSpec(
        name="probit",
        terms=(
            Term(phi=phi1, dphi=dphi1, d2phi=d2phi1, y_power=0),
            Term(phi=phi2, dphi=dphi2, d2phi=d2phi2, y_power=1),
        ),
        label_mode="01",
        model_id=6,
        sample=lambda rng, s: (rng.random(s.size) < special.ndtr(s)).astype(float),
    )


MAPPING_FACTORIES: dict[str, Callable[..., MappingSpec]] = {
    "logit": mapping_logit,
    "poisson": mapping_poisson,
    "shuber": mapping_shuber,
    "cauchy": mapping_cauchy,
    "gamma": mapping_gamma,
    "probit": mapping_probit,
}


def get_mapping(name: str, scale: float | None = None) -> MappingSpec:
    """Look up a mapping by name, passing ``scale`` where its factory takes one."""
    try:
        factory = MAPPING_FACTORIES[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown model {name!r}; choose from {sorted(MAPPING_FACTORIES)}"
        ) from None
    if scale is None or not inspect.signature(factory).parameters:
        return factory()
    return factory(scale)


def fit_terms(spec: MappingSpec, M: int, R: float) -> tuple[PolyApprox, ...]:
    """Fit the order-``M`` Chebyshev approximation of every term of ``spec``."""
    return tuple(fit_chebyshev(t.phi, M, R) for t in spec.terms)


# --- batch forms --------------------------------------------------------------


def _csr_is_smaller(nnz: int, cells: int) -> bool:
    """Whether ``nnz`` nonzeros take less memory in CSR, at 16 B each (value
    and column index), than ``cells`` dense float64 cells at 8 B each."""
    return 2 * nnz < cells


def _dense(X):
    """A covariate batch as a dense array: a sparse batch densified."""
    return X.toarray() if sp.issparse(X) else X


# --- exact likelihood: the one place terms are evaluated --------------------


def _records(spec: MappingSpec, data) -> tuple[np.ndarray, np.ndarray]:
    """All of a record source, a stream or a ``(y, X)`` pair, as dense
    ``(y, X)`` with the labels mapped to ``spec``'s convention; a label
    outside its domain raises, naming its record."""
    y, X = data.materialize() if hasattr(data, "materialize") else (data[0], _dense(data[1]))
    return spec.canonicalize_y(y), X


def _term_args(term: Term, y: np.ndarray, s: np.ndarray) -> np.ndarray:
    arg = s if term.y_in_arg_power == 0 else y * s
    if term.y_offset:
        arg = arg - term.y_offset * y
    return arg


def _approximated_term(spec: MappingSpec) -> Term:
    """The first term of ``spec`` that a polynomial does not represent
    exactly (the first term when every one is a polynomial)."""
    return next((t for t in spec.terms if t.exact_degree is None), spec.terms[0])


def _loglik_derivs(
    spec: MappingSpec, y: np.ndarray, s: np.ndarray, order: int = 0, lowest: int = 0
) -> list:
    """Per-record log-likelihood and its first ``order`` derivatives in ``s``.

    ``s`` is the linear predictor ``X @ theta``.  Entry ``k`` of the result is
    the ``k``-th derivative summed over the terms; entry 0 includes
    ``log_base``.  By the chain rule each derivative of a term brings one
    factor ``y**y_in_arg_power``, on top of the term's ``y**y_power``.
    Entries below ``lowest`` are not evaluated and stay 0.0.
    """
    out = [0.0] * (order + 1)
    for term in spec.terms:
        arg = _term_args(term, y, s)
        for k in range(lowest, order + 1):
            v = (term.phi, term.dphi, term.d2phi)[k](arg)
            for _ in range(k * term.y_in_arg_power + term.y_power):
                v = v * y
            out[k] = out[k] + v
    if spec.log_base is not None and lowest == 0:
        out[0] = out[0] + spec.log_base(y)
    return out


def _check_finite(vals: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = int(np.argmax(bad))
        raise NumericError(f"non-finite {what} contribution at record {idx}", record_index=idx)


def batch_log_likelihood(spec: MappingSpec, theta: np.ndarray, y: np.ndarray, X) -> np.ndarray:
    """Per-record exact log-likelihood values for one batch."""
    return _loglik_derivs(spec, y, X @ theta)[0]


def log_likelihood(spec: MappingSpec, theta: np.ndarray, data) -> float:
    """Exact data log-likelihood, summed over a record source.

    ``data`` is a stream or a ``(y, X)`` pair, held in memory whole; labels
    are mapped to the model's convention and checked (``_records``).  Raises
    :class:`NumericError` naming the first offending record when a non-finite
    contribution appears.
    """
    y, X = _records(spec, data)
    vals = _loglik_derivs(spec, y, X @ np.asarray(theta, dtype=float))[0]
    _check_finite(vals, "log-likelihood")
    return float(vals.sum())


def log_likelihood_grad(spec: MappingSpec, theta: np.ndarray, data) -> np.ndarray:
    """Analytic gradient of the exact log-likelihood; ``data`` as for :func:`log_likelihood`."""
    y, X = _records(spec, data)
    w = _loglik_derivs(spec, y, X @ np.asarray(theta, dtype=float), 1, lowest=1)[1]
    _check_finite(w, "gradient")
    return X.T @ w


def log_likelihood_hess(spec: MappingSpec, theta: np.ndarray, data) -> np.ndarray:
    """Analytic dense Hessian of the exact log-likelihood; ``data`` as for :func:`log_likelihood`."""
    y, X = _records(spec, data)
    w = _loglik_derivs(spec, y, X @ np.asarray(theta, dtype=float), 2, lowest=2)[2]
    _check_finite(w, "Hessian")
    return X.T @ (w[:, None] * X)


# --- polynomial coefficient machinery --------------------------------------


def degree_weights(
    spec: MappingSpec, approxes: tuple[PolyApprox, ...], y: np.ndarray
) -> np.ndarray:
    """Total per-record coefficient for each total degree, summed over terms.

    Returns an array of shape ``(len(y), M + 1)`` whose column ``kbar`` is the
    multi-index coefficient shared by every index of that degree, excluding
    the multinomial factor.
    """
    y = np.asarray(y, dtype=float)
    M = approxes[0].M
    out = np.zeros((y.size, M + 1))
    for term, approx in zip(spec.terms, approxes):
        b = approx.b
        shift = -term.y_offset * y if term.y_offset else None
        for kbar in range(M + 1):
            acc = np.full(y.size, b[kbar])
            if shift is not None:
                powv = np.ones_like(y)
                acc = b[kbar] * powv
                for m in range(kbar + 1, M + 1):
                    powv = powv * shift
                    acc = acc + b[m] * math.comb(m, kbar) * powv
            ypow = term.y_power + kbar * term.y_in_arg_power
            out[:, kbar] += acc if ypow == 0 else acc * y**ypow
    return out
