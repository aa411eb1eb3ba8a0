import dataclasses
import math

import numpy as np
import pytest

from passglm.chebyshev import sup_bound_exp, sup_bound_logit, sup_bound_shuber
from passglm.errors import InvalidInputError, NumericError
from passglm.mappings import (
    MAPPING_FACTORIES,
    Term,
    _loglik_derivs,
    _mills,
    degree_weights,
    fit_terms,
    get_mapping,
    log_likelihood,
    log_likelihood_grad,
    log_likelihood_hess,
    mapping_cauchy,
    mapping_gamma,
    mapping_logit,
    mapping_poisson,
    mapping_probit,
    mapping_shuber,
)


def random_instance(rng, d=3, n=40):
    X = rng.uniform(-0.5, 0.5, (n, d))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return y, X


# (factory, label kind) for every registered model
MODEL_CASES = [
    (mapping_logit, "pm1"),
    (mapping_poisson, "count"),
    (lambda: mapping_shuber(1.5), "real"),
    (lambda: mapping_gamma(2.0), "positive"),
    (mapping_probit, "01"),
    (lambda: mapping_cauchy(1.0), "real"),
]


def model_instance(rng, label_kind, d, n):
    """Covariates, labels of the given kind and a parameter, drawn in that order."""
    X = rng.uniform(-0.4, 0.4, (n, d))
    if label_kind == "pm1":
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    elif label_kind == "01":
        y = (rng.random(n) < 0.5).astype(float)
    elif label_kind == "count":
        y = rng.poisson(1.0, n).astype(float)
    elif label_kind == "positive":
        y = rng.gamma(2.0, 1.0, n)
    else:
        y = rng.normal(0, 1, n)
    return y, X, rng.normal(0, 0.5, d)


class TestFactories:
    def test_logit_decomposition(self):
        spec = mapping_logit()
        assert len(spec.terms) == 1
        t = spec.terms[0]
        assert (t.y_power, t.y_in_arg_power, t.y_offset) == (0, 1, 0.0)
        assert spec.raw_monomial

    def test_poisson_decomposition(self):
        spec = mapping_poisson()
        assert len(spec.terms) == 2
        assert spec.terms[0].y_power == 1
        assert spec.terms[0].phi(np.array([2.5]))[0] == pytest.approx(2.5)
        assert spec.terms[1].y_power == 0
        assert spec.terms[1].phi(np.array([0.0]))[0] == pytest.approx(-1.0)
        # the -log y! piece is parameter-free and lives outside the terms
        assert spec.log_base(np.array([2.0]))[0] == pytest.approx(-math.log(2.0))

    def test_shuber_small_argument_quadratic(self):
        spec = mapping_shuber(1.0)
        phi = spec.terms[0].phi
        assert phi(np.array([0.0]))[0] == 0.0
        for s in (1e-3, -2e-3):
            assert phi(np.array([s]))[0] == pytest.approx(-0.5 * s * s, rel=1e-5)

    def test_scale_validation(self):
        for factory in (mapping_shuber, mapping_cauchy, mapping_gamma):
            with pytest.raises(InvalidInputError):
                factory(0.0)
            with pytest.raises(InvalidInputError):
                factory(-1.0)

    def test_inconsistent_second_derivative_is_rejected(self):
        with pytest.raises(InvalidInputError, match="d2phi does not match"):
            Term(phi=np.sin, dphi=np.cos, d2phi=np.sin)

        def d2phi_sign_flipped(s):
            # the probit phi_2 curvature with its second half negated
            g, h = _mills(-s), _mills(s)
            return (-s * g - g**2) + (s * h - h**2)

        probit2 = mapping_probit().terms[1]
        with pytest.raises(InvalidInputError, match="d2phi does not match"):
            Term(phi=probit2.phi, dphi=probit2.dphi, d2phi=d2phi_sign_flipped, y_power=1)

    def test_get_mapping_round_trip(self):
        assert get_mapping("logit").name == "logit"
        assert get_mapping("shuber", 2.0).scale == 2.0
        with pytest.raises(InvalidInputError):
            get_mapping("binomial")

    def test_get_mapping_passes_scale_only_where_the_factory_takes_one(self):
        assert get_mapping("logit", 2.0).scale is None
        assert get_mapping("probit", 2.0).scale is None
        for name in ("shuber", "cauchy", "gamma"):
            assert get_mapping(name, 2.0).scale == 2.0
            assert get_mapping(name).scale == 1.0

    def test_registry_facts(self):
        ids = {name: factory().model_id for name, factory in MAPPING_FACTORIES.items()}
        assert ids == {"logit": 1, "poisson": 2, "shuber": 3, "cauchy": 4, "gamma": 5, "probit": 6}
        for name, factory in MAPPING_FACTORIES.items():
            spec = factory()
            assert spec.name == name
            assert callable(spec.sample)
            assert any(t.exact_degree is None for t in spec.terms)

    def test_term_bounds(self):
        R, M = 3.0, 6
        exp = sup_bound_exp(R, M)
        assert mapping_logit().terms[0].bound(R, M) == sup_bound_logit(R, M)
        assert mapping_shuber(2.0).terms[0].bound(R, M) == sup_bound_shuber(R, M, 2.0)
        poisson = mapping_poisson()
        assert poisson.terms[0].bound(R, M) is None  # the exact linear term
        assert poisson.terms[1].bound(R, M) == exp
        gamma = mapping_gamma(2.0)
        assert gamma.terms[0].bound(R, M) is None
        scaled = gamma.terms[1].bound(R, M)
        assert scaled.r == exp.r
        assert (scaled.C, scaled.sup_bound, scaled.deriv_bound) == (
            2.0 * exp.C, 2.0 * exp.sup_bound, 2.0 * exp.deriv_bound
        )
        for spec in (mapping_probit(), mapping_cauchy(2.0)):
            assert all(t.bound(R, M) is None for t in spec.terms)

    def test_label_canonicalization(self):
        logit = mapping_logit()
        np.testing.assert_array_equal(
            logit.canonicalize_y(np.array([0.0, 1.0, -1.0])), [-1.0, 1.0, -1.0]
        )
        probit = mapping_probit()
        np.testing.assert_array_equal(
            probit.canonicalize_y(np.array([0.0, 1.0, -1.0])), [0.0, 1.0, 0.0]
        )
        with pytest.raises(InvalidInputError):
            logit.canonicalize_y(np.array([2.0]))


class TestLogLikelihood:
    def test_logit_at_zero_is_n_log_half(self):
        rng = np.random.default_rng(0)
        y, X = random_instance(rng, d=4, n=100)
        value = log_likelihood(mapping_logit(), np.zeros(4), (y, X))
        assert value == pytest.approx(100 * math.log(0.5))

    def test_poisson_single_record(self):
        spec = mapping_poisson()
        y = np.array([2.0])
        X = np.array([[0.3, -0.2]])
        value = log_likelihood(spec, np.zeros(2), (y, X))
        assert value == pytest.approx(2 * 0.0 - 1.0 - math.log(2.0))

    def test_matches_naive_oracle(self):
        # independently coded per-record summation
        rng = np.random.default_rng(1)
        y, X = random_instance(rng, d=3, n=25)
        theta = rng.normal(size=3)

        def oracle(y, X, theta):
            total = 0.0
            for i in range(len(y)):
                s = float(X[i] @ theta)
                total += -math.log1p(math.exp(-y[i] * s))
            return total

        value = log_likelihood(mapping_logit(), theta, (y, X))
        assert value == pytest.approx(oracle(y, X, theta), abs=1e-12 * abs(value))

    def test_nonfinite_record_is_reported(self):
        spec = mapping_gamma(1.0)
        y = np.array([1.0, -3.0])  # negative outcome breaks log y
        X = np.array([[0.1], [0.2]])
        with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
            log_likelihood(spec, np.zeros(1), (y, X))
        assert err.value.record_index == 1


class TestGradients:
    def test_logit_gradient_at_zero(self):
        rng = np.random.default_rng(2)
        y, X = random_instance(rng, d=5, n=60)
        grad = log_likelihood_grad(mapping_logit(), np.zeros(5), (y, X))
        np.testing.assert_allclose(grad, 0.5 * (y[:, None] * X).sum(axis=0), rtol=1e-12)

    def test_single_record_logistic_gradient(self):
        spec = mapping_logit()
        for t in (-1.5, 0.0, 2.0):
            grad = log_likelihood_grad(spec, np.array([t]), (np.array([1.0]), np.array([[1.0]])))
            assert grad[0] == pytest.approx(1.0 / (1.0 + math.exp(t)))

    @pytest.mark.parametrize("spec_factory,label_kind", MODEL_CASES)
    def test_gradient_matches_finite_differences(self, spec_factory, label_kind):
        rng = np.random.default_rng(5)
        spec = spec_factory()
        d = 3
        y, X, theta = model_instance(rng, label_kind, d, 30)
        grad = log_likelihood_grad(spec, theta, (y, X))
        h = 1e-6
        fd = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[j] = (
                log_likelihood(spec, theta + e, (y, X))
                - log_likelihood(spec, theta - e, (y, X))
            ) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("spec_factory,label_kind", MODEL_CASES)
    def test_hessian_matches_finite_differences(self, spec_factory, label_kind):
        rng = np.random.default_rng(8)
        spec = spec_factory()
        d = 3
        y, X, theta = model_instance(rng, label_kind, d, 40)
        hess = log_likelihood_hess(spec, theta, (y, X))
        h = 1e-5
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (
                log_likelihood_grad(spec, theta + e, (y, X))
                - log_likelihood_grad(spec, theta - e, (y, X))
            ) / (2 * h)
            np.testing.assert_allclose(hess[:, j], fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("spec_factory,label_kind", MODEL_CASES)
    @pytest.mark.parametrize("lowest", [1, 2])
    def test_derivatives_from_lowest_equal_the_full_evaluation(self, spec_factory, label_kind, lowest):
        rng = np.random.default_rng(9)
        spec = spec_factory()
        y, X, theta = model_instance(rng, label_kind, 3, 25)
        full = _loglik_derivs(spec, y, X @ theta, 2)
        calls = []  # phi and log_base, which only order 0 needs

        def spy(f):
            return lambda v: calls.append(f) or f(v)

        terms = tuple(dataclasses.replace(t, phi=spy(t.phi)) for t in spec.terms)
        log_base = None if spec.log_base is None else spy(spec.log_base)
        spec = dataclasses.replace(spec, terms=terms, log_base=log_base)
        calls.clear()  # the terms' own checks evaluate phi
        part = _loglik_derivs(spec, y, X @ theta, 2, lowest=lowest)
        assert calls == []
        for k in range(3):
            if k < lowest:
                assert part[k] == 0.0
            else:
                np.testing.assert_array_equal(part[k], full[k])


class TestCurvatureConstants:
    def test_logit_second_derivative_range(self):
        spec = mapping_logit()
        s = np.linspace(-30, 30, 20001)
        d2 = spec.terms[0].d2phi(s)
        assert np.all(d2 < 0)
        assert np.all(d2 >= -0.25)
        assert d2.min() == pytest.approx(-0.25, abs=1e-9)

    def test_logit_third_derivative_max(self):
        # max |phi'''| = 1 / (6 sqrt(3)), checked by finite differences
        spec = mapping_logit()
        s = np.linspace(-10, 10, 200001)
        h = 1e-4
        d3 = (spec.terms[0].d2phi(s + h) - spec.terms[0].d2phi(s - h)) / (2 * h)
        assert np.max(np.abs(d3)) == pytest.approx(1.0 / (6 * math.sqrt(3)), abs=1e-9)


def y_coefficient(term, b: np.ndarray, multinom: float, kbar: int, y) -> np.ndarray:
    """Per-observation statistic coefficient for one term and one multi-index,
    the direct sum that ``degree_weights`` vectorizes.

    For a multi-index of total degree ``kbar`` with multinomial coefficient
    ``multinom``, returns

        y**(y_power + kbar * y_in_arg_power) * multinom *
            sum_{m=kbar}^{M} b[m] * binom(m, kbar) * (-y_offset * y)**(m - kbar)

    which multiplies ``x**k`` in the statistic update.
    """
    y = np.asarray(y, dtype=float)
    M = len(b) - 1
    acc = np.zeros_like(y)
    for m in range(kbar, M + 1):
        acc += b[m] * math.comb(m, kbar) * (-term.y_offset * y) ** (m - kbar)
    return y ** (term.y_power + kbar * term.y_in_arg_power) * multinom * acc


class TestYCoefficient:
    def test_logistic_specialization(self):
        spec = mapping_logit()
        (approx,) = fit_terms(spec, 4, 4.0)
        term = spec.terms[0]
        for kbar in range(5):
            for y in (-1.0, 1.0):
                got = y_coefficient(term, approx.b, 3.0, kbar, np.array([y]))[0]
                assert got == pytest.approx(y**kbar * 3.0 * approx.b[kbar], rel=1e-12)

    def test_degree_weights_match_y_coefficient(self):
        spec = mapping_shuber(1.0)
        approxes = fit_terms(spec, 4, 2.0)
        y = np.array([-1.3, 0.4, 2.2])
        weights = degree_weights(spec, approxes, y)
        term = spec.terms[0]
        for kbar in range(5):
            expected = y_coefficient(term, approxes[0].b, 1.0, kbar, y)
            np.testing.assert_allclose(weights[:, kbar], expected, rtol=1e-12)

    def test_general_form_matches_direct_specialization(self):
        # assembling the logistic surrogate via the general y-coefficient
        # machinery must match the (y x)^k specialization
        rng = np.random.default_rng(11)
        spec = mapping_logit()
        M, R = 2, 4.0
        (approx,) = fit_terms(spec, M, R)
        y, X = random_instance(rng, d=3, n=20)
        theta = rng.normal(0, 0.7, 3)
        s = X @ theta

        # route 1: sum_m b_m (y s)^m
        direct = float(sum(approx.b[m] * ((y * s) ** m).sum() for m in range(M + 1)))
        # route 2: general form sum over records of sum_kbar g(kbar) * s^kbar
        weights = degree_weights(spec, (approx,), y)
        general = float(sum((weights[:, m] * s**m).sum() for m in range(M + 1)))
        assert general == pytest.approx(direct, rel=1e-10)
