import functools
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passglm.chebyshev import fit_chebyshev
from passglm import posterior
from passglm.data import ArrayStream, build_stats, synthesize_arrays
from passglm.errors import (
    ConvergenceError,
    InvalidInputError,
    NonConcaveError,
    PathologicalApproximationError,
)
from passglm.mappings import (
    MappingSpec,
    Term,
    fit_terms,
    get_mapping,
    mapping_logit,
    mapping_poisson,
)
from passglm.posterior import (
    GaussianPosterior,
    PolySurface,
    PriorSpec,
    map_error_certificate,
    posterior_general,
    posterior_lr2,
    surrogate_loglik_coefficients,
)
from passglm.suffstats import enumerate_indices, new_stats
from tests.test_chebyshev import GOLDEN_B_LOGIT_M2_R4, phi_logit


def logistic_instance(rng, d, n, theta_true):
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X *= rng.random(n)[:, None] ** (1.0 / d)
    p = 1.0 / (1.0 + np.exp(-(X @ theta_true)))
    y = np.where(rng.random(n) < p, 1.0, -1.0)
    return y, X


def lr2_stats(y, X, M=2, R=4.0):
    iset = enumerate_indices(X.shape[1], M)
    stats = new_stats(iset, mapping_logit(), R)
    stats.accumulate_batch(y, X)
    return stats


def grid_moments(logpost, center, half_widths, n=400):
    """Quadrature oracle: normalized mean and covariance of exp(logpost) on a
    2-D tensor grid."""
    ax0 = np.linspace(center[0] - half_widths[0], center[0] + half_widths[0], n)
    ax1 = np.linspace(center[1] - half_widths[1], center[1] + half_widths[1], n)
    t0, t1 = np.meshgrid(ax0, ax1, indexing="ij")
    pts = np.stack([t0.ravel(), t1.ravel()])
    lp = logpost(pts)
    w = np.exp(lp - lp.max())
    w /= w.sum()
    mean = pts @ w
    centered = pts - mean[:, None]
    cov = (centered * w) @ centered.T
    return mean, cov


class TestPriorSpec:
    @pytest.mark.parametrize("text", ["gaussian:abc", "gaussian:", "gaussian:nan", "gaussian:-1", "laplace:1"])
    def test_unusable_prior_text_is_refused(self, text):
        with pytest.raises(InvalidInputError, match="prior"):
            PriorSpec.parse(text)

    def test_nan_variance_is_refused(self):
        with pytest.raises(InvalidInputError, match="prior variance must be positive"):
            PriorSpec.gaussian(np.array([1.0, np.nan]))


class TestPosteriorLr2:
    def test_zero_data_returns_prior(self):
        stats = lr2_stats(np.empty(0), np.empty((0, 3)))
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        prior = PriorSpec.gaussian(4.0)
        post = posterior_lr2(stats, approx, prior)
        np.testing.assert_allclose(post.mean, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(post.cov(), 4.0 * np.eye(3), rtol=1e-12)

    def test_single_record_hand_oracle(self):
        # d=1, y=1, x=1, sigma0^2=4: precision = 1/4 - 2 b2, mean = b1 / precision
        stats = lr2_stats(np.array([1.0]), np.array([[1.0]]))
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        post = posterior_lr2(stats, approx, PriorSpec.gaussian(4.0))
        b1, b2 = GOLDEN_B_LOGIT_M2_R4[1], GOLDEN_B_LOGIT_M2_R4[2]
        precision = 0.25 - 2.0 * b2
        assert post.mean[0] == pytest.approx(b1 / precision, rel=1e-12)
        assert post.cov()[0, 0] == pytest.approx(1.0 / precision, rel=1e-12)

    def test_matches_grid_quadrature_of_surrogate(self):
        rng = np.random.default_rng(12)
        theta_true = np.array([1.0, -1.5])
        y, X = logistic_instance(rng, 2, 500, theta_true)
        stats = lr2_stats(y, X)
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        prior = PriorSpec.gaussian(4.0)
        post = posterior_lr2(stats, approx, prior)

        b = approx.b
        Z = y[:, None] * X

        def surrogate_logpost(pts):
            S = Z @ pts
            return (
                b[0] * len(y)
                + b[1] * S.sum(axis=0)
                + b[2] * (S**2).sum(axis=0)
                - 0.125 * (pts**2).sum(axis=0)
            )

        sig = np.sqrt(post.marginal_variances())
        mean_g, cov_g = grid_moments(surrogate_logpost, post.mean, 6.0 * sig)
        for i in range(2):
            assert abs(post.mean[i] - mean_g[i]) / max(abs(mean_g[i]), sig[i]) <= 1e-3
            assert abs(post.cov()[i, i] - cov_g[i, i]) / cov_g[i, i] <= 1e-3

    def test_chol_is_lower_and_consistent(self):
        rng = np.random.default_rng(13)
        y, X = logistic_instance(rng, 3, 200, np.array([0.5, -0.5, 1.0]))
        stats = lr2_stats(y, X)
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        post = posterior_lr2(stats, approx, PriorSpec.gaussian(4.0))
        assert np.allclose(post.chol, np.tril(post.chol))
        sign, logdet = np.linalg.slogdet(post.cov())
        assert sign > 0
        assert post.logdet == pytest.approx(logdet, rel=1e-10)

    def test_contraction_with_more_data(self):
        rng = np.random.default_rng(14)
        y, X = logistic_instance(rng, 3, 400, np.array([0.5, -0.5, 1.0]))
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        prior = PriorSpec.gaussian(4.0)
        small = posterior_lr2(lr2_stats(y[:100], X[:100]), approx, prior)
        large = posterior_lr2(lr2_stats(y, X), approx, prior)
        assert np.linalg.norm(large.cov(), 2) <= np.linalg.norm(small.cov(), 2) + 1e-12

    def test_positive_b2_rejected(self):
        stats = lr2_stats(np.array([1.0]), np.array([[0.5]]))
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        bad = type(approx)(M=2, R=4.0, b=np.array([0.0, 0.5, 0.1]), c=approx.c, sup_err_est=0.0)
        with pytest.raises(PathologicalApproximationError):
            posterior_lr2(stats, bad, PriorSpec.gaussian(4.0))

    def test_flat_prior_matches_the_newton_fit(self):
        # a flat prior is the zero-precision Gaussian, which the closed form covers
        rng = np.random.default_rng(29)
        y, X = logistic_instance(rng, 5, 3000, np.array([1.0, -1.0, 0.5, 0.0, -0.5]))
        stats = lr2_stats(y, X)
        closed = posterior_lr2(stats, None, PriorSpec.flat())
        general = posterior_general(stats, None, PriorSpec.flat())
        mean_err = np.linalg.norm(closed.mean - general.map_estimate) / np.linalg.norm(closed.mean)
        assert mean_err <= 1e-12
        np.testing.assert_allclose(closed.cov(), general.laplace.cov(), rtol=0, atol=1e-12)


class TestApproxContract:
    """A fit uses the statistics' own terms unless raw (logistic) statistics,
    which do not depend on the radius, are given another approximation."""

    def _poisson_stats(self):
        rng = np.random.default_rng(40)
        X = rng.uniform(-0.4, 0.4, (150, 2))
        y = rng.poisson(1.0, 150).astype(float)
        return new_stats(enumerate_indices(2, 4), mapping_poisson(), 2.0).accumulate_batch(y, X)

    @pytest.mark.parametrize("M,R", [(4, 0.5), (3, 2.0)], ids=["other radius", "odd degree"])
    def test_foreign_approx_on_folded_stats_raises(self, M, R):
        stats = self._poisson_stats()
        foreign = fit_terms(mapping_poisson(), M, R)[1]
        prior = PriorSpec.gaussian(4.0)
        with pytest.raises(InvalidInputError, match="own fitted terms"):
            posterior_general(stats, foreign, prior, domain_radius=2.0)
        with pytest.raises(InvalidInputError, match="own fitted terms"):
            surrogate_loglik_coefficients(stats, foreign)
        with pytest.raises(InvalidInputError, match="own fitted terms"):
            map_error_certificate(np.zeros(2), foreign, stats, prior, (np.ones(3), np.zeros((3, 2))))

    def test_own_term_gives_the_fit_of_none(self):
        stats = self._poisson_stats()
        prior = PriorSpec.gaussian(4.0)
        want = posterior_general(stats, None, prior, domain_radius=2.0)
        for own in fit_terms(mapping_poisson(), 4, 2.0):
            got = posterior_general(stats, own, prior, domain_radius=2.0)
            assert np.array_equal(got.map_estimate, want.map_estimate)
            assert np.array_equal(got.laplace.chol, want.laplace.chol)

    def test_logit_takes_an_approximation_at_another_radius(self):
        rng = np.random.default_rng(41)
        y, X = logistic_instance(rng, 3, 300, np.array([1.0, -0.5, 0.5]))
        stats = lr2_stats(y, X)  # stored at R = 4
        prior = PriorSpec.gaussian(4.0)
        stored = posterior_lr2(stats, None, prior)
        (own,) = fit_terms(mapping_logit(), 2, 4.0)
        assert np.array_equal(posterior_lr2(stats, own, prior).mean, stored.mean)
        (narrow,) = fit_terms(mapping_logit(), 2, 2.0)
        refit = posterior_lr2(stats, narrow, prior)
        assert np.linalg.norm(refit.mean - stored.mean) > 0.01 * np.linalg.norm(stored.mean)
        assert np.array_equal(refit.mean, posterior_lr2(lr2_stats(y, X, R=2.0), None, prior).mean)
        with pytest.raises(InvalidInputError, match="degree must match"):
            posterior_general(stats, fit_terms(mapping_logit(), 6, 4.0)[0], prior)


class TestSampling:
    def _post(self):
        rng = np.random.default_rng(15)
        y, X = logistic_instance(rng, 2, 300, np.array([1.0, -0.5]))
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        return posterior_lr2(lr2_stats(y, X), approx, PriorSpec.gaussian(4.0))

    def test_sample_mean_clt(self):
        post = self._post()
        draws = post.sample(100_000, seed=0)
        sig = np.sqrt(post.marginal_variances())
        for i in range(2):
            assert abs(draws[:, i].mean() - post.mean[i]) <= 4.0 * sig[i] / math.sqrt(100_000)

    def test_seed_determinism(self):
        post = self._post()
        np.testing.assert_array_equal(post.sample(100, seed=7), post.sample(100, seed=7))

    def test_empirical_covariance(self):
        post = self._post()
        draws = post.sample(100_000, seed=1)
        emp = np.cov(draws.T)
        rel = np.linalg.norm(emp - post.cov()) / np.linalg.norm(post.cov())
        assert rel <= 0.05

    def test_count_validation(self):
        with pytest.raises(InvalidInputError):
            self._post().sample(0)


class TestPosteriorGeneral:
    def test_matches_lr2_for_degree_two(self):
        rng = np.random.default_rng(16)
        y, X = logistic_instance(rng, 3, 250, np.array([1.0, 0.0, -1.0]))
        stats = lr2_stats(y, X)
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        prior = PriorSpec.gaussian(4.0)
        closed = posterior_lr2(stats, approx, prior)
        general = posterior_general(stats, approx, prior)
        np.testing.assert_allclose(general.map_estimate, closed.mean, atol=1e-8)
        np.testing.assert_allclose(general.laplace.cov(), closed.cov(), rtol=1e-8)

    def test_flat_prior_solves_linear_system(self):
        rng = np.random.default_rng(17)
        y, X = logistic_instance(rng, 2, 300, np.array([1.0, -0.5]))
        stats = lr2_stats(y, X)
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        general = posterior_general(stats, approx, PriorSpec.flat())
        b = approx.b
        vals = stats.values()
        d = 2
        t1 = vals[1 : d + 1]
        up = stats.index_set.up
        T2 = np.array(
            [
                [vals[up[up[0, 0], 0]], vals[up[up[0, 0], 1]]],
                [vals[up[up[0, 0], 1]], vals[up[up[0, 1], 1]]],
            ]
        )
        expected = np.linalg.solve(-2.0 * b[2] * T2, b[1] * t1)
        np.testing.assert_allclose(general.map_estimate, expected, atol=1e-7)

    @pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan, np.inf])
    def test_domain_radius_must_be_positive(self, radius):
        rng = np.random.default_rng(17)
        stats = lr2_stats(*logistic_instance(rng, 2, 50, np.array([1.0, -0.5])))
        with pytest.raises(InvalidInputError, match="domain radius must be > 0"):
            posterior_general(stats, None, PriorSpec.gaussian(4.0), domain_radius=radius)

    def test_logistic_degree_four_is_rejected(self):
        rng = np.random.default_rng(18)
        y, X = logistic_instance(rng, 2, 100, np.array([1.0, -0.5]))
        iset = enumerate_indices(2, 4)
        stats = new_stats(iset, mapping_logit(), 4.0)
        stats.accumulate_batch(y, X)
        (approx,) = fit_terms(mapping_logit(), 4, 4.0)
        with pytest.raises(PathologicalApproximationError, match="M = 2 \\+ 4k"):
            posterior_general(stats, approx, PriorSpec.gaussian(4.0))

    def test_logistic_degree_six_works(self):
        rng = np.random.default_rng(19)
        y, X = logistic_instance(rng, 2, 300, np.array([1.0, -0.5]))
        iset = enumerate_indices(2, 6)
        stats = new_stats(iset, mapping_logit(), 4.0)
        stats.accumulate_batch(y, X)
        (approx,) = fit_terms(mapping_logit(), 6, 4.0)
        post = posterior_general(stats, approx, PriorSpec.gaussian(4.0))
        grad = post.surface.gradient(post.map_estimate)
        f = abs(post.surface.value(post.map_estimate))
        assert np.linalg.norm(grad) <= 1e-8 * max(1.0, f)

    def test_iteration_cap_raises_with_a_trace(self, monkeypatch):
        rng = np.random.default_rng(19)
        stats = lr2_stats(*logistic_instance(rng, 2, 300, np.array([1.0, -0.5])), M=6)
        monkeypatch.setattr(posterior, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="in 1 iterations") as info:
            posterior_general(stats, None, PriorSpec.gaussian(4.0))
        ((step, value, grad_norm),) = info.value.trace
        assert step == 0 and np.isfinite(value) and grad_norm > 1e-8

    def test_poisson_even_degree_convexity_enforced(self):
        rng = np.random.default_rng(20)
        d, n = 2, 150
        X = rng.uniform(-0.4, 0.4, (n, d))
        y = rng.poisson(1.0, n).astype(float)
        spec = mapping_poisson()
        # R=4 makes the degree-4 approximation of exp lose convexity
        iset = enumerate_indices(d, 4)
        stats = new_stats(iset, spec, 4.0)
        stats.accumulate_batch(y, X)
        with pytest.raises(NonConcaveError):
            posterior_general(stats, None, PriorSpec.gaussian(4.0), domain_radius=4.0)

    def test_poisson_interior_solution(self):
        rng = np.random.default_rng(21)
        d, n, R = 2, 200, 2.0
        theta_true = np.array([0.5, -0.5])
        X = rng.standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        X *= rng.random(n)[:, None] ** 0.5
        y = rng.poisson(np.exp(X @ theta_true)).astype(float)
        iset = enumerate_indices(d, 4)
        stats = new_stats(iset, mapping_poisson(), R)
        stats.accumulate_batch(y, X)
        post = posterior_general(stats, None, PriorSpec.gaussian(4.0), domain_radius=R)
        assert np.linalg.norm(post.map_estimate) < R
        assert np.linalg.norm(post.map_estimate - theta_true) < 0.5


# model -> (scale, degree M, approximation radius R) of the ball-fit statistics
BALL_MODELS = {"logit": (None, 6, 4.0), "poisson": (None, 4, 2.0), "shuber": (1.5, 6, 3.0)}


@functools.cache
def ball_stats(model, d, seed):
    scale, M, R = BALL_MODELS[model]
    train = synthesize_arrays(model, d, 200, seed, np.linspace(0.8, -0.4, d), scale=scale)
    return build_stats(ArrayStream(*train), get_mapping(model, scale), M, R)


class TestBallFit:
    """``posterior_general`` over a ball of radius ``r``, drawn as a share of
    the free mode's norm: the mode is feasible, its multiplier is not
    negative, it meets the projected-gradient rule, the Laplace fit inverts
    the surrogate's Hessian there, and a ball that does not bind changes
    nothing."""

    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from(sorted(BALL_MODELS)),
        d=st.sampled_from([1, 2, 3, 5]),
        seed=st.integers(0, 3),
        share=st.floats(0.05, 1.5),
        flat=st.booleans(),
    )
    def test_ball_mode_is_feasible_and_stationary(self, model, d, seed, share, flat):
        stats = ball_stats(model, d, seed)
        prior = PriorSpec.flat() if flat else PriorSpec.gaussian(4.0)
        free = posterior_general(stats, None, prior)
        r = share * float(np.linalg.norm(free.map_estimate))
        post = posterior_general(stats, None, prior, domain_radius=r)
        theta = post.map_estimate
        assert np.linalg.norm(theta) <= r * (1 + 4 * 2**-52)
        assert post.multiplier >= 0
        grad, scale = post.surface.gradient(theta), max(1.0, abs(post.surface.value(theta)))
        ascent = theta + grad
        projected = ascent * min(1.0, r / float(np.linalg.norm(ascent)))
        assert np.linalg.norm(projected - theta) <= posterior._GRAD_TOL * scale
        # the multiplier is the boundary's: grad = multiplier * theta, to the rule
        assert np.linalg.norm(grad - post.multiplier * theta) <= posterior._GRAD_TOL * scale
        # the Laplace fit takes the surrogate's own Hessian, not the penalized one
        np.testing.assert_allclose(post.laplace.cov() @ -post.surface.hessian(theta), np.eye(d), atol=1e-8)
        if r >= np.linalg.norm(free.map_estimate):
            assert post.multiplier == 0.0
            assert theta.tobytes() == free.map_estimate.tobytes()
            assert post.laplace.chol.tobytes() == free.laplace.chol.tobytes()


class TestPolySurface:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        iset = enumerate_indices(3, 4)
        coef = rng.normal(0, 1, len(iset))
        surface = PolySurface(iset, coef)
        for _ in range(50):
            theta = rng.normal(0, 0.8, 3)
            g = surface.gradient(theta)
            h = 1e-6
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (surface.value(theta + e) - surface.value(theta - e)) / (2 * h)
                assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        iset = enumerate_indices(2, 5)
        coef = rng.normal(0, 1, len(iset))
        surface = PolySurface(iset, coef)
        theta = rng.normal(0, 0.5, 2)
        H = surface.hessian(theta)
        h = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (surface.gradient(theta + e) - surface.gradient(theta - e)) / (2 * h)
            np.testing.assert_allclose(H[:, j], fd, rtol=1e-4, atol=1e-6)


    @pytest.mark.parametrize("M", [0, 1, 2, 5, 6])
    @pytest.mark.parametrize("d", [1, 3, 6, 10])
    def test_value_gradient_hessian_match_dense_oracle(self, d, M):
        from tests.test_suffstats import cwr_rows

        rng = np.random.default_rng(26)
        iset = enumerate_indices(d, M)
        coef = rng.normal(0, 1, len(iset))
        surface = PolySurface(iset, coef)
        # dense exponent vectors of the canonical order
        E = np.zeros((len(iset), d), dtype=np.int64)
        for i, row in enumerate(cwr_rows(d, M)):
            np.add.at(E[i], row[row >= 0], 1)
        unit = np.eye(d, dtype=np.int64)

        def mono(theta, exps):
            return np.prod(theta ** np.maximum(exps, 0), axis=1)

        for _ in range(3):
            theta = rng.uniform(-0.9, 0.9, d)
            grad = np.array([coef @ (E[:, j] * mono(theta, E - unit[j])) for j in range(d)])
            hess = np.array(
                [
                    [
                        coef @ (E[:, j] * (E[:, l] - unit[j, l]) * mono(theta, E - unit[j] - unit[l]))
                        for l in range(d)
                    ]
                    for j in range(d)
                ]
            )
            scale = np.abs(coef).sum()
            assert surface.value(theta) == pytest.approx(coef @ mono(theta, E), rel=1e-12, abs=1e-13 * scale)
            g, H = surface.gradient(theta), surface.hessian(theta)
            assert g.dtype == H.dtype == np.float64
            np.testing.assert_array_equal(H, H.T)
            np.testing.assert_allclose(g, grad, rtol=1e-12, atol=1e-13 * scale)
            np.testing.assert_allclose(H, hess, rtol=1e-12, atol=1e-13 * scale)

    def test_wide_surface_memory_is_bounded(self):
        # d = 20, M = 6 has 230,230 entries: the index set and the two
        # derivative matrices take about 70 MB, per-entry link tables took 932 MiB
        rng = np.random.default_rng(27)
        tracemalloc.start()
        try:
            iset = enumerate_indices(20, 6)
            surface = PolySurface(iset, rng.normal(0, 1, len(iset)))
            surface.hessian(rng.uniform(-0.5, 0.5, 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 150e6


class TestFlatPriorEquivalence:
    def test_flat_is_the_zero_precision_gaussian(self):
        flat, gauss = PriorSpec.flat(), PriorSpec.gaussian(np.array([4.0, 0.5]), mean=1.0)
        np.testing.assert_array_equal(flat.precision_diag(2), [0.0, 0.0])
        np.testing.assert_array_equal(flat.mean_vector(2), [0.0, 0.0])
        np.testing.assert_array_equal(gauss.precision_diag(2), [0.25, 2.0])
        np.testing.assert_array_equal(gauss.mean_vector(2), [1.0, 1.0])
        assert flat.log_density(np.array([3.0, -7.0])) == 0.0
        assert gauss.log_density(np.array([3.0, 1.0])) == -0.5 * 0.25 * 4.0
        assert sorted(f.name for f in fields(PriorSpec)) == ["mean", "precision"]

    def test_wide_gaussian_approaches_flat_mle(self):
        rng = np.random.default_rng(24)
        y, X = logistic_instance(rng, 2, 400, np.array([1.0, -0.5]))
        stats = lr2_stats(y, X)
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        wide = posterior_lr2(stats, approx, PriorSpec.gaussian(1e8))
        flat = posterior_general(stats, approx, PriorSpec.flat())
        assert np.max(np.abs(wide.mean - flat.map_estimate)) <= 1e-4


def quadratic_mapping():
    """A mapping whose log-likelihood is itself a degree-2 polynomial, so the
    surrogate is exact."""
    return MappingSpec(
        name="quadratic-test",
        terms=(
            Term(
                phi=lambda s: -np.asarray(s, dtype=float) ** 2,
                dphi=lambda s: -2.0 * np.asarray(s, dtype=float),
                d2phi=lambda s: np.full_like(np.asarray(s, dtype=float), -2.0),
                y_power=0,
                y_in_arg_power=1,
                exact_degree=2,
            ),
        ),
        label_mode="pm1",
    )


class TestMapErrorCertificate:
    def test_exact_polynomial_target_gives_zero_bound(self):
        from passglm.baselines import exact_map

        rng = np.random.default_rng(25)
        d, n = 2, 80
        X = rng.uniform(-0.5, 0.5, (n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        spec = quadratic_mapping()
        iset = enumerate_indices(d, 2)
        stats = new_stats(iset, spec, 4.0)
        stats.accumulate_batch(y, X)
        prior = PriorSpec.gaussian(4.0)
        theta_map, _ = exact_map(spec, prior, (y, X))
        cert = map_error_certificate(theta_map, stats.approxes[0], stats, prior, (y, X))
        assert cert.eps_n <= 1e-10
        assert cert.bound <= 1e-10
        assert cert.measured_sq <= 1e-12
        assert cert.premises_ok

    def test_logistic_bound_dominates_measurement(self):
        from passglm.baselines import exact_map

        rng = np.random.default_rng(26)
        theta_true = np.array([1.0, -1.0, 0.5, 0.0, -0.5])
        y, X = logistic_instance(rng, 5, 2000, theta_true)
        stats = lr2_stats(y, X)
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        prior = PriorSpec.gaussian(4.0)
        theta_map, _ = exact_map(mapping_logit(), prior, (y, X))
        cert = map_error_certificate(theta_map, approx, stats, prior, (y, X))
        assert cert.premises_ok
        assert cert.measured_sq <= cert.bound

    def test_premise_violation_is_flagged(self):
        rng = np.random.default_rng(27)
        d, n = 2, 200
        X = 5.0 * rng.standard_normal((n, d))  # large covariates break the range premise
        theta_true = np.array([2.0, -2.0])
        p = 1.0 / (1.0 + np.exp(-(X @ theta_true)))
        y = np.where(rng.random(n) < p, 1.0, -1.0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stats = lr2_stats(y, X, R=0.5)
            (approx,) = fit_terms(mapping_logit(), 2, 0.5)
            from passglm.baselines import exact_map

            prior = PriorSpec.gaussian(4.0)
            theta_map, _ = exact_map(mapping_logit(), prior, (y, X))
            cert = map_error_certificate(theta_map, approx, stats, prior, (y, X))
        assert cert.in_range_fraction < 0.98
        assert not cert.premises["inner_products_in_range"]
        assert not cert.premises_ok


class TestOneDimensionalGridOracle:
    def test_closed_form_matches_1d_quadrature(self):
        rng = np.random.default_rng(28)
        n = 300
        x = (2.0 * rng.random((n, 1)) - 1.0) * rng.random((n, 1))
        p = 1.0 / (1.0 + np.exp(-(x @ np.array([1.2]))))
        y = np.where(rng.random(n) < p.ravel(), 1.0, -1.0)
        stats = lr2_stats(y, x)
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        post = posterior_lr2(stats, approx, PriorSpec.gaussian(4.0))
        b = approx.b
        z = (y * x.ravel())

        sig = float(np.sqrt(post.marginal_variances()[0]))
        grid = np.linspace(post.mean[0] - 7 * sig, post.mean[0] + 7 * sig, 20_001)
        s = z[:, None] * grid[None, :]
        lp = b[0] * n + b[1] * s.sum(axis=0) + b[2] * (s**2).sum(axis=0) - 0.125 * grid**2
        w = np.exp(lp - lp.max())
        w /= w.sum()
        mean_g = float(grid @ w)
        var_g = float(((grid - mean_g) ** 2) @ w)
        assert abs(post.mean[0] - mean_g) / max(abs(mean_g), sig) <= 1e-3
        assert abs(post.cov()[0, 0] - var_g) / var_g <= 1e-3


class TestDegenerateLabels:
    def test_all_identical_labels_still_give_finite_optimum(self):
        # the exact flat-prior MLE diverges on separable data; the quadratic
        # surrogate keeps a finite optimum because its curvature is negative
        rng = np.random.default_rng(29)
        X = rng.uniform(0.05, 0.5, (100, 2))
        y = np.ones(100)
        stats = lr2_stats(y, X)
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        post = posterior_general(stats, approx, PriorSpec.flat())
        assert np.all(np.isfinite(post.map_estimate))
        assert np.linalg.norm(post.map_estimate) < 1e3


class TestSamplingEntrywise:
    def test_empirical_covariance_entrywise_3sigma(self):
        rng = np.random.default_rng(30)
        y, X = logistic_instance(rng, 2, 300, np.array([1.0, -0.5]))
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        post = posterior_lr2(lr2_stats(y, X), approx, PriorSpec.gaussian(4.0))
        m = 100_000
        draws = post.sample(m, seed=3)
        emp = np.cov(draws.T)
        cov = post.cov()
        for i in range(2):
            for j in range(2):
                # var of a sample covariance entry: (c_ij^2 + c_ii c_jj) / m
                mc_sd = math.sqrt((cov[i, j] ** 2 + cov[i, i] * cov[j, j]) / m)
                assert abs(emp[i, j] - cov[i, j]) <= 3.0 * mc_sd


class TestGeneralPathModels:
    """Models without a closed-form route go through the Newton surrogate."""

    def test_probit_surrogate_map_near_exact(self):
        from passglm.baselines import exact_map
        from passglm.mappings import mapping_probit

        rng = np.random.default_rng(31)
        d, n, M, R = 2, 400, 2, 2.0
        theta_true = np.array([0.8, -0.6])
        X = rng.standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        X *= rng.random(n)[:, None] ** 0.5
        from scipy.special import ndtr

        y = (rng.random(n) < ndtr(X @ theta_true)).astype(float)
        spec = mapping_probit()
        prior = PriorSpec.gaussian(4.0)
        iset = enumerate_indices(d, M)
        stats = new_stats(iset, spec, R)
        stats.accumulate_batch(y, X)
        post = posterior_general(stats, None, prior)
        theta_map, _ = exact_map(spec, prior, (y, X))
        assert np.linalg.norm(post.map_estimate - theta_map) <= 0.2

    def test_gamma_surrogate_map_near_exact(self):
        from passglm.baselines import exact_map
        from passglm.mappings import mapping_gamma

        rng = np.random.default_rng(32)
        d, n, M, R = 2, 400, 4, 2.0
        theta_true = np.array([0.5, -0.3])
        X = rng.standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        X *= rng.random(n)[:, None] ** 0.5
        nu = 2.0
        s = X @ theta_true
        y = rng.gamma(shape=nu, scale=np.exp(s) / nu)
        spec = mapping_gamma(nu)
        prior = PriorSpec.gaussian(4.0)
        iset = enumerate_indices(d, M)
        stats = new_stats(iset, spec, R)
        stats.accumulate_batch(y, X)
        post = posterior_general(stats, None, prior, domain_radius=R)
        theta_map, _ = exact_map(spec, prior, (y, X))
        assert np.linalg.norm(post.map_estimate - theta_map) <= 0.1

    def test_cauchy_quadratic_surrogate_still_optimizes(self):
        from passglm.mappings import mapping_cauchy

        spec = mapping_cauchy(1.0)
        # the Cauchy likelihood is not log-concave, but a quadratic surrogate
        # for it still optimizes (b2 < 0); it simply carries no quality guarantees
        rng = np.random.default_rng(33)
        X = rng.uniform(-0.4, 0.4, (200, 2))
        y = (X @ np.array([0.5, -0.5])) + rng.standard_cauchy(200)
        iset = enumerate_indices(2, 2)
        stats = new_stats(iset, spec, 2.0)
        stats.accumulate_batch(y, X)
        post = posterior_general(stats, None, PriorSpec.gaussian(4.0))
        assert np.all(np.isfinite(post.map_estimate))
