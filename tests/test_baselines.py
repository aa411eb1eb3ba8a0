import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from passglm import baselines
from passglm.baselines import (
    ChainOutput,
    MalaConfig,
    exact_map,
    laplace,
    mala,
    sgd,
    split_rhat,
)
from passglm.errors import ConvergenceError, DivergenceError, InvalidInputError
from passglm.data import synthesize_arrays
from passglm.mappings import (
    MAPPING_FACTORIES,
    _records,
    get_mapping,
    log_likelihood,
    log_likelihood_grad,
    log_likelihood_hess,
    mapping_logit,
)
from passglm.metrics import test_nll as eval_nll
from passglm.posterior import PriorSpec
from tests.test_posterior import (
    assert_derivs_agree_across_orders,
    grid_moments,
    logistic_instance,
    quadratic_mapping,
)


EMPTY_2D = (np.empty(0), np.empty((0, 2)))


class TestLaplace:
    def test_quadratic_target_is_exact(self):
        # quadratic log-likelihood + gaussian prior => posterior is gaussian,
        # so the Laplace fit must be exact
        rng = np.random.default_rng(0)
        d, n = 2, 60
        X = rng.uniform(-0.5, 0.5, (n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        spec = quadratic_mapping()
        prior = PriorSpec.gaussian(4.0)
        post = laplace(spec, prior, (y, X))
        Z = y[:, None] * X
        precision = 2.0 * Z.T @ Z + 0.25 * np.eye(d)
        np.testing.assert_allclose(post.cov(), np.linalg.inv(precision), rtol=1e-10)
        np.testing.assert_allclose(post.mean, np.zeros(d), atol=1e-10)

    def test_mean_is_exact_map(self):
        rng = np.random.default_rng(1)
        y, X = logistic_instance(rng, 2, 500, np.array([1.0, -0.5]))
        prior = PriorSpec.gaussian(4.0)
        post = laplace(mapping_logit(), prior, (y, X))
        theta, _ = exact_map(mapping_logit(), prior, (y, X))
        np.testing.assert_allclose(post.mean, theta, atol=1e-12)
        grad = log_likelihood_grad(mapping_logit(), post.mean, (y, X)) - 0.25 * post.mean
        assert np.linalg.norm(grad) <= 1e-8

    def test_iteration_cap_raises_with_a_trace(self, monkeypatch):
        rng = np.random.default_rng(14)
        y, X = logistic_instance(rng, 2, 200, np.array([1.5, -1.0]))
        monkeypatch.setattr(baselines, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="in 1 iterations") as info:
            exact_map(mapping_logit(), PriorSpec.gaussian(4.0), (y, X))
        ((step, value, grad_norm),) = info.value.trace
        assert step == 0 and np.isfinite(value) and grad_norm > 1e-8

    def test_a_step_below_the_rounding_of_f_is_judged_by_the_gradient(self, monkeypatch):
        # the Newton step from trace[3] predicts an increase below one ulp of
        # |f|, and f rounds lower at the full step: Armijo alone rejects it
        y, X = synthesize_arrays("shuber", 3, 400, seed=6, theta_true=[0.8, -0.5, 0.3])
        monkeypatch.setattr(baselines, "_MAX_ITER", 5)
        with pytest.raises(ConvergenceError, match=r"\(1 taken at the rounding floor of f\)") as info:
            exact_map(get_mapping("shuber"), PriorSpec.gaussian(4.0), (y, X), tol=0.0)
        (_, f3, g3), (_, f4, g4) = info.value.trace[3:]
        assert g4 < 1e-13 < 1e-8 < g3
        assert f4 >= f3 - 16 * np.spacing(abs(f3))

    def test_covariance_close_to_grid_truth(self):
        rng = np.random.default_rng(2)
        y, X = logistic_instance(rng, 2, 500, np.array([1.0, -1.5]))
        prior = PriorSpec.gaussian(4.0)
        post = laplace(mapping_logit(), prior, (y, X))
        Z = y[:, None] * X

        def true_logpost(pts):
            S = Z @ pts
            return -np.logaddexp(0.0, -S).sum(axis=0) - 0.125 * (pts**2).sum(axis=0)

        sig = np.sqrt(post.marginal_variances())
        _, cov_g = grid_moments(true_logpost, post.mean, 7.0 * sig)
        rel = np.linalg.norm(post.cov() - cov_g) / np.linalg.norm(cov_g)
        assert rel <= 0.10


class TestLogPosterior:
    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(sorted(MAPPING_FACTORIES)),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        flat=st.booleans(),
    )
    def test_derivs_is_the_log_likelihood_plus_the_prior_at_every_order(self, model, d, seed, flat):
        rng = np.random.default_rng(seed)
        spec = get_mapping(model, 1.5)
        data = synthesize_arrays(model, d, 50, seed, rng.uniform(-1, 1, d), scale=1.5)
        if flat:
            prior = PriorSpec.flat()
        else:
            prior = PriorSpec.gaussian(rng.uniform(0.5, 4.0, d), mean=rng.uniform(-0.5, 0.5, d))
        post = baselines._LogPosterior(spec, prior, *_records(spec, data))
        theta = rng.uniform(-1, 1, d)
        assert_derivs_agree_across_orders(post.derivs, theta)
        f, g, H = post.derivs(theta, 2)
        prec = np.diag(prior.precision_diag(d))
        assert f == log_likelihood(spec, theta, data) + prior.log_density(theta)
        grad = log_likelihood_grad(spec, theta, data) - prec @ (theta - prior.mean_vector(d))
        assert g.tobytes() == grad.tobytes()
        assert H.tobytes() == (log_likelihood_hess(spec, theta, data) - prec).tobytes()


class TestMala:
    def test_standard_gaussian_target(self):
        config = MalaConfig(iterations=20_000, chains=3, seed=5)
        prior = PriorSpec.gaussian(1.0)
        out = mala(quadratic_mapping(), prior, EMPTY_2D, config)
        assert out.draws.shape == (3, 10_000, 2)
        mean = out.pooled().mean(axis=0)
        assert np.linalg.norm(mean) <= 0.05
        assert np.all(out.rhat < 1.05)

    def test_acceptance_rate_near_target(self):
        config = MalaConfig(iterations=10_000, chains=2, seed=6)
        out = mala(quadratic_mapping(), PriorSpec.gaussian(1.0), EMPTY_2D, config)
        for rate in out.accept_rates:
            assert abs(rate - 0.574) <= 0.1

    def test_logistic_mean_matches_grid_oracle(self):
        rng = np.random.default_rng(7)
        y, X = logistic_instance(rng, 2, 500, np.array([1.0, -1.5]))
        prior = PriorSpec.gaussian(4.0)
        config = MalaConfig(iterations=20_000, chains=3, seed=8)
        out = mala(mapping_logit(), prior, (y, X), config)
        Z = y[:, None] * X

        def true_logpost(pts):
            S = Z @ pts
            return -np.logaddexp(0.0, -S).sum(axis=0) - 0.125 * (pts**2).sum(axis=0)

        center = out.pooled().mean(axis=0)
        spread = out.pooled().std(axis=0)
        mean_g, _ = grid_moments(true_logpost, center, 8.0 * spread)
        assert np.linalg.norm(center - mean_g) <= 0.02

    def test_detailed_balance_smoke_1d(self):
        # empirical CDF against the exact standard normal target
        config = MalaConfig(iterations=50_000, chains=2, seed=9)
        prior = PriorSpec.gaussian(1.0)
        out = mala(quadratic_mapping(), prior, (np.empty(0), np.empty((0, 1))), config)
        draws = out.pooled().ravel()
        ks = sstats.kstest(draws, "norm").statistic
        assert ks <= 0.02

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            MalaConfig(iterations=5)

    @pytest.mark.parametrize("chains", [0, -2])
    def test_chain_count_must_be_positive(self, chains):
        with pytest.raises(InvalidInputError, match="chain count must be >= 1"):
            MalaConfig(iterations=100, chains=chains)

    def test_single_chain_has_no_rhat(self):
        config = MalaConfig(iterations=1000, chains=1, seed=10)
        out = mala(quadratic_mapping(), PriorSpec.gaussian(1.0), EMPTY_2D, config)
        assert out.rhat is None
        assert out.draws.shape[0] == 1


class TestSplitRhat:
    def test_well_mixed_chains_near_one(self):
        rng = np.random.default_rng(11)
        draws = rng.standard_normal((4, 2000, 3))
        rhat = split_rhat(draws)
        assert np.all(rhat < 1.01)

    def test_shifted_chain_detected(self):
        rng = np.random.default_rng(12)
        draws = rng.standard_normal((2, 2000, 1))
        draws[1] += 3.0
        rhat = split_rhat(draws)
        assert rhat[0] > 1.1


class TestSgd:
    def test_separable_toy_orientation(self):
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0] * 10)
        X = np.array([[1.0]] * 3 + [[-1.0]] * 3).repeat(10, axis=0)[: len(y)]
        X = np.where(y[:, None] > 0, np.abs(X), -np.abs(X))  # perfectly separable
        theta = sgd(mapping_logit(), (y, X), epochs=20, eta0=0.5, seed=0)
        assert theta[0] > 0

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(13)
        y, X = logistic_instance(rng, 3, 200, np.array([1.0, 0.0, -1.0]))
        a = sgd(mapping_logit(), (y, X), epochs=3, eta0=0.5, seed=4)
        b = sgd(mapping_logit(), (y, X), epochs=3, eta0=0.5, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_nll_close_to_laplace(self):
        rng = np.random.default_rng(14)
        theta_true = np.array([1.0, -1.0, 0.5])
        y, X = logistic_instance(rng, 3, 4000, theta_true)
        y_test, X_test = logistic_instance(rng, 3, 2000, theta_true)
        prior = PriorSpec.gaussian(4.0)
        point = sgd(mapping_logit(), (y, X), epochs=5, eta0=1.0, prior=prior, seed=1)
        post = laplace(mapping_logit(), prior, (y, X))
        nll_sgd = eval_nll(mapping_logit(), point, (y_test, X_test))
        nll_lap = eval_nll(mapping_logit(), post.mean, (y_test, X_test))
        assert nll_sgd <= 1.05 * nll_lap

    def test_divergence_detection(self):
        # a Poisson step with a huge learning rate overshoots into exploding
        # exp gradients; the iterate-norm guard must fire
        from passglm.mappings import mapping_poisson

        y = np.full(50, 3.0)
        X = np.ones((50, 1))
        with pytest.raises(DivergenceError, match="eta0"):
            sgd(mapping_poisson(), (y, X), epochs=50, eta0=10.0, seed=2)

    def test_epoch_validation(self):
        with pytest.raises(InvalidInputError):
            sgd(mapping_logit(), EMPTY_2D, epochs=0)

    @pytest.mark.parametrize("eta0", [-1.0, 0.0, np.nan, np.inf])
    def test_eta0_must_be_finite_and_positive(self, eta0):
        with pytest.raises(InvalidInputError, match="eta0 must be finite and > 0"):
            sgd(mapping_logit(), EMPTY_2D, epochs=1, eta0=eta0)


class TestStreamConsumption:
    def test_baselines_accept_record_streams(self):
        from passglm.data import SyntheticStream

        stream = SyntheticStream("logit", 3, 400, seed=21, theta_true=[0.5, -0.5, 0.2])
        prior = PriorSpec.gaussian(4.0)
        post = laplace(mapping_logit(), prior, stream)
        assert post.mean.shape == (3,)
        stream2 = SyntheticStream("logit", 3, 400, seed=21, theta_true=[0.5, -0.5, 0.2])
        theta = sgd(mapping_logit(), stream2, epochs=1, eta0=0.5, prior=prior, seed=0)
        assert theta.shape == (3,)
        stream3 = SyntheticStream("logit", 2, 100, seed=22, theta_true=[0.3, 0.3])
        out = mala(mapping_logit(), prior, stream3,
                   MalaConfig(iterations=500, chains=2, seed=4))
        assert out.draws.shape == (2, 250, 2)
