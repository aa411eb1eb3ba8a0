import math
import warnings

import numpy as np
import pytest
from scipy import stats

from passglm.errors import InvalidInputError, MetricError
from passglm.baselines import exact_map
from passglm.data import ArrayStream, build_stats, synthesize_arrays
from passglm.mappings import MAPPING_FACTORIES, fit_terms, get_mapping, mapping_logit
from passglm.metrics import (
    _average_ranks,
    compare_posteriors,
    gaussian_w2,
    inner_product_histogram,
    roc_auc,
)
from passglm.metrics import test_nll as eval_nll
from passglm.metrics import test_nll_predictive as eval_nll_predictive
from passglm.posterior import GaussianPosterior, PriorSpec, map_error_certificate, posterior_lr2
from tests.test_posterior import logistic_instance, lr2_stats


def random_spd(rng, d):
    a = rng.normal(0, 1, (d, d))
    return a @ a.T + d * np.eye(d) * 0.1


class TestCompareposteriors:
    def test_identical_gaussians_are_zero(self):
        rng = np.random.default_rng(0)
        mean = rng.normal(0, 1, 3)
        cov = random_spd(rng, 3)
        report = compare_posteriors((mean, cov), (mean.copy(), cov.copy()))
        assert report.mean_err == 0.0
        assert report.var_err == 0.0
        assert report.w2 == pytest.approx(0.0, abs=1e-7)

    def test_translation_case(self):
        mu = np.array([0.3, -1.2, 2.0])
        eye = np.eye(3)
        report = compare_posteriors((np.zeros(3), eye), (mu, eye))
        assert report.w2 == pytest.approx(np.linalg.norm(mu), rel=1e-9)
        assert report.mean_err == pytest.approx(np.mean(np.abs(mu)))
        assert report.var_err == 0.0

    def test_commuting_covariances_against_coupling_oracle(self):
        # for commuting (here diagonal) covariances the optimal coupling is
        # explicit: Y = mu_b + B^(1/2) A^(-1/2) (X - mu_a)
        rng = np.random.default_rng(1)
        mean_a, mean_b = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
        va, vb = rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3)
        w2 = gaussian_w2(mean_a, np.diag(va), mean_b, np.diag(vb))
        x = mean_a + rng.standard_normal((100_000, 3)) * np.sqrt(va)
        ycoupled = mean_b + np.sqrt(vb / va) * (x - mean_a)
        emp = math.sqrt(np.mean(np.sum((x - ycoupled) ** 2, axis=1)))
        assert w2 == pytest.approx(emp, rel=0.02)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            compare_posteriors((np.zeros(2), np.eye(2)), (np.zeros(3), np.eye(3)))

    def test_w2_is_a_metric(self):
        rng = np.random.default_rng(2)
        gs = [(rng.normal(0, 1, 3), random_spd(rng, 3)) for _ in range(3)]
        d01 = gaussian_w2(*gs[0], *gs[1])
        d10 = gaussian_w2(*gs[1], *gs[0])
        assert abs(d01 - d10) <= 1e-12 * max(1.0, d01)
        assert gaussian_w2(*gs[0], *gs[0]) <= 1e-7
        d02 = gaussian_w2(*gs[0], *gs[2])
        d12 = gaussian_w2(*gs[1], *gs[2])
        assert d02 <= d01 + d12 + 1e-10


class TestTestNll:
    def test_zero_estimate_gives_log_two(self):
        rng = np.random.default_rng(3)
        y, X = logistic_instance(rng, 3, 50, np.zeros(3))
        assert eval_nll(mapping_logit(), np.zeros(3), (y, X)) == pytest.approx(math.log(2.0))

    def test_large_margin_separator_approaches_zero(self):
        X = np.vstack([np.ones((20, 1)), -np.ones((20, 1))])
        y = np.concatenate([np.ones(20), -np.ones(20)])
        assert eval_nll(mapping_logit(), np.array([30.0]), (y, X)) <= 1e-12

    def test_lr2_close_to_laplace_on_in_range_data(self):
        from passglm.baselines import laplace

        rng = np.random.default_rng(4)
        theta_true = np.array([1.0, -1.0, 0.5])
        y, X = logistic_instance(rng, 3, 2000, theta_true)
        yt, Xt = logistic_instance(rng, 3, 1000, theta_true)
        prior = PriorSpec.gaussian(4.0)
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        lr2 = posterior_lr2(lr2_stats(y, X), approx, prior)
        lap = laplace(mapping_logit(), prior, (y, X))
        assert eval_nll(mapping_logit(), lr2, (yt, Xt)) <= 1.05 * eval_nll(
            mapping_logit(), lap, (yt, Xt)
        )


class TestTestNllPredictive:
    @pytest.mark.parametrize("model", list(MAPPING_FACTORIES))
    def test_point_mass_posterior_equals_plug_in(self, model):
        # every draw of a zero-covariance posterior is its mean
        theta = np.array([0.4, -0.3, 0.2])
        spec = get_mapping(model, 1.5)
        data = synthesize_arrays(model, 3, 200, 9, theta, scale=1.5)
        post = GaussianPosterior(mean=theta, chol=np.zeros((3, 3)), logdet=-np.inf)
        assert eval_nll_predictive(spec, post, data, draws=50, seed=1) == pytest.approx(
            eval_nll(spec, theta, data), rel=1e-12
        )


@pytest.mark.parametrize("model", list(MAPPING_FACTORIES))
def test_held_out_metrics_refuse_no_records(model):
    spec = get_mapping(model, 1.5)
    data = (np.empty(0), np.empty((0, 3)))
    post = GaussianPosterior(mean=np.zeros(3), chol=np.eye(3), logdet=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning about an empty mean
        for metric in (
            lambda: eval_nll(spec, post, data),
            lambda: eval_nll_predictive(spec, post, data, draws=2),
            lambda: inner_product_histogram(spec, data, post.mean),
        ):
            with pytest.raises(MetricError, match="^held-out metrics are undefined without records$"):
                metric()


class TestAverageRanks:
    @pytest.mark.parametrize(
        "a",
        [
            np.array([]),
            np.array([3.5]),
            np.array([2.0, -1.0]),
            np.array([1.0, 1.0]),
            np.random.default_rng(7).normal(0, 1, 100_000),
            np.random.default_rng(8).integers(-5, 5, 100_000).astype(float),
            np.array([np.inf, -np.inf, 0.0, -0.0, np.inf, 1.0, -np.inf]),
        ],
        ids=["empty", "one", "two", "tied-pair", "100k", "100k-heavy-ties", "inf"],
    )
    def test_matches_scipy_rankdata_bit_for_bit(self, a):
        ranks = _average_ranks(a)
        expected = stats.rankdata(a, method="average")
        assert ranks.dtype == expected.dtype
        assert np.array_equal(ranks, expected)

    def test_nan_makes_every_rank_nan(self):
        a = np.array([0.3, np.nan, -1.0, 0.3])
        ranks = _average_ranks(a)
        expected = stats.rankdata(a, method="average")
        assert ranks.shape == expected.shape == (4,)
        assert np.isnan(ranks).all() and np.isnan(expected).all()

    def test_auc_of_nan_scores_is_nan(self):
        assert math.isnan(roc_auc([0.1, np.nan, 0.8, 0.9], [-1, -1, 1, 1]))


class TestRocAuc:
    def test_perfect_ordering(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [-1, -1, 1, 1]) == 1.0

    def test_reversed_ordering(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [-1, -1, 1, 1]) == 0.0

    def test_ties_contribute_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 1, -1, -1]) == 0.5

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(5)
        scores = rng.random(10_000)
        labels = np.where(rng.random(10_000) < 0.5, 1, -1)
        assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.02)

    def test_single_class_is_undefined(self):
        with pytest.raises(MetricError):
            roc_auc([0.1, 0.9], [1, 1])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(0, 1, 500)
        labels = np.where(rng.random(500) < 0.4, 1, -1)
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert roc_auc(3.0 * scores - 7.0, labels) == pytest.approx(base, abs=1e-12)


class TestInnerProductHistogram:
    def test_zero_parameter_concentrates_at_zero(self):
        rng = np.random.default_rng(7)
        y, X = logistic_instance(rng, 3, 100, np.array([1.0, 0.0, -1.0]))
        hist = inner_product_histogram(mapping_logit(), (y, X), np.zeros(3), radius=4.0)
        assert hist.in_range_fraction == 1.0
        assert hist.counts.sum() == 100
        nonzero_bins = np.flatnonzero(hist.counts)
        assert nonzero_bins.size == 1

    def test_well_specified_data_mostly_in_range(self):
        rng = np.random.default_rng(8)
        theta_true = np.array([1.0, -1.5])
        y, X = logistic_instance(rng, 2, 2000, theta_true)
        hist = inner_product_histogram(mapping_logit(), (y, X), theta_true, radius=4.0)
        assert hist.in_range_fraction >= 0.98

    def test_adversarial_scale_triggers_warning(self):
        rng = np.random.default_rng(9)
        X = 40.0 * rng.standard_normal((200, 2))
        y = np.where(rng.random(200) < 0.5, 1.0, -1.0)
        theta = np.array([1.0, 1.0])
        with pytest.warns(UserWarning, match="inner products"):
            hist = inner_product_histogram(mapping_logit(), (y, X), theta, radius=4.0)
        assert hist.in_range_fraction < 0.5

    def test_offset_models_histogram_the_offset_argument(self):
        # shuber evaluates phi at x . theta - y, not at the label-signed x . theta
        y, X = synthesize_arrays("shuber", 3, 2000, seed=5, theta_true=0.5)
        theta = np.full(3, 0.5)
        hist = inner_product_histogram(get_mapping("shuber"), (y, X), theta, radius=1.0)
        assert hist.in_range_fraction == np.mean(np.abs(X @ theta - y) <= 1.0)
        assert hist.in_range_fraction < 0.6 < np.mean(np.abs(X @ theta) <= 1.0)
        assert hist.counts.sum() == 2000

    @pytest.mark.parametrize("model", list(MAPPING_FACTORIES))
    def test_fraction_is_the_certificate_fraction(self, model):
        spec = get_mapping(model)
        y, X = synthesize_arrays(model, 3, 400, seed=6, theta_true=[0.8, -0.5, 0.3])
        prior = PriorSpec.gaussian(4.0)
        theta, _ = exact_map(spec, prior, (y, X))
        stats = build_stats(ArrayStream(y, X), spec, 2, 1.5)
        cert = map_error_certificate(theta, None, stats, prior, (y, X))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            hist = inner_product_histogram(spec, (y, X), theta, radius=1.5)
        assert 0.0 < hist.in_range_fraction == cert.in_range_fraction
