"""Golden outputs of the exact-likelihood baselines, metrics and certificate.

``tests/data/exact_golden.npz`` holds the outputs of :func:`golden_outputs`
written by the implementation that evaluated the terms separately in each
module, before the one chain-rule kernel in ``mappings.py`` replaced those
copies.  The kernel must reproduce them.
"""

from pathlib import Path

import numpy as np
import pytest

from passglm.baselines import MalaConfig, exact_map, laplace, mala, sgd
from passglm.data import ArrayStream, build_stats, synthesize_arrays
from passglm.mappings import fit_terms, get_mapping
from passglm.metrics import test_nll as eval_nll
from passglm.metrics import test_nll_predictive as eval_nll_predictive
from passglm.posterior import PriorSpec, map_error_certificate

GOLDEN = Path(__file__).parent / "data" / "exact_golden.npz"

# model -> (scale, true parameter, certificate (M, R) or None)
CASES = {
    "logit": (None, [0.8, -0.5, 0.3], (2, 4.0)),
    "poisson": (None, [0.4, -0.3, 0.2], (4, 2.0)),
    "shuber": (1.5, [0.8, -0.5, 0.3], None),
    "gamma": (2.0, [0.4, -0.3, 0.2], None),
}
PROBIT_THETA = [0.8, -0.5, 0.3]


def golden_outputs(model: str) -> dict[str, np.ndarray]:
    scale, theta, cert = CASES[model]
    spec = get_mapping(model, scale)
    prior = PriorSpec.gaussian(4.0)
    train = synthesize_arrays(model, 3, 300, 11, theta, scale=scale)
    test = synthesize_arrays(model, 3, 200, 12, theta, scale=scale)
    post = laplace(spec, prior, train)
    chains = mala(spec, prior, train, MalaConfig(iterations=400, chains=2, seed=3))
    out = {
        "laplace_mean": post.mean,
        "laplace_chol": post.chol,
        "laplace_logdet": np.array(post.logdet),
        "mala_draws": chains.draws,
        "sgd_theta": sgd(spec, train, epochs=1, eta0=0.2, prior=prior, seed=4),
        "test_nll": np.array(eval_nll(spec, post, test)),
        "test_nll_predictive": np.array(eval_nll_predictive(spec, post, test, draws=20, seed=5)),
    }
    if cert is not None:
        M, R = cert
        stats = build_stats(ArrayStream(*train), spec, M, R)
        approx = fit_terms(spec, M, R)[-1]  # the non-polynomial term
        c = map_error_certificate(post.mean, approx, stats, prior, train)
        out["eps_n"] = np.array(c.eps_n)
        out["rho_n"] = np.array(c.rho_n)
    return out


def probit_map() -> np.ndarray:
    train = synthesize_arrays("probit", 3, 300, 11, PROBIT_THETA)
    return exact_map(get_mapping("probit"), PriorSpec.gaussian(4.0), train, tol=1e-11)[0]


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as f:
        return dict(f)


@pytest.mark.parametrize("model", list(CASES))
def test_exact_outputs_match_golden(model, golden):
    got = golden_outputs(model)
    expected = {k.split("/", 1)[1]: v for k, v in golden.items() if k.startswith(model + "/")}
    assert sorted(got) == sorted(expected)
    for name, value in got.items():
        np.testing.assert_allclose(value, expected[name], rtol=1e-13, atol=1e-15, err_msg=name)


def test_probit_map_matches_golden(golden):
    # the probit Hessian was corrected after this value was written, which
    # changes the Newton path; both paths stop at a gradient norm <= 1e-11,
    # within ~1e-12 of the same optimum
    np.testing.assert_allclose(probit_map(), golden["probit/exact_map_mean"], rtol=0, atol=1e-12)
