"""Golden outputs of the two Newton fits: the surrogate MAP of
:func:`posterior_general` and the exact MAP of :func:`exact_map` / :func:`laplace`.

``tests/data/newton_golden.npz`` holds the outputs of :func:`golden_outputs`
written while each fit still had its own damped-Newton loop.  The shared
solver must reproduce them bit for bit.
"""

from pathlib import Path

import numpy as np
import pytest

from passglm.baselines import exact_map, laplace
from passglm.data import ArrayStream, build_stats, synthesize_arrays
from passglm.mappings import get_mapping
from passglm.posterior import PriorSpec, posterior_general

GOLDEN = Path(__file__).parent / "data" / "newton_golden.npz"

# case -> (model, scale, degree M, approximation radius R, true parameter)
CASES = {
    "poisson-m4": ("poisson", None, 4, 2.0, [0.4, -0.3, 0.2]),
    "poisson-m6": ("poisson", None, 6, 2.0, [0.4, -0.3, 0.2]),
    "gamma-m6": ("gamma", 2.0, 6, 2.0, [0.4, -0.3, 0.2]),
    "shuber-m6": ("shuber", 1.5, 6, 3.0, [0.8, -0.5, 0.3]),
    "probit-m6": ("probit", None, 6, 3.0, [0.8, -0.5, 0.3]),
    "logit-m6": ("logit", None, 6, 4.0, [0.8, -0.5, 0.3]),
}
PRIORS = {"gaussian": PriorSpec.gaussian(4.0), "flat": PriorSpec.flat()}
# every surrogate MAP here lies inside this ball, and some Newton candidates
# and stationarity tests outside it, so the projection is exercised
DOMAIN_RADIUS = 1.2


def golden_outputs(case: str) -> dict[str, np.ndarray]:
    model, scale, M, R, theta = CASES[case]
    spec = get_mapping(model, scale)
    train = synthesize_arrays(model, 3, 400, 21, theta, scale=scale)
    stats = build_stats(ArrayStream(*train), spec, M, R)
    out = {}
    for name, prior in PRIORS.items():
        for radius in (None, DOMAIN_RADIUS):
            post = posterior_general(stats, None, prior, domain_radius=radius)
            key = f"{name}/{'ball' if radius else 'free'}"
            out[f"{key}/map"] = post.map_estimate
            out[f"{key}/chol"] = post.laplace.chol
            out[f"{key}/logdet"] = np.array(post.laplace.logdet)
        theta_map, hess = exact_map(spec, prior, train)
        out[f"{name}/exact_map"] = theta_map
        out[f"{name}/exact_hess"] = hess
        exact = laplace(spec, prior, train)
        out[f"{name}/laplace_mean"] = exact.mean
        out[f"{name}/laplace_chol"] = exact.chol
        out[f"{name}/laplace_logdet"] = np.array(exact.logdet)
    return out


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as f:
        return dict(f)


@pytest.mark.parametrize("case", list(CASES))
def test_newton_outputs_match_golden_bit_for_bit(case, golden):
    got = golden_outputs(case)
    expected = {k.split("/", 1)[1]: v for k, v in golden.items() if k.startswith(case + "/")}
    assert sorted(got) == sorted(expected)
    for name, value in got.items():
        assert np.array_equal(value, expected[name]), name
