"""Computations made apart from the package, with numpy and scipy only.

Every check of the benchmark compares the package's output with one of these
or with a property the method must have; none compares with a stored copy of
an earlier output.
"""

from __future__ import annotations

import math
import struct
from itertools import combinations_with_replacement

import numpy as np
from scipy import linalg, special


def chebyshev_monomials(phi, M: int, R: float, nodes: int = 4096) -> np.ndarray:
    """Monomial coefficients, in ``s``, of the degree-``M`` truncated
    Chebyshev series of ``phi`` on ``[-R, R]`` from Gauss-Chebyshev nodes."""
    angles = np.pi * (np.arange(nodes) + 0.5) / nodes
    f = phi(R * np.cos(angles))
    a = np.array([2.0 / nodes * float(f @ np.cos(m * angles)) for m in range(M + 1)])
    a[0] /= 2.0
    return np.polynomial.chebyshev.cheb2poly(a) / R ** np.arange(M + 1)


def logit_phi(s):
    return -np.logaddexp(0.0, -s)


def neg_exp(s):
    return -np.exp(s)


def identity(s):
    return np.asarray(s, dtype=float)


# --- the statistics file -----------------------------------------------------

_CRC_TABLE = []
for _i in range(256):
    _c = _i
    for _ in range(8):
        _c = (_c >> 1) ^ 0x82F63B78 if _c & 1 else _c >> 1
    _CRC_TABLE.append(_c)


def crc32c(data: bytes) -> int:
    crc = 0xFFFFFFFF
    table = _CRC_TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


# magic, version, model id, scale, d, M, R, n
PGLM_HEADER = struct.Struct("<4sHHdQHdQ")


def read_pglm(data: bytes) -> dict:
    """Header fields and entries of a PGLM v1 file; raises ValueError."""
    head = PGLM_HEADER
    magic, version, model_id, scale, d, M, radius, n = head.unpack_from(data)
    if magic != b"PGLM" or version != 1:
        raise ValueError("bad magic or version")
    (crc,) = struct.unpack("<I", data[-4:])
    if crc != crc32c(data[:-4]):
        raise ValueError("CRC-32C mismatch")
    values = np.frombuffer(data[head.size : -4], dtype="<f8")
    return {"model_id": model_id, "d": d, "M": M, "radius": radius, "n": n, "values": values}


def raw_m2_stats(Z: np.ndarray) -> np.ndarray:
    """n, sum z and the upper triangle of Z^T Z, row by row."""
    d = Z.shape[1]
    G = Z.T @ Z
    return np.concatenate([[len(Z)], Z.sum(axis=0), G[np.triu_indices(d)]])


def multi_indices(d: int, M: int):
    """Per degree: sorted variable tuples, in combinations-with-replacement order."""
    return [list(combinations_with_replacement(range(d), m)) for m in range(M + 1)]


def general_stats(X: np.ndarray, G: np.ndarray, M: int, chunk: int = 1024) -> np.ndarray:
    """``t_k = multinom(k) sum_n G[n, |k|] x_n^k`` over graded multi-indices."""
    combos = multi_indices(X.shape[1], M)
    multinom = [np.array([math.factorial(m) / math.prod(math.factorial(c.count(v)) for v in set(c))
                          for c in level]) for m, level in enumerate(combos)]
    where = [{c: i for i, c in enumerate(level)} for level in combos]
    parent = [None] + [np.array([where[m - 1][c[1:]] for c in combos[m]]) for m in range(1, M + 1)]
    first = [None] + [np.array([c[0] for c in combos[m]]) for m in range(1, M + 1)]
    out = [np.zeros(len(level)) for level in combos]
    for lo in range(0, len(X), chunk):
        Xc, Gc = X[lo : lo + chunk], G[lo : lo + chunk]
        mono = np.ones((len(Xc), 1))
        out[0] += Gc[:, 0].sum()
        for m in range(1, M + 1):
            mono = mono[:, parent[m]] * Xc[:, first[m]]
            out[m] += Gc[:, m] @ mono
    return np.concatenate([t * c for t, c in zip(out, multinom)])


# --- posteriors ----------------------------------------------------------------


def lr2_posterior(b: np.ndarray, Z: np.ndarray, prior_var: float):
    """Mean and covariance of the degree-2 logistic surrogate posterior."""
    d = Z.shape[1]
    precision = np.eye(d) / prior_var - 2.0 * b[2] * (Z.T @ Z)
    factor = linalg.cho_factor(precision)
    return linalg.cho_solve(factor, b[1] * Z.sum(axis=0)), linalg.cho_solve(factor, np.eye(d))


def poly_derivs(b: np.ndarray, s: np.ndarray):
    """Values, first and second derivatives of the monomial polynomial ``b``."""
    P = np.polynomial.polynomial
    return P.polyval(s, b), P.polyval(s, P.polyder(b)), P.polyval(s, P.polyder(b, 2))


def poisson_surrogate(b_id, b_exp, y, X, theta, prior_var):
    """Value, gradient and Hessian of the polynomial Poisson log-posterior,
    ``sum_n y_n p_id(s_n) + p_exp(s_n) - |theta|^2 / (2 sigma^2)``."""
    s = X @ theta
    v1, d1, h1 = poly_derivs(b_id, s)
    v2, d2, h2 = poly_derivs(b_exp, s)
    value = float(y @ v1 + v2.sum()) - 0.5 * float(theta @ theta) / prior_var
    grad = X.T @ (y * d1 + d2) - theta / prior_var
    hess = X.T @ ((y * h1 + h2)[:, None] * X) - np.eye(X.shape[1]) / prior_var
    return value, grad, hess


def project_ball(theta: np.ndarray, radius: float | None) -> np.ndarray:
    norm = float(np.linalg.norm(theta))
    return theta if radius is None or norm <= radius else theta * (radius / norm)


def exact_grad(model: str, y, X, theta, prior_var):
    """Gradient of the exact log-posterior and the sum of its terms' sizes."""
    s = X @ theta
    w = y * special.expit(-y * s) if model == "logit" else y - np.exp(s)
    grad = X.T @ w - theta / prior_var
    scale = float(np.abs(w) @ np.linalg.norm(X, axis=1)) + float(np.linalg.norm(theta)) / prior_var
    return grad, scale


def nll(model: str, y, X, theta) -> float:
    s = X @ theta
    if model == "logit":
        return float(np.mean(np.logaddexp(0.0, -y * s)))
    return float(np.mean(np.exp(s) - y * s + special.gammaln(y + 1.0)))


def gaussian_w2(mean_a, chol_a, mean_b, chol_b) -> float:
    """W2 between Gaussians given Cholesky factors ``A = La La^T``:
    ``tr((A^1/2 B A^1/2)^1/2)`` is the sum of square roots of the
    eigenvalues of ``La^T B La``."""
    cov_b = chol_b @ chol_b.T
    eig = linalg.eigvalsh(chol_a.T @ cov_b @ chol_a)
    sq = (float(np.sum((mean_a - mean_b) ** 2)) + float(np.sum(chol_a**2))
          + float(np.sum(chol_b**2)) - 2.0 * float(np.sum(np.sqrt(np.clip(eig, 0.0, None)))))
    return math.sqrt(max(sq, 0.0))


def rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))
