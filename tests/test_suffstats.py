import itertools
import math
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passglm.errors import (
    CapacityError,
    ConfigMismatchError,
    InvalidInputError,
    NumericError,
    StatsFormatError,
)
import passglm.suffstats as suffstats
from passglm.data import DEFAULT_BATCH, ArrayStream, build_stats, run_sharded
from passglm.mappings import (
    MAPPING_FACTORIES,
    degree_weights,
    fit_terms,
    get_mapping,
    mapping_logit,
    mapping_poisson,
    mapping_shuber,
)
from passglm.suffstats import (
    SuffStats,
    crc32c,
    deserialize,
    enumerate_indices,
    load_stats,
    merge,
    new_stats,
    serialize,
)

DATA = Path(__file__).parent / "data"


def crc32c_bytewise(data: bytes, crc: int = 0) -> int:
    """CRC-32C (Castagnoli) one byte at a time, the reference for ``crc32c``."""
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ 0x82F63B78 if c & 1 else c >> 1
        table.append(c)
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def dense_key(row, d):
    """Dense exponent vector of a multi-index row (variables padded with -1)."""
    return tuple(int(e) for e in np.bincount(row[row >= 0], minlength=d))


def oracle_indices(d, M):
    """Independent graded-lex enumeration over dense exponent tuples."""
    all_idx = [
        k
        for k in itertools.product(range(M + 1), repeat=d)
        if sum(k) <= M
    ]
    all_idx.sort(key=lambda k: (sum(k), tuple(-v for v in k)))
    return all_idx


def cwr_rows(d, M):
    """Canonical order as ``itertools.combinations_with_replacement``, degree by
    degree, padded with -1 to ``M`` columns."""
    out = np.full((math.comb(d + M, d), M), -1, dtype=np.int64)
    i = 0
    for m in range(M + 1):
        for combo in itertools.combinations_with_replacement(range(d), m):
            out[i, :m] = combo
            i += 1
    return out


def oracle_raw_stats(y, X, indices):
    """Independently coded two-loop accumulation of sum_n (y_n x_n)^k."""
    t = np.zeros(len(indices))
    for i in range(len(y)):
        z = y[i] * X[i]
        for pos, k in enumerate(indices):
            v = 1.0
            for j, e in enumerate(k):
                v *= z[j] ** e
            t[pos] += v
    return t


class TestEnumerateIndices:
    def test_d2_m2_explicit(self):
        iset = enumerate_indices(2, 2)
        dense = [dense_key(r, 2) for r in iset.rows]
        assert dense == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_d1_m3(self):
        iset = enumerate_indices(1, 3)
        assert [dense_key(r, 1) for r in iset.rows] == [(0,), (1,), (2,), (3,)]

    def test_large_d_linear_statistics(self):
        iset = enumerate_indices(20_000, 1)
        assert len(iset) == 20_001

    @pytest.mark.parametrize("d,M", [(2, 3), (4, 2), (5, 4), (3, 0)])
    def test_cardinality_and_order(self, d, M):
        iset = enumerate_indices(d, M)
        assert len(iset) == math.comb(d + M, d)
        assert [dense_key(r, d) for r in iset.rows] == oracle_indices(d, M)

    @pytest.mark.parametrize("d,M", [(10, 6), (500, 2)])
    def test_order_is_combinations_with_replacement_per_degree(self, d, M):
        iset = enumerate_indices(d, M)
        np.testing.assert_array_equal(iset.rows, cwr_rows(d, M))

    @pytest.mark.parametrize("d,M", [(3, 2), (2, 4), (4, 5)])
    def test_up_adds_one_variable(self, d, M):
        iset = enumerate_indices(d, M)
        keys = [dense_key(r, d) for r in iset.rows]
        assert iset.up.shape == (math.comb(d + M - 1, d), d)
        for j, row in enumerate(iset.up):
            for u, pos in enumerate(row):
                assert keys[pos] == tuple(e + (v == u) for v, e in enumerate(keys[j]))

    def test_multinomial_cache(self):
        iset = enumerate_indices(3, 3)
        for row, m in zip(iset.rows, iset.multinom):
            exps = dense_key(row, 3)
            kbar = sum(exps)
            denom = 1
            for e in exps:
                denom *= math.factorial(e)
            assert m == math.factorial(kbar) / denom

    def test_capacity_error_advises_projection(self):
        with pytest.raises(CapacityError, match="projection"):
            enumerate_indices(20_000, 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            enumerate_indices(0, 2)
        with pytest.raises(InvalidInputError):
            enumerate_indices(3, -1)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 8), M=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    @example(d=1, M=0, seed=0)
    @example(d=4, M=1, seed=0)
    def test_prefix_relation_derives_every_table(self, d, M, seed):
        """``parent`` rebuilds ``combinations_with_replacement`` order degree
        by degree; ``up``, ``multinom`` and ``monomials`` match brute force
        over the sorted variable tuples."""
        iset = enumerate_indices(d, M)
        tuples = [()]
        for m in range(1, M + 1):
            prefix, last = iset.parent[m]
            block = [tuples[iset.offsets[m - 1] + p] + (v,) for p, v in zip(prefix, last)]
            assert block == list(itertools.combinations_with_replacement(range(d), m))
            tuples += block
        position = {t: i for i, t in enumerate(tuples)}
        up = [[position[tuple(sorted(t + (u,)))] for u in range(d)] for t in tuples[: iset.offsets[M]]]
        assert iset.up.tolist() == up
        counts = [[t.count(u) for u in range(d)] for t in tuples]
        expected = [math.factorial(sum(k)) / math.prod(map(math.factorial, k)) for k in counts]
        assert iset.multinom.tolist() == expected
        theta = np.random.default_rng(seed).uniform(-1.5, 1.5, (3, d))
        mono = iset.monomials(theta, M)
        assert mono.shape == (len(iset), 3)
        # theta**k multiplied left to right over the sorted variables, as
        # the recurrence does, so the values are equal bit for bit
        assert mono.T.tolist() == [[math.prod(row[list(t)]) for t in tuples] for row in theta]


class TestAccumulate:
    def test_single_logistic_record(self):
        iset = enumerate_indices(2, 2)
        stats = new_stats(iset, mapping_logit(), 4.0)
        with pytest.warns(UserWarning, match="norm"):
            stats.accumulate_batch(np.array([1.0]), np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(stats.values(), [1, 1, 2, 1, 2, 4])
        assert stats.n == 1

    def test_negative_label_sign_pattern(self):
        iset = enumerate_indices(2, 2)
        stats = new_stats(iset, mapping_logit(), 4.0)
        with pytest.warns(UserWarning, match="norm"):
            stats.accumulate_batch(np.array([-1.0]), np.array([[1.0, 2.0]]))
        vals = stats.values()
        assert vals[iset.up[0, 0]] == -1.0
        assert vals[iset.up[iset.up[0, 0], 0]] == 1.0

    def test_sparse_and_dense_records_agree(self):
        iset = enumerate_indices(4, 2)
        a = new_stats(iset, mapping_logit(), 4.0)
        b = new_stats(iset, mapping_logit(), 4.0)
        a.accumulate_batch(np.array([1.0]), np.array([[0.0, 0.3, 0.0, -0.4]]))
        b.accumulate_batch(np.array([1.0]), sp.csr_matrix(([0.3, -0.4], [1, 3], [0, 2]), shape=(1, 4)))
        np.testing.assert_array_equal(a.values(), b.values())

    @pytest.mark.parametrize("M", [1, 2, 4])
    def test_against_two_loop_oracle(self, M):
        rng = np.random.default_rng(42)
        d, n = 3, 1000
        X = rng.uniform(-0.5, 0.5, (n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        iset = enumerate_indices(d, M)
        stats = new_stats(iset, mapping_logit(), 4.0)
        stats.accumulate_batch(y, X)
        expected = oracle_raw_stats(y, X, oracle_indices(d, M))
        scale = np.maximum(1e-30, np.abs(expected))
        assert np.max(np.abs(stats.values() - expected) / scale) <= 1e-10

    def test_batch_equals_per_record(self):
        rng = np.random.default_rng(3)
        d, n = 4, 60
        X = rng.uniform(-0.4, 0.4, (n, d))
        y = np.where(rng.random(n) < 0.4, 1.0, -1.0)
        iset = enumerate_indices(d, 2)
        a = new_stats(iset, mapping_logit(), 4.0)
        a.accumulate_batch(y, X)
        b = new_stats(iset, mapping_logit(), 4.0)
        for i in range(n):
            b.accumulate_batch(y[i : i + 1], X[i : i + 1])
        np.testing.assert_allclose(a.values(), b.values(), rtol=1e-13, atol=1e-15)

    def test_general_form_batch_equals_per_record(self):
        rng = np.random.default_rng(4)
        d, n = 3, 50
        X = rng.uniform(-0.4, 0.4, (n, d))
        y = rng.normal(0, 1, n)
        iset = enumerate_indices(d, 3)
        spec = mapping_shuber(1.0)
        a = new_stats(iset, spec, 2.0)
        a.accumulate_batch(y, X)
        b = new_stats(iset, spec, 2.0)
        for i in range(n):
            b.accumulate_batch(y[i : i + 1], X[i : i + 1])
        np.testing.assert_allclose(a.values(), b.values(), rtol=1e-12, atol=1e-14)

    def test_t0_counts_records_for_logistic(self):
        iset = enumerate_indices(3, 2)
        stats = new_stats(iset, mapping_logit(), 4.0)
        rng = np.random.default_rng(0)
        X = rng.uniform(-0.3, 0.3, (17, 3))
        y = np.ones(17)
        stats.accumulate_batch(y, X)
        assert stats.values()[0] == 17.0
        assert stats.n == 17

    def test_dimension_mismatch(self):
        iset = enumerate_indices(3, 2)
        stats = new_stats(iset, mapping_logit(), 4.0)
        with pytest.raises(InvalidInputError):
            stats.accumulate_batch(np.array([1.0]), np.array([[1.0, 2.0]]))
        with pytest.raises(InvalidInputError):
            stats.accumulate_batch(np.array([1.0]), sp.csr_matrix(([1.0], [5], [0, 1]), shape=(1, 6)))

    def test_nonfinite_covariate(self):
        iset = enumerate_indices(2, 2)
        stats = new_stats(iset, mapping_logit(), 4.0)
        with pytest.raises(Exception, match="non-finite"):
            stats.accumulate_batch(np.array([1.0]), np.array([[np.nan, 0.0]]))

    @pytest.mark.parametrize(
        "model,label,error",
        [
            ("poisson", np.nan, NumericError),
            ("shuber", np.inf, NumericError),
            ("poisson", -3.0, InvalidInputError),
            ("gamma", -1.0, InvalidInputError),
        ],
    )
    def test_label_outside_model_domain_names_record(self, model, label, error):
        rng = np.random.default_rng(12)
        X = rng.uniform(-0.4, 0.4, (10, 2))
        y = np.ones(10)
        stats = new_stats(enumerate_indices(2, 2), get_mapping(model), 2.0)
        stats.accumulate_batch(y[:4], X[:4])
        y[7] = label
        with pytest.raises(error, match="record 7"):
            stats.accumulate_batch(y[4:], X[4:])
        assert stats.n == 4
        assert np.all(np.isfinite(stats.values()))

    @pytest.mark.parametrize("model", ["logit", "poisson"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda s, X: s.accumulate_batch(np.array([1.0]), X),
            lambda s, X: s.accumulate_batch(np.ones((5, 1)), X),
            lambda s, X: s.accumulate_batch(np.ones(6), X),
            lambda s, X: s.accumulate_batch(np.ones(2), X[:1]),
            lambda s, X: s.accumulate_batch(np.ones(2), sp.csr_matrix(X[:1])),
        ],
        ids=["one label", "column labels", "more labels", "vector label",
             "vector label sparse"],
    )
    def test_labels_that_do_not_match_the_rows_add_nothing(self, model, call):
        rng = np.random.default_rng(13)
        X = rng.uniform(-0.4, 0.4, (5, 3))
        stats = new_stats(enumerate_indices(3, 2), get_mapping(model), 2.0)
        stats.accumulate_batch(np.ones(2), X[:2])
        before = stats.values().copy()
        with pytest.raises(InvalidInputError):
            call(stats, X)
        assert stats.n == 2
        np.testing.assert_array_equal(stats.values(), before)


class TestNormWarning:
    """The covariate-norm premise warning names the caller's line, whichever
    entry point folded the records (sharded runs: ``test_data.py``)."""

    X = np.full((4, 3), 0.9)  # 2-norm 1.56
    y = np.array([1.0, -1.0, 1.0, -1.0])

    def _fresh(self):
        return new_stats(enumerate_indices(3, 2), mapping_logit(), 4.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: t._fresh().accumulate_batch(t.y[:1], t.X[:1]),
            lambda t: t._fresh().accumulate_batch(t.y[:1], sp.csr_matrix(t.X[:1])),
            lambda t: t._fresh().accumulate_batch(t.y, t.X),
            lambda t: build_stats(ArrayStream(t.y, t.X), mapping_logit(), 2, 4.0),
            lambda t: run_sharded(ArrayStream(t.y, t.X), 1, mapping_logit(), 2, 4.0),
        ],
        ids=["dense record", "sparse record", "batch", "build_stats", "one shard"],
    )
    def test_names_the_calling_file(self, call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(self)
        (norm,) = [w for w in caught if "2-norm exceeds 1" in str(w.message)]
        assert norm.filename == __file__


def brute_force_stats(spec, approxes, y, X, M):
    """Every statistic as an explicit sum over records of its weight times
    ``np.prod`` of its variables, indices from
    ``itertools.combinations_with_replacement``."""
    base = y[:, None] * X if spec.raw_monomial else X
    G = None if spec.raw_monomial else degree_weights(spec, approxes, y)
    out = []
    for m in range(M + 1):
        for combo in itertools.combinations_with_replacement(range(X.shape[1]), m):
            mono = np.prod(base[:, list(combo)], axis=1)
            if G is None:
                out.append(mono.sum())
            else:
                repeats = [math.factorial(combo.count(v)) for v in set(combo)]
                multinom = math.factorial(m) / math.prod(repeats)
                out.append(multinom * (G[:, m] * mono).sum())
    return np.array(out)


def model_records(spec, rng, n, d):
    X = rng.uniform(-1.0, 1.0, (n, d))
    X /= 1.25 * np.linalg.norm(X, axis=1, keepdims=True)
    return spec.sample(rng, X @ rng.normal(0.0, 1.0, d)), X


def batch_delta_m2(iset, base, G):
    """The degree <= 2 batch update that preceded the one kernel: column sums
    and the upper triangle of one rank-B Gram matrix."""
    raw = G is None
    parts = [np.asarray([len(base) if raw else G[:, 0].sum()], dtype=float)]
    if iset.M >= 1:
        parts.append(base.sum(axis=0) if raw else base.T @ G[:, 1])
    if iset.M >= 2:
        G2 = base.T @ (base if raw else G[:, 2, None] * base)
        pairs = iset.rows[iset.offsets[2] :]
        parts.append(G2[pairs[:, 0], pairs[:, 1]])
    delta = np.concatenate(parts)
    return delta if raw else iset.multinom * delta


class TestKernel:
    @pytest.mark.parametrize("block_bytes", [512, None])
    @pytest.mark.parametrize("M", range(8))
    @pytest.mark.parametrize("model", sorted(MAPPING_FACTORIES))
    def test_matches_brute_force(self, model, M, block_bytes, monkeypatch):
        if block_bytes is not None:  # many record blocks and one-head chunks
            monkeypatch.setattr(suffstats, "_BLOCK_BYTES", block_bytes)
        spec = get_mapping(model)
        approxes = None if spec.raw_monomial else fit_terms(spec, M, 2.0)
        rng = np.random.default_rng(100 * M + len(model))
        for d in range(1, 9):
            y, X = model_records(spec, rng, 37, d)
            stats = new_stats(enumerate_indices(d, M), spec, 2.0)
            stats.accumulate_batch(y[:20], X[:20]).accumulate_batch(y[20:], X[20:])
            expected = brute_force_stats(spec, approxes, spec.canonicalize_y(y), X, M)
            scale = np.abs(expected).max()
            np.testing.assert_allclose(stats.values(), expected, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("d,n", [(20, 8192), (500, 500)])
    @pytest.mark.parametrize("M", [1, 2])
    @pytest.mark.parametrize("model", ["logit", "poisson"])
    def test_degree_two_is_bit_identical_to_gram_formula(self, model, M, d, n):
        spec = get_mapping(model)
        iset = enumerate_indices(d, M)
        stats = new_stats(iset, spec, 4.0)
        t = np.zeros(len(iset))
        rng = np.random.default_rng(d + M)
        for _ in range(2):
            y, X = model_records(spec, rng, n, d)
            stats.accumulate_batch(y, X)
            y = spec.canonicalize_y(y)
            base = y[:, None] * X if spec.raw_monomial else X
            G = None if spec.raw_monomial else degree_weights(spec, stats.approxes, y)
            t += batch_delta_m2(iset, base, G)
        assert np.array_equal(stats.t, t)

    @pytest.mark.parametrize("block_bytes", [512, None])
    @pytest.mark.parametrize(
        "model,d,M",
        [(model, 12, M) for model in ("logit", "poisson") for M in (3, 4, 5)]
        + [("logit", 30, 3), ("logit", 30, 4), ("poisson", 30, 3), ("poisson", 30, 4), ("poisson", 30, 5)],
    )
    def test_merged_and_split_chunks_match_brute_force(self, model, d, M, block_bytes, monkeypatch):
        if block_bytes is not None:
            monkeypatch.setattr(suffstats, "_BLOCK_BYTES", block_bytes)
        spec = get_mapping(model)
        iset = enumerate_indices(d, M)
        # the cases this covers: chunks spanning several last variables by
        # default, and one last variable's heads split at 512 bytes (a head
        # of degree 1 is its last variable's only one)
        lasts = [
            [np.unique(iset.parent[m // 2][1][heads]) for heads, _, _ in iset.halves[m]]
            for m in range(3, M + 1)
        ]
        merged = any(c.size > 1 for chunks in lasts for c in chunks)
        split = any(np.unique(np.concatenate(c)).size < sum(map(len, c)) for c in lasts)
        assert merged if block_bytes is None else (split or M == 3)
        approxes = None if spec.raw_monomial else fit_terms(spec, M, 2.0)
        y, X = model_records(spec, np.random.default_rng(d + M), 9, d)
        stats = new_stats(iset, spec, 2.0).accumulate_batch(y, X)
        expected = brute_force_stats(spec, approxes, spec.canonicalize_y(y), X, M)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(stats.values(), expected, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("d,M", [(10, 6), (12, 5), (30, 4), (100, 3)])
    def test_chunks_multiply_few_cells_they_do_not_read(self, d, M):
        iset = enumerate_indices(d, M)
        for m in range(3, M + 1):
            chunks = iset.halves[m]
            cells = np.concatenate([dest.ravel() for _, _, dest in chunks])
            # every entry of the degree is written by exactly one cell
            read = np.sort(cells[cells < len(iset)])
            np.testing.assert_array_equal(read, np.arange(iset.offsets[m], iset.offsets[m + 1]))
            if (d, M) == (10, 6):  # full products took 4.2x, 6.0x and 9.7x at degrees 4-6
                assert cells.size <= 1.5 * read.size

    def test_memory_stays_below_full_monomial_gather(self):
        # A block's monomials and one chunk's heads fill _BLOCK_BYTES, or the
        # statistics' size where that is more, and a chunk's product at most
        # _BLOCK_BYTES, beside the block's statistics; the add then holds the
        # monomials' buffers and the block's statistics, and the bound leaves
        # room for two temporaries of their size.  Earlier kernels peaked here
        # at 33.0 MB (a full monomial gather) and 21.8 MB (weighted tails left
        # uncounted).
        rng = np.random.default_rng(60)
        spec = mapping_poisson()
        y, X = model_records(spec, rng, 300, 60)
        iset = enumerate_indices(60, 4)
        stats = new_stats(iset, spec, 2.0)
        stats.accumulate_batch(y[:2], X[:2])  # build the cached chunks
        monomials = max(suffstats._BLOCK_BYTES, 8 * len(iset))
        kernel = 8 * (len(iset) + 1) + monomials + suffstats._BLOCK_BYTES
        inputs = 1e6  # the covariates, labels and weights, a few copies each
        tracemalloc.start()
        try:
            stats.accumulate_batch(y, X)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            step = monomials // (8 * iset.held)
            G = degree_weights(spec, stats.approxes, y[:step])
            before = tracemalloc.get_traced_memory()[0]
            suffstats._delta(iset, X[:step], G)
            block = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert block < kernel + inputs
        assert peak < max(kernel, monomials + 3 * 8 * len(iset)) + inputs


class TestSparseRecords:
    """A record given as a one-row CSR batch adds what its dense row adds.
    CSR entries of one row may come in any order, and a repeated column
    sums its entries, as ``scipy.sparse`` reads it."""

    @pytest.mark.parametrize(
        "indices",
        [[1, 4, 6, 9], [9, 1, 6, 4], [4, 1, 4, 9, 1], [], [7]],
        ids=["sorted", "unsorted", "repeated", "empty", "single"],
    )
    @pytest.mark.parametrize("M", [1, 2, 3, 5])
    @pytest.mark.parametrize("model", ["logit", "poisson", "shuber"])
    def test_matches_dense_record(self, model, M, indices):
        d = 11
        spec = get_mapping(model)
        rng = np.random.default_rng(M)
        iset = enumerate_indices(d, M)
        sparse = new_stats(iset, spec, 2.0)
        dense = new_stats(iset, spec, 2.0)
        for _ in range(4):
            idx = np.array(indices, dtype=np.int64)
            vals = rng.uniform(-0.4, 0.4, idx.size)
            x = np.zeros(d)
            np.add.at(x, idx, vals)
            y = spec.sample(rng, np.array([x.sum()]))
            sparse.accumulate_batch(y, sp.csr_matrix((vals, idx, [0, idx.size]), shape=(1, d)))
            dense.accumulate_batch(y, x[None, :])
        np.testing.assert_allclose(sparse.values(), dense.values(), rtol=1e-12, atol=1e-15)
        assert sparse.n == dense.n == 4


class TestSurrogateIdentity:
    """Central correctness property: the statistics reassemble the surrogate
    log-likelihood exactly."""

    def _surrogate_from_stats(self, stats, b):
        iset = stats.index_set
        vals = stats.values()
        if stats.mapping.raw_monomial:
            coef = iset.multinom * b[iset.degrees] * vals
        else:
            coef = vals

        def value(theta):
            total = 0.0
            for row, c in zip(iset.rows, coef):
                v = c
                for j in row[row >= 0]:
                    v *= theta[j]
                total += v
            return total

        return value

    @pytest.mark.parametrize("M,d,n", [(2, 2, 100), (2, 5, 200), (6, 3, 150)])
    def test_logistic_identity(self, M, d, n):
        rng = np.random.default_rng(M * 100 + d)
        X = rng.uniform(-0.4, 0.4, (n, d))
        X /= np.maximum(1.0, np.linalg.norm(X, axis=1, keepdims=True))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        spec = mapping_logit()
        (approx,) = fit_terms(spec, M, 4.0)
        iset = enumerate_indices(d, M)
        stats = new_stats(iset, spec, 4.0)
        stats.accumulate_batch(y, X)
        surrogate = self._surrogate_from_stats(stats, approx.b)
        for _ in range(5):
            theta = rng.normal(0, 0.8, d)
            s = (y * (X @ theta))
            direct = float(sum(approx.b[m] * (s**m).sum() for m in range(M + 1)))
            assert surrogate(theta) == pytest.approx(direct, rel=1e-8)

    def test_poisson_identity(self):
        rng = np.random.default_rng(9)
        d, n, M, R = 2, 120, 4, 2.0
        X = rng.uniform(-0.4, 0.4, (n, d))
        y = rng.poisson(1.2, n).astype(float)
        spec = mapping_poisson()
        approxes = fit_terms(spec, M, R)
        iset = enumerate_indices(d, M)
        stats = new_stats(iset, spec, R)
        stats.accumulate_batch(y, X)
        surrogate = self._surrogate_from_stats(stats, None)
        for _ in range(5):
            theta = rng.normal(0, 0.5, d)
            s = X @ theta
            direct = 0.0
            for term, approx in zip(spec.terms, approxes):
                fvals = np.polynomial.polynomial.polyval(s, approx.b)
                direct += float((y**term.y_power * fvals).sum())
            assert surrogate(theta) == pytest.approx(direct, rel=1e-8)

    def test_shuber_identity_with_offset(self):
        rng = np.random.default_rng(10)
        d, n, M, R = 3, 80, 4, 3.0
        X = rng.uniform(-0.3, 0.3, (n, d))
        y = rng.normal(0, 0.8, n)
        spec = mapping_shuber(1.0)
        approxes = fit_terms(spec, M, R)
        iset = enumerate_indices(d, M)
        stats = new_stats(iset, spec, R)
        stats.accumulate_batch(y, X)
        surrogate = self._surrogate_from_stats(stats, None)
        for _ in range(5):
            theta = rng.normal(0, 0.5, d)
            s = X @ theta
            fvals = np.polynomial.polynomial.polyval(s - y, approxes[0].b)
            assert surrogate(theta) == pytest.approx(float(fvals.sum()), rel=1e-8)


def long_double_sums(Z, M, chunk=256):
    """``sum_n Z_n**k`` for every index ``k`` in ``cwr_rows`` order, in
    ``np.longdouble``: each degree's monomials extend the previous degree's
    by one variable, a chunk of records at a time."""
    rows = cwr_rows(Z.shape[1], M)
    at = {tuple(r[r >= 0]): i for i, r in enumerate(rows)}
    degree = (rows >= 0).sum(axis=1)
    prefix = np.array([at[tuple(r[r >= 0][:-1])] if m else 0 for r, m in zip(rows, degree)])
    last = rows[np.arange(len(rows)), np.maximum(degree - 1, 0)]
    Z = Z.astype(np.longdouble)
    total = np.zeros(len(rows), dtype=np.longdouble)
    for lo in range(0, len(Z), chunk):
        mono = np.ones((len(rows), len(Z[lo : lo + chunk])), dtype=np.longdouble)
        for m in range(1, M + 1):
            block = np.flatnonzero(degree == m)
            mono[block] = mono[prefix[block]] * Z[lo : lo + chunk, last[block]].T
        total += mono.sum(axis=1)
    return total


class TestMerge:
    def _random_stats(self, rng, n, iset, radius=4.0):
        stats = new_stats(iset, mapping_logit(), radius)
        X = rng.uniform(-0.4, 0.4, (n, iset.d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        stats.accumulate_batch(y, X)
        return stats

    def test_merge_with_empty_is_identity(self):
        rng = np.random.default_rng(1)
        iset = enumerate_indices(3, 2)
        a = self._random_stats(rng, 50, iset)
        empty = new_stats(iset, mapping_logit(), 4.0)
        merged = merge(a, empty)
        np.testing.assert_array_equal(merged.t, a.t)
        assert merged.n == a.n

    def test_merge_commutes_within_tolerance(self):
        rng = np.random.default_rng(2)
        iset = enumerate_indices(3, 2)
        a = self._random_stats(rng, 70, iset)
        b = self._random_stats(rng, 90, iset)
        ab = merge(a, b).values()
        ba = merge(b, a).values()
        scale = np.maximum(1e-30, np.abs(ab))
        assert np.max(np.abs(ab - ba) / scale) <= 1e-12

    def test_eight_way_shard_matches_sequential(self):
        rng = np.random.default_rng(3)
        d, n = 4, 10_000
        X = rng.uniform(-0.4, 0.4, (n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        iset = enumerate_indices(d, 2)
        sequential = new_stats(iset, mapping_logit(), 4.0)
        sequential.accumulate_batch(y, X)
        merged = None
        for i in range(8):
            shard = new_stats(iset, mapping_logit(), 4.0)
            shard.accumulate_batch(y[i::8], X[i::8])
            merged = shard if merged is None else merge(merged, shard)
        seq_vals, mrg_vals = sequential.values(), merged.values()
        scale = np.maximum(1e-30, np.abs(seq_vals))
        assert np.max(np.abs(seq_vals - mrg_vals) / scale) <= 1e-10
        assert merged.n == sequential.n == n

    def test_linearity_of_accumulation(self):
        rng = np.random.default_rng(4)
        iset = enumerate_indices(3, 2)
        r1 = (np.array([1.0]), rng.uniform(-0.5, 0.5, (1, 3)))
        r2 = (np.array([-1.0]), rng.uniform(-0.5, 0.5, (1, 3)))
        seq = new_stats(iset, mapping_logit(), 4.0)
        seq.accumulate_batch(*r1)
        seq.accumulate_batch(*r2)
        p1 = new_stats(iset, mapping_logit(), 4.0)
        p1.accumulate_batch(*r1)
        p2 = new_stats(iset, mapping_logit(), 4.0)
        p2.accumulate_batch(*r2)
        merged = merge(p1, p2)
        scale = np.maximum(1e-30, np.abs(seq.values()))
        assert np.max(np.abs(seq.values() - merged.values()) / scale) <= 1e-12

    def test_config_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        a = self._random_stats(rng, 10, enumerate_indices(3, 2), radius=4.0)
        b = self._random_stats(rng, 10, enumerate_indices(3, 2), radius=6.0)
        with pytest.raises(ConfigMismatchError):
            merge(a, b)
        c = new_stats(enumerate_indices(3, 2), mapping_shuber(1.0), 4.0)
        with pytest.raises(ConfigMismatchError):
            merge(a, c)

    @pytest.mark.parametrize("d,M", [(20, 2), (8, 6)])
    def test_many_blocks_and_shards_match_a_long_double_sum(self, d, M):
        # four batches, and at d = 8, M = 6 several kernel blocks each, added
        # to t by plain addition; the shards are merged the same way
        spec = mapping_logit()
        y, X = model_records(spec, np.random.default_rng(d + M), 3 * DEFAULT_BATCH + 1000, d)
        exact = long_double_sums(spec.canonicalize_y(y)[:, None] * X, M)
        bound = 1e-13 * np.abs(exact).max()
        sequential = build_stats(ArrayStream(y, X), spec, M, 2.0)
        sharded = run_sharded(ArrayStream(y, X), 3, spec, M, 2.0)
        for stats in (sequential, sharded):
            assert stats.n == len(y)
            assert np.abs(stats.values() - exact).max() <= bound

    @settings(max_examples=20, deadline=None)
    @given(split=st.integers(1, 59))
    def test_any_split_merges_back(self, split):
        rng = np.random.default_rng(99)
        d, n = 2, 60
        X = rng.uniform(-0.5, 0.5, (n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        iset = enumerate_indices(d, 2)
        whole = new_stats(iset, mapping_logit(), 4.0)
        whole.accumulate_batch(y, X)
        left = new_stats(iset, mapping_logit(), 4.0)
        left.accumulate_batch(y[:split], X[:split])
        right = new_stats(iset, mapping_logit(), 4.0)
        right.accumulate_batch(y[split:], X[split:])
        merged = merge(left, right)
        scale = np.maximum(1e-30, np.abs(whole.values()))
        assert np.max(np.abs(whole.values() - merged.values()) / scale) <= 1e-12


class TestSerialization:
    def _sample_stats(self):
        rng = np.random.default_rng(6)
        iset = enumerate_indices(3, 2)
        stats = new_stats(iset, mapping_logit(), 4.0)
        X = rng.uniform(-0.4, 0.4, (25, 3))
        y = np.where(rng.random(25) < 0.5, 1.0, -1.0)
        stats.accumulate_batch(y, X)
        return stats

    def test_crc32c_known_vector(self):
        assert crc32c(b"123456789") == 0xE3069283

    def test_crc32c_matches_byte_loop(self):
        data = np.random.default_rng(8).integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()
        for n in range(4101):
            assert crc32c(data[:n]) == crc32c_bytewise(data[:n]), n
        assert crc32c(data) == crc32c_bytewise(data)
        assert crc32c(bytearray(data[:77])) == crc32c_bytewise(data[:77])

    @settings(max_examples=60, deadline=None)
    @given(a=st.binary(max_size=3000), b=st.binary(max_size=3000))
    def test_crc32c_continues_an_earlier_checksum(self, a, b):
        assert crc32c(b, crc32c(a)) == crc32c(a + b)
        assert crc32c(b, crc32c_bytewise(a)) == crc32c_bytewise(b, crc32c_bytewise(a))

    def test_round_trip_is_bit_exact(self):
        stats = self._sample_stats()
        payload = serialize(stats)
        back = deserialize(payload)
        assert serialize(back) == payload
        np.testing.assert_array_equal(back.values(), stats.values())
        assert back.n == stats.n
        assert back.same_config(stats)

    def test_truncated_payload_fails_checksum(self):
        payload = serialize(self._sample_stats())
        with pytest.raises(StatsFormatError):
            deserialize(payload[:-5])

    def test_corrupted_byte_fails_checksum(self):
        payload = bytearray(serialize(self._sample_stats()))
        payload[40] ^= 0xFF
        with pytest.raises(StatsFormatError, match="checksum"):
            deserialize(bytes(payload))

    def test_bad_magic_and_version(self):
        payload = bytearray(serialize(self._sample_stats()))
        bad = b"XGLM" + bytes(payload[4:])
        with pytest.raises(StatsFormatError, match="magic"):
            deserialize(bad)
        payload[4] = 0xFF
        # restore a valid checksum over the altered body so the version is reached
        from passglm.suffstats import crc32c as _crc
        import struct

        body = bytes(payload[:-4])
        with pytest.raises(StatsFormatError, match="version"):
            deserialize(body + struct.pack("<I", _crc(body)))

    def test_header_checked_before_index_set_is_built(self, monkeypatch):
        import struct

        import passglm.suffstats as suffstats

        def refuse(*args, **kwargs):
            raise AssertionError("index set built for a header the payload contradicts")

        # 54 bytes whose header claims d = 2000, M = 2 over a single entry
        body = suffstats._HEADER.pack(b"PGLM", 1, 1, 0.0, 2000, 2, 4.0, 0) + bytes(8)
        payload = body + struct.pack("<I", crc32c(body))
        assert len(payload) == 54
        monkeypatch.setattr(suffstats, "enumerate_indices", refuse)
        with pytest.raises(StatsFormatError, match="entries"):
            deserialize(payload)

    @pytest.mark.parametrize("model", sorted(MAPPING_FACTORIES))
    def test_degree_above_the_maximum_is_refused_before_the_pass(self, model):
        stream = ArrayStream(np.ones(5), np.full((5, 1), 0.5))
        with pytest.raises(InvalidInputError, match="degree 21 exceeds the supported maximum 20"):
            build_stats(stream, get_mapping(model), 21, 2.0)
        assert stream.passes == 0
        top = build_stats(stream, get_mapping(model), 20, 2.0)
        assert merge(top, top).n == 10

    def test_header_degree_above_the_maximum_is_a_format_error(self):
        body = suffstats._HEADER.pack(b"PGLM", 1, 1, 0.0, 1, 21, 4.0, 0) + bytes(8 * 22)
        with pytest.raises(StatsFormatError, match="degree 21 exceeds the supported maximum"):
            deserialize(body + struct.pack("<I", crc32c(body)))

    def test_capacity_cap_applies_to_payload(self):
        with pytest.raises(CapacityError):
            deserialize(serialize(self._sample_stats()), cap=5)

    def test_general_form_round_trip_refits_coefficients(self):
        rng = np.random.default_rng(7)
        iset = enumerate_indices(2, 4)
        stats = new_stats(iset, mapping_shuber(1.5), 2.0)
        X = rng.uniform(-0.3, 0.3, (15, 2))
        stats.accumulate_batch(rng.normal(0, 1, 15), X)
        back = deserialize(serialize(stats))
        assert back.mapping.name == "shuber"
        assert back.mapping.scale == 1.5
        assert back.same_config(stats)
        merged = merge(stats, back)  # merging with itself must be allowed
        assert merged.n == 2 * stats.n


def hostile_file(model, scale, field, value):
    """A valid d = 2, M = 2 file of ``model`` with one header field, or entry
    ``3``, replaced and the checksum recomputed over the altered body."""
    stats = new_stats(enumerate_indices(2, 2), get_mapping(model, scale), 2.0)
    stats.accumulate_batch(np.ones(2), np.array([[0.1, 0.2], [0.3, -0.1]]))
    raw = bytearray(serialize(stats)[:-4])
    offset = {"scale": 8, "radius": 26, "entry": suffstats._HEADER.size + 3 * 8}[field]
    struct.pack_into("<d", raw, offset, value)
    return bytes(raw) + struct.pack("<I", crc32c(bytes(raw)))


# (model, scale, field, value, message) of files that must not load
HOSTILE_HEADERS = [
    ("logit", None, "radius", math.nan, "radius"),
    ("logit", None, "radius", 0.0, "radius"),
    ("poisson", None, "radius", -1.0, "radius"),
    ("shuber", 1.5, "radius", math.inf, "radius"),
    ("shuber", 1.5, "scale", -1.0, "scale"),
    ("shuber", 1.5, "scale", math.nan, "scale"),
    ("shuber", 1.5, "scale", 0.0, "scale"),
    ("shuber", 1.5, "scale", math.inf, "scale"),
    ("shuber", 1.5, "scale", 1e300, "scale"),
    ("cauchy", 1.5, "scale", 1e-300, "scale"),
    ("gamma", 1.5, "scale", 0.0, "scale"),
    ("logit", None, "scale", 1.0, "takes no scale"),
    ("poisson", None, "scale", math.nan, "takes no scale"),
    ("logit", None, "entry", math.inf, "entry 3"),
    ("poisson", None, "entry", math.nan, "entry 3"),
    ("shuber", 1.5, "entry", -math.inf, "entry 3"),
]


class TestHostileFiles:
    @pytest.mark.parametrize("model,scale,field,value,message", HOSTILE_HEADERS)
    def test_hostile_header_is_a_format_error(self, model, scale, field, value, message):
        with pytest.raises(StatsFormatError, match=message):
            deserialize(hostile_file(model, scale, field, value))

    @settings(max_examples=150, deadline=None)
    @given(
        model=st.sampled_from([("logit", None), ("poisson", None), ("shuber", 1.5)]),
        bytes_at=st.lists(st.tuples(st.integers(0, 89), st.integers(0, 255)), max_size=4),
        floats_at=st.lists(
            st.tuples(st.sampled_from([8, 26] + [42 + 8 * i for i in range(6)]), st.floats()),
            max_size=2,
        ),
    )
    def test_mutated_file_loads_as_written_or_is_refused(self, model, bytes_at, floats_at):
        stats = new_stats(enumerate_indices(2, 2), get_mapping(*model), 2.0)
        stats.accumulate_batch(np.ones(2), np.array([[0.1, 0.2], [0.3, -0.1]]))
        body = bytearray(serialize(stats)[:-4])
        assert len(body) == 90
        for at, value in floats_at:
            struct.pack_into("<d", body, at, value)
        for at, value in bytes_at:
            body[at] = value
        try:
            back = deserialize(bytes(body) + struct.pack("<I", crc32c(bytes(body))))
        except (StatsFormatError, CapacityError):
            return
        _, _, model_id, scale, d, M, radius, n = suffstats._HEADER.unpack_from(body)
        header = (back.mapping.model_id, back.mapping.scale or 0.0, back.index_set.d,
                  back.index_set.M, back.radius, back.n)
        assert header == (model_id, scale, d, M, radius, n)
        # == rather than bit equality: values() turns a -0.0 entry into +0.0
        assert np.all(back.values() == np.frombuffer(body, "<f8", offset=suffstats._HEADER.size))


def fixture_records(model, d):
    """The records behind the committed PGLM v1 fixtures in ``tests/data``."""
    rng = np.random.default_rng(2017)
    X = rng.uniform(-0.4, 0.4, (200, d))
    if model == "poisson":
        y = rng.poisson(1.3, 200).astype(float)
    else:
        y = np.where(rng.random(200) < 0.5, 1.0, -1.0)
    return y, X


# (file, model, d, M, radius); the files were written by the tuple-keyed
# implementation that preceded the array index set
PGLM_V1_FIXTURES = [
    ("poisson_d3_m4.pglm", "poisson", 3, 4, 2.0),
    ("logit_d4_m2.pglm", "logit", 4, 2, 4.0),
]


class TestFormatFixtures:
    @pytest.mark.parametrize("name,model,d,M,R", PGLM_V1_FIXTURES)
    def test_v1_fixture_loads_and_reserializes_bit_for_bit(self, name, model, d, M, R):
        raw = (DATA / name).read_bytes()
        stats = load_stats(DATA / name)
        assert serialize(stats) == raw
        assert (stats.mapping.name, stats.index_set.d, stats.index_set.M) == (model, d, M)
        fresh = new_stats(enumerate_indices(d, M), get_mapping(model), R)
        fresh.accumulate_batch(*fixture_records(model, d))
        np.testing.assert_allclose(stats.values(), fresh.values(), rtol=1e-12, atol=1e-14)


# (model, scale, PGLM v1 model id); the ids are part of the file format
PGLM_V1_MODEL_IDS = [
    ("logit", None, 1),
    ("poisson", None, 2),
    ("shuber", 2.5, 3),
    ("cauchy", 2.5, 4),
    ("gamma", 2.5, 5),
    ("probit", None, 6),
]


class TestModelIds:
    @pytest.mark.parametrize("model,scale,model_id", PGLM_V1_MODEL_IDS)
    def test_header_model_id(self, model, scale, model_id):
        raw = serialize(new_stats(enumerate_indices(2, 2), get_mapping(model, scale), 2.0))
        assert struct.unpack_from("<H", raw, 6)[0] == model_id

    @pytest.mark.parametrize("model,scale,model_id", PGLM_V1_MODEL_IDS)
    def test_round_trip_name_and_scale(self, model, scale, model_id):
        mapping = get_mapping(model, scale)
        back = deserialize(serialize(new_stats(enumerate_indices(2, 2), mapping, 2.0)))
        assert (back.mapping.name, back.mapping.scale) == (model, mapping.scale)
        if scale is not None:
            assert back.mapping.scale == scale
