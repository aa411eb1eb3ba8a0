import contextlib
import dataclasses
import json
import math
import multiprocessing as mp
import os
import re
import signal
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import passglm.data as data
from passglm.data import (
    ArrayStream,
    LibsvmStream,
    RecordStream,
    ProjectionSpec,
    SyntheticStream,
    build_stats,
    parse_libsvm,
    project,
    run_sharded,
    synthesize,
    synthesize_arrays,
    write_libsvm,
)
from passglm.baselines import laplace
from passglm.errors import InvalidInputError, NumericError, PassGlmError
from passglm.mappings import _dense, log_likelihood_hess, mapping_logit, mapping_poisson, mapping_shuber
from passglm.suffstats import deserialize, serialize
from passglm.posterior import PriorSpec


class TestParseLibsvm:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "a.svm"
        path.write_text("+1 1:0.5 3:2.0\n")
        y, X = parse_libsvm(path, d=3).materialize()
        np.testing.assert_array_equal(y, [1.0])
        np.testing.assert_array_equal(X, [[0.5, 0.0, 2.0]])

    def test_binary_label_remap(self, tmp_path):
        path = tmp_path / "b.svm"
        path.write_text("0 2:1\n1 1:1\n")
        y, _ = parse_libsvm(path, d=2, labels="pm1").materialize()
        assert y.tolist() == [-1.0, 1.0]

    def test_unknown_label_mode_is_refused(self, tmp_path):
        path = tmp_path / "b.svm"
        path.write_text("0 2:1\n1 1:1\n")
        with pytest.raises(InvalidInputError, match="labels must be 'raw', 'pm1' or '01'"):
            parse_libsvm(path, d=2, labels="bogus")

    def test_round_trip_through_write(self, tmp_path):
        rng = np.random.default_rng(0)
        n, d = 1000, 6
        X = np.where(rng.random((n, d)) < 0.3, rng.normal(0, 1, (n, d)), 0.0)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        path = tmp_path / "c.svm"
        write_libsvm(path, y, X)
        back = parse_libsvm(path, d=d)
        yb, Xb = back.materialize()
        np.testing.assert_array_equal(yb, y)
        np.testing.assert_allclose(Xb, X, rtol=1e-15)

    @pytest.mark.parametrize("cells", [16, data._WRITE_CELLS], ids=["2-row-blocks", "one-block"])
    def test_write_matches_per_row_writer_byte_for_byte(self, tmp_path, monkeypatch, cells):
        monkeypatch.setattr(data, "_WRITE_CELLS", cells)

        def per_row(path, y, X):
            y, X = np.asarray(y), np.asarray(X)
            with open(path, "w") as fh:
                for i in range(len(y)):
                    label = y[i]
                    text = f"{int(label)}" if float(label).is_integer() else repr(float(label))
                    row = X[i]
                    nz = np.flatnonzero(row)
                    cells = " ".join(f"{j + 1}:{row[j]:.17g}" for j in nz)
                    fh.write(f"{text} {cells}\n".rstrip() + "\n")

        rng = np.random.default_rng(11)
        n, d = 400, 7
        X = np.where(rng.random((n, d)) < 0.4, rng.normal(0, 1, (n, d)), 0.0)
        X[0] = 0.0  # all-zero rows, first, inner and last
        X[57] = 0.0
        X[-1] = 0.0
        X[1] = [-0.0, 1e-300, 0.1, -5e-324, 1e300, -0.0, 3.0]
        X[2, 3] = np.nan
        for y in (
            np.where(rng.random(n) < 0.5, 1.0, -1.0),
            rng.integers(0, 9, n),
            np.round(rng.normal(0, 1, n), 3),
            np.where(rng.random(n) < 0.1, np.nan, rng.normal(0, 1, n)),
        ):
            ours, oracle = tmp_path / "ours.svm", tmp_path / "oracle.svm"
            write_libsvm(ours, y, X)
            per_row(oracle, y, X)
            assert ours.read_bytes() == oracle.read_bytes()
        with pytest.raises(InvalidInputError, match=r"399 labels do not match X of shape \(400, 7\)"):
            write_libsvm(tmp_path / "short.svm", y[:-1], X)

    def test_malformed_line_names_its_line(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("+1 1:0.5\n+1 oops\n-1 2:1.0\n")
        stream = parse_libsvm(path, d=2)
        with pytest.raises(InvalidInputError, match=":2"):
            stream.materialize()

    def test_binary_modes_read_only_binary_labels(self, tmp_path):
        path = tmp_path / "labels.svm"
        path.write_text("1 1:1\n0 1:1\n-1 1:1\n")
        assert parse_libsvm(path, d=1, labels="pm1").materialize()[0].tolist() == [1, -1, -1]
        assert parse_libsvm(path, d=1, labels="01").materialize()[0].tolist() == [1, 0, 0]
        path.write_text("1 1:1\n# note\n2 1:1\n")
        for labels in ("pm1", "01"):
            with pytest.raises(InvalidInputError, match=r"\{-1, 0, \+1\}; record 1 has label 2"):
                parse_libsvm(path, d=1, labels=labels).materialize()
        assert parse_libsvm(path, d=1).materialize()[0].tolist() == [1, 2]  # raw: as written
        path.write_text("1 1:1\nnan 1:1\n")
        with pytest.raises(NumericError, match="non-finite label at record 1") as info:
            parse_libsvm(path, labels="pm1")  # dimension inference reads the labels too
        assert info.value.record_index == 1

    def test_nonincreasing_indices_rejected(self, tmp_path):
        path = tmp_path / "f.svm"
        path.write_text("+1 3:1.0 2:1.0\n")
        with pytest.raises(InvalidInputError, match="increasing"):
            parse_libsvm(path, d=3).materialize()

    def test_dimension_inference_counts_a_pass(self, tmp_path):
        path = tmp_path / "g.svm"
        path.write_text("+1 5:1.0\n")
        stream = parse_libsvm(path)
        assert stream.d == 5
        assert stream.passes == 1

    def test_index_beyond_declared_dimension_names_first_record(self, tmp_path):
        path = tmp_path / "h.svm"
        path.write_text("+1 1:1\n-1 2:1 4:1\n+1 9:1\n")
        with pytest.raises(InvalidInputError, match="index 4 exceeds declared dimension 3"):
            parse_libsvm(path, d=3).materialize()
        with pytest.raises(InvalidInputError, match="index 4 exceeds declared dimension 3"):
            list(parse_libsvm(path, d=3).batches(batch_size=1))


# label -> the label a binary mode reads; any other label is an error
REMAP = {"raw": None, "pm1": {1.0: 1.0, 0.0: -1.0, -1.0: -1.0}, "01": {1.0: 1.0, 0.0: 0.0, -1.0: 0.0}}


def line_oracle(stream):
    """What a line-at-a-time read of ``stream``'s file gives: the records of
    ``_parse_line`` with labels remapped, and the message of the first
    malformed line, index past ``stream.d`` or bad label (or None).  A binary
    mode reads only the labels -1, 0 and +1; a non-finite label and any other
    one are errors naming their record."""
    remap, records = REMAP[stream.labels], []
    with open(stream.path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                y, idx, vals = stream._parse_line(line)
            except (ValueError, OverflowError) as exc:
                return records, f"{stream.path}:{lineno}: malformed record: {exc}"
            if idx.size and idx[-1] >= stream.d:
                return records, f"index {idx[-1] + 1} exceeds declared dimension {stream.d}"
            if remap is not None and y not in remap:
                k = len(records)
                if not math.isfinite(y):
                    return records, f"non-finite label at record {k}"
                return records, f"binary labels must be in {{-1, 0, +1}}; record {k} has label {y:g}"
            records.append((y if remap is None else remap[y], idx, vals))
    return records, None


def window_records(stream):
    """``(y, idx, vals)`` of each record that ``stream``'s window reader
    gives, its windows split by their ``indptr``; unlike a batch, this reads
    indices at any declared dimension."""
    for y, indptr, idx, vals in stream._windows(limit=stream.d):
        for i in range(len(y)):
            lo, hi = indptr[i], indptr[i + 1]
            yield y[i], idx[lo:hi], vals[lo:hi]


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t", "\x0b", "\x0c"])
_LABELS = st.sampled_from(["+1", "-1", "1", "0", "1e-3", "-2.5", "3", "+0.25", "1_0", "nan"])
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["1e-3", "+.5", "-0", "1E+2", "0.1000000000000000055511151231257827"]),
)
# a mutation replaces one token of a record, or adds text to its end
_MUTATIONS = st.sampled_from(
    ["1:", ":1", "a:b", "1:2:3", "0:1", "-1:2", "x", "1.5:2", "#", "1:nan\u00e9",
     "\u00e92:1", "2:1\x1c3:1", "99999999999999999999999:1", "-9223372036854775808:1",
     "1:2\x85", "+2:1"]
)


@st.composite
def libsvm_text(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["record"] * 6 + ["comment", "blank", "mutated", "decreasing"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["", " ", "\t"])) + "# note 3:4 a:b")
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t ", "\x0c"])))
            continue
        idx = sorted(draw(st.sets(st.integers(1, 30), max_size=6)))
        if kind == "decreasing" and len(idx) >= 2:
            idx[-2], idx[-1] = idx[-1], idx[-2]
        tokens = [draw(_LABELS)] + [f"{j}:{draw(_VALUES)}" for j in idx]
        if kind == "mutated":
            at = draw(st.integers(0, len(tokens)))
            tokens[at:at + 1] = [draw(_MUTATIONS)]
        sep = draw(_SEPARATORS)
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(tokens) + draw(st.sampled_from(["", " ", "\t"])))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no final newline
    return text


def spelled_index(j: int):
    """Spellings of the index ``j`` that ``int`` reads: plain digits, leading
    zeros, a sign or an underscore."""
    return st.sampled_from([str(j), str(j), "0" * 17 + str(j), "0" * 20 + str(j), f"+{j}", f"{j // 10}_{j % 10}"])


@st.composite
def spelled_record(draw):
    """A libsvm line whose increasing indices are spelled in various ways; the
    last may have 19 or 20 digits, within int64 or past it."""
    idx = sorted(draw(st.sets(st.integers(1, 99), max_size=4)))
    cells = [draw(spelled_index(j)) for j in idx]
    if draw(st.booleans()):
        cells.append(str(draw(st.one_of(st.integers(10**18, 10**20 - 1), st.integers(2**63, 2**64)))))
    value = st.sampled_from(["1", "-0.25", "3e-2"])
    return " ".join([draw(st.sampled_from(["1", "-1", "0.5"]))] + [f"{c}:{draw(value)}" for c in cells])


class TestWindowParser:
    """The numpy window parser against the line-at-a-time grammar."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=libsvm_text(), labels=st.sampled_from(["raw", "pm1", "01"]),
           window=st.sampled_from([1, 40, 1 << 20]), d=st.sampled_from([31, 31, 25]))
    @example(text="1 -9223372036854775808:1\n", labels="raw", window=1 << 20, d=31)
    @example(text="1 1:1\n2 2:1\n1 x\n", labels="pm1", window=1 << 20, d=31)
    @example(text="1 1:1\nnan 2:1\n", labels="01", window=1, d=31)
    @example(text="3 26:1\n1 x\n", labels="pm1", window=1 << 20, d=25)
    @example(text="3 1:1\n1 26:1\n", labels="pm1", window=1 << 20, d=25)
    def test_equals_line_parser(self, tmp_path, monkeypatch, text, labels, window, d):
        path = tmp_path / "h.svm"
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(data, "_WINDOW_CHARS", window)
        stream = LibsvmStream(path, d=d, labels=labels)
        want, error = line_oracle(stream)
        if error is not None:
            with pytest.raises(PassGlmError) as info:
                list(window_records(stream))
            assert str(info.value) == error
            return
        got = list(window_records(stream))
        assert len(got) == len(want)
        for (y, idx, vals), (wy, widx, wvals) in zip(got, want):
            assert bits(y) == bits(wy)
            np.testing.assert_array_equal(idx, widx)
            np.testing.assert_array_equal(bits(vals), bits(wvals))
        # the same records as batches, across window and batch edges
        ys, X = [], []
        for yb, Xb in stream.batches(batch_size=3):
            assert len(yb) <= 3
            ys.append(yb)
            X.append(_dense(Xb))
        dense = np.zeros((len(want), d))
        for i, (_, widx, wvals) in enumerate(want):
            dense[i, widx] = wvals
        if want:
            np.testing.assert_array_equal(bits(np.concatenate(ys)), bits([w[0] for w in want]))
            np.testing.assert_array_equal(bits(np.vstack(X)), bits(dense))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(spelled_record(), min_size=1, max_size=6))
    @example(lines=["1 9223372036854775808:1"])
    def test_index_spellings_read_as_the_line_parser_reads_them(self, tmp_path, lines):
        lines = [line + "\n" for line in lines]
        plain = all(
            re.fullmatch("[0-9]{1,18}", tok.split(":")[0]) for line in lines for tok in line.split()[1:]
        )
        window = data._parse_window(lines)
        assert (window is not None) == plain  # digits only: no fallback to int
        path = tmp_path / "spelled.svm"
        path.write_text("".join(lines))
        stream = LibsvmStream(path, d=10**19)
        want, error = line_oracle(stream)
        if window is not None:
            y, indptr, idx, vals = window
            assert error is None
            assert [bits(v) for v in y] == [bits(w[0]) for w in want]
            np.testing.assert_array_equal(indptr, np.cumsum([0] + [w[1].size for w in want]))
            np.testing.assert_array_equal(idx, np.concatenate([w[1] for w in want]))
            np.testing.assert_array_equal(bits(vals), bits(np.concatenate([w[2] for w in want])))
        if error is not None:
            with pytest.raises(InvalidInputError) as info:
                list(window_records(stream))
            assert str(info.value) == error
            return
        got = list(window_records(stream))
        assert len(got) == len(want)
        for (y, idx, vals), (wy, widx, wvals) in zip(got, want):
            assert bits(y) == bits(wy)
            np.testing.assert_array_equal(idx, widx)
            np.testing.assert_array_equal(bits(vals), bits(wvals))

    def test_usual_text_stays_on_the_window_path(self, tmp_path, monkeypatch):
        path = tmp_path / "usual.svm"
        path.write_bytes(b"# header 1:2\r\n\r\n+1\t1:0.5 3:2\r\n  # note\r\n-1 2:1e-3\x1c3:4 \r\n0")

        def refuse(*args):
            raise AssertionError("window parsed line by line")

        monkeypatch.setattr(LibsvmStream, "_reparse", refuse)
        y, X = parse_libsvm(path, d=3).materialize()
        np.testing.assert_array_equal(y, [1.0, -1.0, 0.0])
        np.testing.assert_array_equal(X, [[0.5, 0.0, 2.0], [0.0, 1e-3, 4.0], [0.0, 0.0, 0.0]])

    def test_batches_stay_under_the_byte_cap(self, tmp_path):
        rng = np.random.default_rng(10)
        n, D = 1000, 20_000
        cols = [np.sort(rng.choice(D, 20, replace=False)) for _ in range(n)]
        vals = [rng.standard_normal(20) for _ in range(n)]
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        path = tmp_path / "wide.svm"
        with open(path, "w") as fh:
            for i in range(n):
                cells = " ".join(f"{j + 1}:{v:.17g}" for j, v in zip(cols[i], vals[i]))
                fh.write(f"{int(y[i])} {cells}\n")
        stream = parse_libsvm(path, d=D)
        want, _ = line_oracle(stream)
        seen = 0
        # compared batch by batch: a 1,000 x 20,000 materialize is 160 MB
        for yb, Xb in stream.batches(batch_size=8192):
            Xb = Xb.toarray()
            assert Xb.nbytes <= data._BATCH_BYTES
            for i in range(len(yb)):
                wy, widx, wvals = want[seen + i]
                assert yb[i] == wy
                np.testing.assert_array_equal(np.flatnonzero(Xb[i]), widx)
                np.testing.assert_array_equal(Xb[i, widx], wvals)
            seen += len(yb)
        assert seen == n


class TestProjection:
    @pytest.mark.parametrize("input_dim,output_dim", [(0, 5), (5, 0), (-1, 5)])
    def test_dimension_below_one_is_refused(self, input_dim, output_dim):
        with pytest.raises(InvalidInputError, match="projection dimensions must be >= 1"):
            ProjectionSpec(seed=1, input_dim=input_dim, output_dim=output_dim)

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64 - 1, 2**64])
    def test_seed_outside_63_bits_is_refused(self, seed):
        # Philox would cast these keys: 2**64 - 1 drew exactly the seed-0 rows
        with pytest.raises(InvalidInputError, match="projection seed must be in"):
            ProjectionSpec(seed=seed, input_dim=50, output_dim=10)
        ProjectionSpec(seed=2**63 - 1, input_dim=50, output_dim=10).column(3)

    def test_zero_vector_maps_to_zero(self):
        spec = ProjectionSpec(seed=1, input_dim=100, output_dim=20)
        base = ArrayStream(np.array([1.0]), np.zeros((1, 100)))
        out = project(base, spec)
        _, X = out.materialize()
        np.testing.assert_array_equal(X, np.zeros((1, 20)))

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (5, 50))
        y = np.ones(5)
        spec = ProjectionSpec(seed=9, input_dim=50, output_dim=10)
        a = project(ArrayStream(y, X), spec).materialize()[1]
        b = project(ArrayStream(y, X), spec).materialize()[1]
        np.testing.assert_array_equal(a, b)

    def test_norm_preservation_on_average(self):
        rng = np.random.default_rng(3)
        D, k = 5000, 1000
        spec = ProjectionSpec(seed=4, input_dim=D, output_dim=k)
        norms = []
        vectors = rng.normal(0, 1, (100, D))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        stream = project(ArrayStream(np.ones(100), vectors), spec)
        _, P = stream.materialize()
        norms = (P * P).sum(axis=1)
        assert 0.9 <= norms.mean() <= 1.1

    def test_linearity(self):
        rng = np.random.default_rng(5)
        D, k = 200, 50
        spec = ProjectionSpec(seed=6, input_dim=D, output_dim=k)
        x1 = np.where(rng.random(D) < 0.1, rng.normal(0, 1, D), 0.0)
        x2 = np.where(rng.random(D) < 0.1, rng.normal(0, 1, D), 0.0)
        a, b = 2.5, -1.25
        _, P = project(ArrayStream(np.ones(3), np.array([x1, x2, a * x1 + b * x2])), spec).materialize()
        np.testing.assert_allclose(P[2], a * P[0] + b * P[1], atol=1e-12)

    def test_columns_are_the_seeded_philox_draws(self):
        # each column is Philox(key=[seed, j]) from its start, thresholded
        spec = ProjectionSpec(seed=11, input_dim=400, output_dim=300)
        s = spec.sparsity
        for j in (0, 1, 7, 399):
            u = np.random.default_rng(np.random.Philox(key=[11, j])).random(300)
            want = np.where(u < 0.5 / s, math.sqrt(s / 300), 0.0)
            want[(u >= 0.5 / s) & (u < 1.0 / s)] = -math.sqrt(s / 300)
            np.testing.assert_array_equal(spec.column(j), want)

    def test_batch_product_equals_sum_of_columns(self):
        rng = np.random.default_rng(12)
        D, k = 3000, 40
        spec = ProjectionSpec(seed=13, input_dim=D, output_dim=k)
        X = np.where(rng.random((30, D)) < 0.01, rng.normal(0, 1, (30, D)), 0.0)
        _, P = project(ArrayStream(np.ones(30), X), spec).materialize()
        for i in range(30):
            want = np.zeros(k)
            for j in np.flatnonzero(X[i]):
                want += X[i, j] * spec.column(j)
            np.testing.assert_array_equal(bits(P[i]), bits(want))

    def test_shard_projects_only_its_records(self):
        rng = np.random.default_rng(14)
        D, k = 2000, 30
        spec = ProjectionSpec(seed=15, input_dim=D, output_dim=k)
        X = np.where(rng.random((101, D)) < 0.01, rng.uniform(-0.1, 0.1, (101, D)), 0.0)
        y = np.where(rng.random(101) < 0.5, 1.0, -1.0)
        whole = project(ArrayStream(y, X), spec)
        _, P = whole.materialize()

        class Rows(RecordStream):  # a stream without a shard of its own
            d = D

            def _iter_batches(self, batch_size):
                for lo in range(0, 101, batch_size):
                    yield y[lo : lo + batch_size], X[lo : lo + batch_size]

        for i in range(2):
            part = project(Rows(), spec).shard(i, 2)
            assert isinstance(part, data.ProjectedStream)
            yp, Pp = part.materialize()
            np.testing.assert_array_equal(yp, y[i::2])
            np.testing.assert_array_equal(bits(Pp), bits(P[i::2]))
        sharded = run_sharded(project(Rows(), spec), 2, mapping_logit(), 2, 4.0, batch_size=16)
        sequential = build_stats(whole, mapping_logit(), 2, 4.0)
        scale = np.maximum(1e-30, np.abs(sequential.values()))
        assert np.max(np.abs(sharded.values() - sequential.values()) / scale) <= 1e-10
        assert sharded.n == 101

    def test_out_of_range_index_rejected(self):
        spec = ProjectionSpec(seed=7, input_dim=10, output_dim=5)
        with pytest.raises(InvalidInputError, match="dimension"):
            spec.column(10)
        with pytest.raises(InvalidInputError, match="smaller than the stream dimension 11"):
            project(ArrayStream(np.ones(1), np.zeros((1, 11))), spec)

    def test_expected_entry_distribution(self):
        spec = ProjectionSpec(seed=8, input_dim=10_000, output_dim=2000)
        col = spec.column(3)
        s = spec.sparsity
        mag = math.sqrt(s / 2000)
        values = set(np.round(np.unique(col), 12))
        assert values <= {0.0, round(mag, 12), round(-mag, 12)}
        frac_nonzero = np.mean(col != 0)
        assert frac_nonzero == pytest.approx(1.0 / s, rel=0.5)

    def test_rows_drawn_in_blocks_equal_single_rows(self, monkeypatch):
        spec = ProjectionSpec(seed=16, input_dim=400, output_dim=7)
        rows = np.array([3, 9, 10, 57, 200, 201, 399])
        monkeypatch.setattr(data, "_DRAW_CELLS", 2 * 7 + 1)  # blocks of two rows
        P = spec._rows(rows)
        for j in range(400):
            want = spec.column(j) if j in rows else np.zeros(7)
            np.testing.assert_array_equal(bits(P[j].toarray()[0]), bits(want))

    def test_row_draw_memory_is_bounded(self):
        spec = ProjectionSpec(seed=17, input_dim=20_000, output_dim=500)
        rows = np.arange(0, 20_000, 2)  # 10,000 rows: 40 MB of uniforms at once
        tracemalloc.start()
        try:
            P = spec._rows(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert P.nnz > 0
        assert peak < 8 * 2**20, f"drawing the rows peaked at {peak / 2**20:.1f} MB"


# Labels drawn with theta_true = (0.5, -0.3, 0.8), d = 3 and n = 10, by
# synthesize_arrays (seed 11) and SyntheticStream (seed 12); the shuber,
# cauchy and gamma draws use scale 1.5.
GOLDEN_SCALES = {"shuber": 1.5, "cauchy": 1.5, "gamma": 1.5}
SYNTH_LABELS = {
    "logit": [1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, -1.0],
    "poisson": [0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 1.0, 1.0, 0.0, 2.0],
    "shuber": [
        1.3648221568438406, -2.7428446813678082, 3.712794260962953,
        -0.2639927047587347, -1.4012169424834178, -1.8883712842806804,
        0.017932307522915747, -0.05278400385632381, -2.4398575716413053,
        -0.6820589226982117,
    ],
    "cauchy": [
        2.356243842218776, -1.7668283583195656, 1.6010366002589371,
        -21.157007213902784, -0.9972902558681801, 2.4315944564107,
        1.5759681452572427, -1.5630274349396465, 1.035142249179723,
        -7.678371127222853,
    ],
    "gamma": [
        1.355384086927867, 1.151346431350601, 0.5948457337593602,
        0.04353364404218828, 1.3174922118244614, 2.053447952286416,
        0.6144321672576412, 1.0379416953835836, 0.7997785108799041,
        0.07031413766128478,
    ],
    "probit": [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0],
}
STREAM_LABELS = {
    "logit": [-1.0, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    "poisson": [1.0, 2.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
    "shuber": [
        1.2416884674929822, -0.5224683981292226, -0.709351098409831,
        0.20223147384553752, 0.3265441301814307, -3.7105920134039674,
        -0.841395793381897, 0.18531334931922916, -0.41133631913029484,
        2.4944491341482244,
    ],
    "cauchy": [
        0.906344041248952, -7.6225618107862605, -2.425163248842656,
        0.4146365874190068, -1.6804383179730968, -0.3654847210445241,
        -1.2101272354582946, 3.8075902841031297, 0.9760047250618935,
        -1.7821029724017636,
    ],
    "gamma": [
        0.9633069361499927, 0.4557265668155056, 0.05160317664839221,
        3.7593697244299586, 0.3930628745337043, 0.8960045831019054,
        1.1851815750742152, 2.058153290875952, 0.4259800973807557,
        1.73331781435649,
    ],
    "probit": [0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0],
}


class TestSyntheticGolden:
    @pytest.mark.parametrize("model", list(SYNTH_LABELS))
    def test_synthesize_arrays_labels(self, model):
        y, _ = synthesize_arrays(
            model, 3, 10, seed=11, theta_true=[0.5, -0.3, 0.8], scale=GOLDEN_SCALES.get(model)
        )
        np.testing.assert_allclose(y, SYNTH_LABELS[model], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("model", list(STREAM_LABELS))
    def test_synthetic_stream_labels(self, model):
        stream = SyntheticStream(model, 3, 10, 12, [0.5, -0.3, 0.8], scale=GOLDEN_SCALES.get(model))
        y, _ = stream.materialize()
        np.testing.assert_allclose(y, STREAM_LABELS[model], rtol=1e-13, atol=0)


class TestSynthesize:
    def test_logistic_label_frequency(self):
        y, X = synthesize_arrays("logit", 4, 20_000, seed=0, theta_true=np.zeros(4))
        assert np.all(np.linalg.norm(X, axis=1) <= 1.0 + 1e-12)
        freq = np.mean(y > 0)
        assert abs(freq - 0.5) <= 3.0 / math.sqrt(20_000)

    def test_poisson_mean_rate(self):
        y, _ = synthesize_arrays("poisson", 3, 20_000, seed=1, theta_true=np.zeros(3))
        assert abs(y.mean() - 1.0) <= 3.0 / math.sqrt(20_000)

    def test_laplace_recovers_truth(self):
        from passglm.baselines import laplace

        theta_true = np.array([1.0, -0.8, 0.3])
        y, X = synthesize_arrays("logit", 3, 5000, seed=2, theta_true=theta_true)
        post = laplace(mapping_logit(), PriorSpec.gaussian(4.0), (y, X))
        sig = np.sqrt(post.marginal_variances())
        assert np.all(np.abs(post.mean - theta_true) <= 3.0 * sig)

    def test_file_output_with_manifest(self, tmp_path):
        path = tmp_path / "synth.svm"
        manifest = synthesize("logit", 3, 100, seed=3, theta_true=[0.5, 0.5, 0.5], path=path)
        assert manifest["n"] == 100
        on_disk = json.loads((tmp_path / "synth.svm.manifest.json").read_text())
        assert on_disk["theta_true"] == [0.5, 0.5, 0.5]
        stream = parse_libsvm(path, d=3, labels="pm1")
        y, X = stream.materialize()
        assert len(y) == 100

    @pytest.mark.parametrize(
        "d,n,theta,message",
        [
            (3, 5, np.nan, "finite"),
            (3, 5, [0.5, -np.inf, 0.5], "finite"),
            (3, 5, [1.0, 2.0], "got 2 in"),
            (3, 5, [[0.5]], r"shape \(1, 1\)"),
            (3, -1, 0.5, "n >= 0"),
            (0, 5, 0.5, "d >= 1"),
        ],
        ids=["nan", "inf", "length", "matrix", "negative n", "zero d"],
    )
    def test_unusable_arguments_are_refused(self, tmp_path, d, n, theta, message):
        path = tmp_path / "synth.svm"
        for call in (
            lambda: synthesize_arrays("logit", d, n, seed=0, theta_true=theta),
            lambda: SyntheticStream("logit", d, n, seed=0, theta_true=theta),
            lambda: synthesize("logit", d, n, seed=0, theta_true=theta, path=path),
        ):
            with pytest.raises(InvalidInputError, match=message):
                call()
        assert not list(tmp_path.iterdir())

    def test_smoothed_huber_noise_density(self):
        # rejection sampler must produce the unnormalized density
        # exp(-b^2 (sqrt(1 + v^2/b^2) - 1)); check via histogram ratio
        from passglm.mappings import _sample_smoothed_huber_noise

        rng = np.random.default_rng(4)
        v = _sample_smoothed_huber_noise(rng, 200_000, 1.0)
        hist, edges = np.histogram(v, bins=60, range=(-4, 4), density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        from scipy.integrate import trapezoid

        target = np.exp(-(np.sqrt(1 + centers**2) - 1))
        target /= trapezoid(target, centers)
        mask = hist > 0.01
        np.testing.assert_allclose(hist[mask], target[mask], rtol=0.12)


class TestStreams:
    def test_pass_counter_single_pass(self):
        stream = SyntheticStream("logit", 5, 1000, seed=0, theta_true=np.zeros(5))
        build_stats(stream, mapping_logit(), 2, 4.0)
        assert stream.passes == 1

    @pytest.mark.filterwarnings("ignore:covariate 2-norm exceeds 1")
    def test_views_count_a_pass_on_every_stream_below(self):
        base = SyntheticStream("logit", 3, 100, seed=1, theta_true=np.zeros(3))
        view = project(base.shard(0, 2), ProjectionSpec(seed=0, input_dim=3, output_dim=2))
        build_stats(view, mapping_logit(), 2, 4.0)
        assert (view.passes, view.base.passes, base.passes) == (1, 1, 1)

    def test_replay_increments_counter(self):
        stream = SyntheticStream("logit", 3, 100, seed=1, theta_true=np.zeros(3))
        list(stream.batches())
        list(stream.batches())
        assert stream.passes == 2

    def test_synthetic_stream_matches_batched_generation(self):
        stream = SyntheticStream("logit", 3, 500, seed=5, theta_true=[0.2, 0.2, 0.2])
        y1, X1 = stream.materialize()
        y2, X2 = stream.materialize()
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(X1, X2)
        assert len(y1) == 500

    @pytest.mark.parametrize("n", [0, 5, 8191, 8193, 20_000])
    def test_synthetic_records_do_not_depend_on_the_batch_size(self, n):
        stream = SyntheticStream("logit", 3, n, seed=5, theta_true=0.5)
        want_y, want_X = stream.materialize()
        for size in (1, 7, 8191, 8192, 10_000):
            batches = list(stream.batches(size))
            assert [len(y) for y, _ in batches] == [size] * (n // size) + [n % size] * (n % size > 0)
            if n:
                np.testing.assert_array_equal(np.concatenate([y for y, _ in batches]), want_y)
                np.testing.assert_array_equal(np.vstack([X for _, X in batches]), want_X)
        if n > 8192:  # block k is drawn from SeedSequence([seed, 1 + k])
            rng = np.random.default_rng(np.random.SeedSequence([5, 2]))
            np.testing.assert_array_equal(want_X[8192:16384], data._ball_covariates(rng, min(n - 8192, 8192), 3))

    def test_round_robin_shards_partition(self):
        stream = ArrayStream(np.arange(10, dtype=float), np.arange(30, dtype=float).reshape(10, 3))
        parts = [stream.shard(i, 3) for i in range(3)]
        ys = np.concatenate([p.materialize()[0] for p in parts])
        assert sorted(ys.tolist()) == list(range(10))


class TestRunSharded:
    def _dataset(self, n=10_000, d=5, seed=6):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-0.4, 0.4, (n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        return ArrayStream(y, X)

    def test_single_shard_is_bitwise_sequential(self):
        stream = self._dataset(2000)
        a = run_sharded(stream, 1, mapping_logit(), 2, 4.0)
        b = build_stats(self._dataset(2000), mapping_logit(), 2, 4.0)
        np.testing.assert_array_equal(a.t, b.t)

    def test_eight_shards_match_sequential(self):
        stream = self._dataset(100_000)
        sharded = run_sharded(stream, 8, mapping_logit(), 2, 4.0)
        sequential = build_stats(self._dataset(100_000), mapping_logit(), 2, 4.0)
        seq, shd = sequential.values(), sharded.values()
        scale = np.maximum(1e-30, np.abs(seq))
        assert np.max(np.abs(seq - shd) / scale) <= 1e-10
        assert sharded.n == 100_000

    def test_poisson_sharding(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-0.3, 0.3, (3000, 3))
        y = rng.poisson(1.0, 3000).astype(float)
        stream = ArrayStream(y, X)
        sharded = run_sharded(stream, 4, mapping_poisson(), 4, 2.0)
        sequential = build_stats(ArrayStream(y, X), mapping_poisson(), 4, 2.0)
        np.testing.assert_allclose(sharded.values(), sequential.values(), rtol=1e-10)

    def test_file_per_shard(self, tmp_path):
        rng = np.random.default_rng(8)
        paths = []
        all_y, all_X = [], []
        for i in range(3):
            y = np.where(rng.random(500) < 0.5, 1.0, -1.0)
            X = np.where(rng.random((500, 4)) < 0.5, rng.uniform(-0.4, 0.4, (500, 4)), 0.0)
            p = tmp_path / f"part{i}.svm"
            write_libsvm(p, y, X)
            paths.append(str(p))
            all_y.append(y)
            all_X.append(X)
        sharded = run_sharded(Parts(paths, 4), 3, mapping_logit(), 2, 4.0)
        sequential = build_stats(
            ArrayStream(np.concatenate(all_y), np.vstack(all_X)), mapping_logit(), 2, 4.0
        )
        np.testing.assert_allclose(sharded.values(), sequential.values(), rtol=1e-12)

    def test_batch_size_reaches_shard_workers(self):
        base = self._dataset(1000)

        class FixedBatches(RecordStream):
            d = base.d

            def _iter_batches(self, batch_size):
                assert batch_size == 64, f"worker read batches of {batch_size}"
                yield from base._iter_batches(batch_size)

        sharded = run_sharded(FixedBatches(), 2, mapping_logit(), 2, 4.0, batch_size=64)
        sequential = build_stats(base, mapping_logit(), 2, 4.0)
        np.testing.assert_allclose(sharded.values(), sequential.values(), rtol=1e-12)

    def test_shard_count_validation(self):
        with pytest.raises(InvalidInputError):
            run_sharded(self._dataset(10), 0, mapping_logit(), 2, 4.0)

    def test_file_list_rejected_before_workers_start(self, tmp_path, monkeypatch):
        path = tmp_path / "only.svm"
        write_libsvm(path, np.ones(10), np.full((10, 2), 0.1))

        def no_pool(*args):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(data.mp, "get_context", no_pool)
        for source in ([str(path)], (str(path), str(path))):
            with pytest.raises(InvalidInputError, match="stats merge"):
                run_sharded(source, 2, mapping_logit(), 2, 4.0)
        assert not mp.active_children()

    def test_unregistered_mapping_rejected_before_workers_start(self, monkeypatch):
        custom = dataclasses.replace(mapping_logit(), name="custom-logit", model_id=None)

        def no_pool(*args):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(data.mp, "get_context", no_pool)
        with pytest.raises(InvalidInputError, match="model id"):
            run_sharded(self._dataset(100), 2, custom, 2, 4.0)
        assert not mp.active_children()

    def test_workers_use_the_callers_mapping(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(-0.3, 0.3, (2000, 3))
        y = rng.normal(0.0, 1.0, 2000)
        sharded = run_sharded(ArrayStream(y, X), 2, mapping_shuber(2.5), 4, 2.0)
        sequential = build_stats(ArrayStream(y, X), mapping_shuber(2.5), 4, 2.0)
        assert sharded.mapping.scale == 2.5
        np.testing.assert_allclose(sharded.values(), sequential.values(), rtol=1e-10)


class Rows(RecordStream):
    """A stream without a shard of its own: ``run_sharded`` deals its records."""

    def __init__(self, y, X):
        self.y, self.X, self.d = y, X, X.shape[1]

    def _iter_batches(self, batch_size):
        for lo in range(0, len(self.y), batch_size):
            yield self.y[lo : lo + batch_size], self.X[lo : lo + batch_size]


class TestDealtShards:
    """A stream that cannot split itself is read once and dealt to the workers."""

    @staticmethod
    def _source(kind, y, X, spec):
        if kind == "array":
            return ArrayStream(y, X) if spec is None else project(ArrayStream(y, X), spec)
        return Rows(y, X) if spec is None else project(Rows(y, X), spec)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(0, 23),
        shards=st.integers(2, 5),
        batch_size=st.integers(1, 9),
        model=st.sampled_from(["logit", "poisson"]),
        kind=st.sampled_from(["plain", "projected", "array"]),
        projected=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_statistics_equal_merged_shard_builds(self, n, shards, batch_size, model, kind, projected, seed):
        rng = np.random.default_rng(seed)
        mapping, M, R = (mapping_logit(), 2, 4.0) if model == "logit" else (mapping_poisson(), 4, 2.0)
        if projected:
            spec = ProjectionSpec(seed=seed, input_dim=40, output_dim=3)
            X = np.where(rng.random((n, 40)) < 0.1, rng.uniform(-0.05, 0.05, (n, 40)), 0.0)
        else:
            spec, X = None, rng.uniform(-0.3, 0.3, (n, 3))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0) if model == "logit" else rng.poisson(1.0, n) * 1.0
        source = self._source(kind, y, X, spec)
        sharded = run_sharded(source, shards, mapping, M, R, batch_size=batch_size)
        parts = [  # each shard's statistics as its worker sends them
            deserialize(serialize(build_stats(
                self._source(kind, y, X, spec).shard(i, shards), mapping, M, R, batch_size=batch_size)))
            for i in range(shards)
        ]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        assert serialize(sharded) == serialize(merged)
        assert sharded.n == n
        if kind != "array":
            assert (source.base if projected else source).passes == 1
            assert source.passes == 1

    @pytest.mark.parametrize("kind", ["plain", "array"])
    @pytest.mark.parametrize("projected", [False, True])
    def test_without_fork_shards_fold_in_process_to_the_same_bytes(self, kind, projected, monkeypatch):
        rng = np.random.default_rng(19)
        if projected:
            spec = ProjectionSpec(seed=19, input_dim=40, output_dim=3)
            X = np.where(rng.random((300, 40)) < 0.1, rng.uniform(-0.05, 0.05, (300, 40)), 0.0)
        else:
            spec, X = None, rng.uniform(-0.3, 0.3, (300, 3))
        y = np.where(rng.random(300) < 0.5, 1.0, -1.0)

        def sharded():
            source = self._source(kind, y, X, spec)
            return serialize(run_sharded(source, 3, mapping_logit(), 2, 4.0, batch_size=32))

        forked = sharded()

        def no_pool(*args):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(data.mp, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(data.mp, "get_context", no_pool)
        assert sharded() == forked
        assert not mp.active_children()

    def test_dealt_libsvm_file_is_parsed_once(self, tmp_path):
        rng = np.random.default_rng(20)
        path = tmp_path / "one.svm"
        y = np.where(rng.random(700) < 0.5, 1.0, -1.0)
        X = np.where(rng.random((700, 6)) < 0.5, rng.uniform(-0.3, 0.3, (700, 6)), 0.0)
        write_libsvm(path, y, X)
        source = parse_libsvm(path, d=6)
        sharded = run_sharded(source, 3, mapping_logit(), 2, 4.0, batch_size=64)
        sequential = build_stats(ArrayStream(y, X), mapping_logit(), 2, 4.0, batch_size=64)
        assert source.passes == 1
        np.testing.assert_allclose(sharded.values(), sequential.values(), rtol=1e-12)


class TestShardFailures:
    def _arrays(self, n=200, d=3):
        rng = np.random.default_rng(21)
        return np.where(rng.random(n) < 0.5, 1.0, -1.0), rng.uniform(-0.3, 0.3, (n, d))

    @pytest.mark.parametrize("stream", [Rows, ArrayStream])
    def test_worker_numeric_error_names_shard_and_stream_record(self, stream):
        y, X = self._arrays()
        X[137, 1] = np.nan  # record 45 of shard 2 of 3
        with pytest.raises(NumericError) as info:
            run_sharded(stream(y, X), 3, mapping_logit(), 2, 4.0, batch_size=16)
        assert info.value.record_index == 137
        assert str(info.value).startswith("shard 2 of 3 (its record 45 is record 137 of the stream)")

    def test_worker_error_keeps_its_type(self):
        y, X = self._arrays()

        class Split(ArrayStream):  # splits itself, so the error rises in a worker
            def shard(self, index, count):
                part = ArrayStream(self.y[index::count], self.X[index::count])
                if index == 1:
                    part._iter_batches = lambda batch_size: iter([()])  # unpackable batch
                return part

        with pytest.raises(ValueError, match="^shard 1 of 2: not enough values to unpack"):
            run_sharded(Split(y, X), 2, mapping_logit(), 2, 4.0)

    def test_unpicklable_worker_error_arrives_as_text(self):
        y, X = self._arrays()

        class Odd(Exception):
            def __init__(self, a, b):  # pickled with one argument, so it cannot return
                super().__init__(f"{a}/{b}")

        class Split(ArrayStream):
            def shard(self, index, count):
                part = ArrayStream(self.y[index::count], self.X[index::count])

                def fail(batch_size):
                    raise Odd("left", "right")
                    yield

                part._iter_batches = fail
                return part

        with pytest.raises(PassGlmError, match="^shard 0 of 2: Odd: left/right"):
            run_sharded(Split(y, X), 2, mapping_logit(), 2, 4.0)

    @pytest.mark.parametrize("stream", [Rows, ArrayStream])
    def test_dead_worker_is_an_error(self, stream, monkeypatch):
        y, X = self._arrays(n=20_000)
        monkeypatch.setattr(data, "build_stats", lambda *args, **kwargs: os._exit(3))
        with pytest.raises(PassGlmError, match="^shard [01] of 2: worker exited with code 3"):
            run_sharded(stream(y, X), 2, mapping_logit(), 2, 4.0, batch_size=64)

    def test_last_dead_worker_is_an_error_not_a_hang(self):
        y, X = self._arrays()

        class Split(ArrayStream):
            def shard(self, index, count):
                part = ArrayStream(self.y[index::count], self.X[index::count])
                if index == count - 1:
                    part._iter_batches = lambda batch_size: os._exit(3)
                return part

        def hang(signum, frame):
            pytest.fail("run_sharded waited on a dead worker")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(30)
        try:
            with pytest.raises(PassGlmError, match="^shard 2 of 3: worker exited with code 3"):
                run_sharded(Split(y, X), 3, mapping_logit(), 2, 4.0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_reader_error_is_raised_unchanged(self, tmp_path):
        rng = np.random.default_rng(22)
        path = tmp_path / "bad.svm"
        write_libsvm(path, np.where(rng.random(900) < 0.5, 1.0, -1.0), rng.uniform(-0.3, 0.3, (900, 4)))
        lines = path.read_text().splitlines(keepends=True)
        lines[611] = "+1 2:0.1 1:0.2\n"  # indices out of order on line 612
        path.write_text("".join(lines))
        with pytest.raises(InvalidInputError) as sequential:
            build_stats(parse_libsvm(path, d=4), mapping_logit(), 2, 4.0)
        with pytest.raises(InvalidInputError) as sharded:
            run_sharded(parse_libsvm(path, d=4), 2, mapping_logit(), 2, 4.0, batch_size=50)
        assert f"{path}:612: malformed record" in str(sharded.value)
        assert str(sharded.value) == str(sequential.value)

    def test_generic_reader_exception_is_raised_unchanged(self):
        y, X = self._arrays()

        class Broken(Rows):
            def _iter_batches(self, batch_size):
                yield from super()._iter_batches(batch_size)
                raise KeyError("reader")

        with pytest.raises(KeyError, match="^'reader'$"):
            run_sharded(Broken(y, X), 2, mapping_logit(), 2, 4.0, batch_size=16)


def sparse_text(rng, n, d, density, zeros=(0.0, -0.0), labels=("+1", "-1")):
    """libsvm text of ``n`` records at dimension ``d``; about ``density`` of
    the cells are written, some of them as explicit ``zeros``."""
    lines = []
    for _ in range(n):
        cols = np.flatnonzero(rng.random(d) < density)
        vals = np.where(rng.random(cols.size) < 0.1, rng.choice(zeros, cols.size),
                        rng.uniform(-0.2, 0.2, cols.size))
        cells = [f"{j + 1}:{v!r}" for j, v in zip(cols.tolist(), vals.tolist())]
        lines.append(" ".join([rng.choice(labels), *cells]) + "\n")
    return "".join(lines)


class Parts(RecordStream):
    """libsvm part files read one after another through their public batches."""

    def __init__(self, paths, d, labels="pm1"):
        self.parts = [parse_libsvm(p, d=d, labels=labels) for p in paths]
        self.d = d
        self.passes = 0

    def _iter_batches(self, batch_size):
        for part in self.parts:
            yield from part.batches(batch_size)


def dense_batches(stream, batch_size):
    """The batches of a libsvm file as dense arrays, rows filled in file order
    up to the dense row cap, from the line-at-a-time grammar: the batches of
    the dense-only reader, each with its count of stored entries and whether
    it holds a -0.0."""
    records, _ = line_oracle(stream)
    rows = max(1, min(batch_size, data._BATCH_BYTES // (8 * max(stream.d, 1))))
    out = []
    for lo in range(0, len(records), rows):
        chunk = records[lo : lo + rows]
        X = np.zeros((len(chunk), stream.d))
        for i, (_, idx, vals) in enumerate(chunk):
            X[i, idx] = vals
        nnz = sum(r[1].size for r in chunk)
        out.append((np.array([r[0] for r in chunk]), X, nnz, bool(np.signbit(X[X == 0]).any())))
    return out


@contextlib.contextmanager
def dense_only():
    """Within it, the reader yields only dense batches."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_csr_is_smaller", lambda nnz, cells: False)
        yield


class TestSparseBatches:
    """A libsvm batch with fewer nonzeros than half its cells leaves the
    reader as CSR; every reading of it equals the dense batch's."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**16), n=st.integers(0, 25), d=st.integers(1, 40),
           density=st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.9, 1.0]),
           parts=st.integers(1, 3), batch_size=st.integers(1, 9),
           cap_rows=st.sampled_from([None, 1, 2, 5]), window=st.sampled_from([1, 40, 1 << 18]))
    def test_batches_equal_dense_batches(self, tmp_path, monkeypatch, seed, n, d, density,
                                         parts, batch_size, cap_rows, window):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(data, "_WINDOW_CHARS", window)
        if cap_rows is not None:
            monkeypatch.setattr(data, "_BATCH_BYTES", 8 * d * cap_rows)
        paths = []
        for k in range(parts):
            paths.append(tmp_path / f"part{k}.svm")
            paths[-1].write_text(sparse_text(rng, n, d, density))
        stream = Parts(paths, d)
        want = [b for part in stream.parts for b in dense_batches(part, batch_size)]
        got = list(stream.batches(batch_size))
        assert len(got) == len(want)
        for (y, X), (wy, wX, nnz, minus_zero) in zip(got, want):
            assert sp.issparse(X) == (2 * nnz < wX.size and not minus_zero)
            assert X.shape == wX.shape
            np.testing.assert_array_equal(bits(y), bits(wy))
            np.testing.assert_array_equal(bits(_dense(X)), bits(wX))

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16), n=st.integers(0, 30), parts=st.integers(1, 3),
           shards=st.integers(2, 3), batch_size=st.integers(1, 12),
           density=st.sampled_from([0.02, 0.1, 0.6]), model=st.sampled_from(["logit", "poisson"]))
    def test_projected_part_files_shard_as_merged_shard_builds(
            self, tmp_path, seed, n, parts, shards, batch_size, density, model):
        rng = np.random.default_rng(seed)
        if model == "logit":
            mapping, M, R, labels, counts = mapping_logit(), 2, 4.0, "pm1", ("+1", "-1")
        else:
            mapping, M, R, labels, counts = mapping_poisson(), 4, 2.0, "raw", ("0", "1", "3")
        paths = []
        for k in range(parts):
            paths.append(tmp_path / f"part{k}.svm")
            paths[-1].write_text(sparse_text(rng, n, 60, density, labels=counts))
        spec = ProjectionSpec(seed=seed, input_dim=60, output_dim=4)

        def source():
            return project(Parts(paths, 60, labels), spec)

        def sharded():
            return serialize(run_sharded(source(), shards, mapping, M, R, batch_size=batch_size))

        got = sharded()
        builds = [
            deserialize(serialize(build_stats(source().shard(i, shards), mapping, M, R,
                                              batch_size=batch_size)))
            for i in range(shards)
        ]
        merged = builds[0]
        for part in builds[1:]:
            merged = merged.merge(part)
        assert got == serialize(merged)
        with dense_only():
            assert sharded() == got

    @pytest.fixture
    def wide_file(self, tmp_path):
        rng = np.random.default_rng(31)
        path = tmp_path / "wide.svm"
        path.write_text(sparse_text(rng, 240, 60, 0.05, zeros=(0.0,)))
        return path

    def test_readings_equal_the_dense_readings(self, wide_file):
        stream = parse_libsvm(wide_file, d=60, labels="pm1")
        assert all(sp.issparse(X) for _, X in stream.batches(100))
        theta = np.random.default_rng(32).uniform(-1.0, 1.0, 60)

        def readings():
            y, X = stream.materialize()
            shards = [stream.shard(i, 3).materialize() for i in range(3)]
            hess = log_likelihood_hess(mapping_logit(), theta, stream)
            post = laplace(mapping_logit(), PriorSpec.parse("gaussian:4"), stream)
            return y, X, shards, hess, post.mean, post.chol

        got = readings()
        with dense_only():
            want = readings()
        for a, b in zip(got[:2] + got[3:], want[:2] + want[3:]):
            np.testing.assert_array_equal(bits(a), bits(b))
        for shard, want_shard in zip(got[2], want[2]):
            for a, b in zip(shard, want_shard):
                np.testing.assert_array_equal(bits(a), bits(b))

    def test_command_line_outputs_equal_the_dense_outputs(self, wide_file, tmp_path):
        from passglm.cli import main

        def outputs(out):
            out.mkdir()
            commands = [
                ["project", "--input", wide_file, "--output", out / "proj.svm", "--dim", 5,
                 "--seed", 7, "--input-dim", 60],
                ["stats", "build", "--input", wide_file, "--model", "logit", "--degree", 2,
                 "--radius", 4, "--dim", 60, "--out", out / "stats.pglm"],
                ["fit", "--stats", out / "stats.pglm", "--prior", "gaussian:4",
                 "--out", out / "post.json"],
                ["baseline", "--method", "laplace", "--input", wide_file, "--model", "logit",
                 "--prior", "gaussian:4", "--dim", 60, "--out", out / "laplace.json"],
                ["eval", "--posterior", out / "post.json", "--reference", out / "laplace.json",
                 "--test", wide_file, "--model", "logit", "--out", out / "report.json"],
            ]
            for argv in commands:
                assert main([str(a) for a in argv]) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        got = outputs(tmp_path / "sparse")
        with dense_only():
            want = outputs(tmp_path / "dense")
        assert got == want

    @pytest.mark.parametrize("kind", ["dealt", "own shards"])
    def test_worker_warnings_reach_the_caller(self, kind):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((100, 3))
        X *= 1.56 / np.linalg.norm(X, axis=1, keepdims=True)
        y = np.where(rng.random(100) < 0.5, 1.0, -1.0)
        source = Rows(y, X) if kind == "dealt" else ArrayStream(y, X)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_sharded(source, 2, mapping_logit(), 2, 4.0)
        norm = [w for w in caught if "2-norm exceeds 1" in str(w.message)]
        assert len(norm) == 1  # raised in both workers, once here
        assert norm[0].filename == __file__

    def test_dealt_projected_build_reads_in_a_few_mb(self, tmp_path):
        rng = np.random.default_rng(34)
        D = 20_000
        path = tmp_path / "wide.svm"
        with open(path, "w") as fh:
            for _ in range(500):
                cols = np.sort(rng.choice(D, 20, replace=False))
                vals = rng.uniform(-0.2, 0.2, 20)
                cells = [f"{j + 1}:{v!r}" for j, v in zip(cols.tolist(), vals.tolist())]
                fh.write(" ".join(["+1", *cells]) + "\n")
        source = project(parse_libsvm(path, d=D, labels="pm1"),
                         ProjectionSpec(seed=1, input_dim=D, output_dim=50))
        tracemalloc.start()
        try:
            stats = run_sharded(source, 2, mapping_logit(), 2, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.n == 500
        # one dense batch of these records would be 419 x 20,000 x 8 B = 67 MB
        assert peak < 8 * 2**20

    def test_dense_file_reads_in_about_two_dense_batches(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(35)
        n, d = 300, 1000
        path = tmp_path / "dense.svm"
        with open(path, "w") as fh:
            for _ in range(n):
                cells = [f"{j}:0.{k}" for j, k in enumerate(rng.integers(1, 10, d).tolist(), 1)]
                fh.write(" ".join(["+1", *cells]) + "\n")
        # one line a window, as for a wide dense file; a dense batch of 131 rows
        monkeypatch.setattr(data, "_WINDOW_CHARS", 1)
        monkeypatch.setattr(data, "_BATCH_BYTES", 1 << 20)
        stream = parse_libsvm(path, d=d)
        seen = 0
        tracemalloc.start()
        try:
            for y, X in stream.batches():
                assert not sp.issparse(X)
                seen += len(y)
                del y, X  # the reader alone is measured
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seen == n
        # the batch being filled and the pieces of its rows kept until it can
        # no longer be CSR: about 2.1 MB, against 6.2 MB when every piece was
        # kept and concatenated before the batch took its form
        assert peak < 2.5 * data._BATCH_BYTES
