import json
import math
import os

import numpy as np
import pytest

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
from passglm.errors import InvalidInputError
from passglm.mappings import mapping_logit, mapping_poisson
from passglm.posterior import PriorSpec


class TestParseLibsvm:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "a.svm"
        path.write_text("+1 1:0.5 3:2.0\n")
        stream = parse_libsvm(path, d=3)
        records = list(stream.iter_records())
        assert len(records) == 1
        y, (idx, vals) = records[0]
        assert y == 1.0
        np.testing.assert_array_equal(idx, [0, 2])
        np.testing.assert_array_equal(vals, [0.5, 2.0])

    def test_binary_label_remap(self, tmp_path):
        path = tmp_path / "b.svm"
        path.write_text("0 2:1\n1 1:1\n")
        stream = parse_libsvm(path, d=2, labels="pm1")
        ys = [y for y, _ in stream.iter_records()]
        assert ys == [-1.0, 1.0]

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

    def test_malformed_line_strict(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("+1 1:0.5\n+1 oops\n")
        stream = parse_libsvm(path, d=2, strict=True)
        with pytest.raises(InvalidInputError, match=":2"):
            list(stream.iter_records())

    def test_malformed_line_lenient_counts_skips(self, tmp_path):
        path = tmp_path / "e.svm"
        path.write_text("+1 1:0.5\n+1 oops\n-1 2:1.0\n")
        stream = parse_libsvm(path, d=2, strict=False)
        records = list(stream.iter_records())
        assert len(records) == 2
        assert stream.skipped == 1

    def test_nonincreasing_indices_rejected(self, tmp_path):
        path = tmp_path / "f.svm"
        path.write_text("+1 3:1.0 2:1.0\n")
        with pytest.raises(InvalidInputError, match="increasing"):
            list(parse_libsvm(path, d=3).iter_records())

    def test_dimension_inference_counts_a_pass(self, tmp_path):
        path = tmp_path / "g.svm"
        path.write_text("+1 5:1.0\n")
        stream = parse_libsvm(path)
        assert stream.d == 5
        assert stream.passes == 1


class TestProjection:
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
        stream = project(ArrayStream(np.ones(1), np.zeros((1, D))), spec)
        x1 = np.where(rng.random(D) < 0.1, rng.normal(0, 1, D), 0.0)
        x2 = np.where(rng.random(D) < 0.1, rng.normal(0, 1, D), 0.0)
        a, b = 2.5, -1.25

        def apply(v):
            nz = np.flatnonzero(v)
            return stream.project_record(nz, v[nz])

        lhs = apply(a * x1 + b * x2)
        rhs = a * apply(x1) + b * apply(x2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_out_of_range_index_rejected(self):
        spec = ProjectionSpec(seed=7, input_dim=10, output_dim=5)
        with pytest.raises(InvalidInputError, match="dimension"):
            spec.column(10)

    def test_expected_entry_distribution(self):
        spec = ProjectionSpec(seed=8, input_dim=10_000, output_dim=2000)
        col = spec.column(3)
        s = spec.sparsity
        mag = math.sqrt(s / 2000)
        values = set(np.round(np.unique(col), 12))
        assert values <= {0.0, round(mag, 12), round(-mag, 12)}
        frac_nonzero = np.mean(col != 0)
        assert frac_nonzero == pytest.approx(1.0 / s, rel=0.5)


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

    def test_smoothed_huber_noise_density(self):
        # rejection sampler must produce the unnormalized density
        # exp(-b^2 (sqrt(1 + v^2/b^2) - 1)); check via histogram ratio
        from passglm.data import _sample_smoothed_huber_noise

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
        np.testing.assert_array_equal(a.comp, b.comp)

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
        sharded = run_sharded(paths, 3, mapping_logit(), 2, 4.0, d=4)
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

    def test_one_file_uses_one_stream(self, tmp_path, monkeypatch):
        import passglm.data as data

        rng = np.random.default_rng(9)
        path = tmp_path / "only.svm"
        write_libsvm(path, np.where(rng.random(300) < 0.5, 1.0, -1.0), rng.uniform(-0.4, 0.4, (300, 4)))
        made = []
        file_shards = data._file_shards

        def recording(*args):
            made.append(file_shards(*args))
            return made[-1]

        monkeypatch.setattr(data, "_file_shards", recording)
        sharded = run_sharded([str(path)], 2, mapping_logit(), 2, 4.0, d=4)
        assert [len(streams) for streams in made] == [1]
        sequential = build_stats(parse_libsvm(path, d=4), mapping_logit(), 2, 4.0)
        np.testing.assert_array_equal(sharded.values(), sequential.values())
        assert sharded.n == 300

    def test_shard_count_validation(self):
        with pytest.raises(InvalidInputError):
            run_sharded(self._dataset(10), 0, mapping_logit(), 2, 4.0)
