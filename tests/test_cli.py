import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import passglm.data as data
from passglm.cli import _f8_b64, _f8_from_b64, _gaussian_from_json, build_parser, main
from passglm.data import ArrayStream, ProjectionSpec, build_stats, parse_libsvm, project, write_libsvm
from passglm.chebyshev import fit_chebyshev
from passglm.mappings import fit_terms, get_mapping, mapping_cauchy, mapping_logit
from passglm.posterior import PriorSpec, posterior_general, posterior_lr2
from passglm.suffstats import load_stats, merge, serialize


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(0)
    n, d = 600, 3
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X *= rng.random(n)[:, None] ** (1.0 / d)
    theta = np.array([1.0, -1.0, 0.5])
    p = 1.0 / (1.0 + np.exp(-(X @ theta)))
    y = np.where(rng.random(n) < p, 1.0, -1.0)
    path = tmp_path / "data.svm"
    write_libsvm(path, y, X)
    return path, y, X


def run(*argv):
    return main([str(a) for a in argv])


def _gaussian_doc(**fields) -> str:
    """A d = 2 schema 1 ``gaussian`` document with ``fields`` replaced or added."""
    doc = {"kind": "gaussian", "d": 2, "mean": [0, 0], "chol_lower": [1, 0, 0, 1], "logdet": 0}
    return json.dumps({**doc, **fields})


# `approx --degree 4 --radius 3 --bscale 2` output fields per model
APPROX_GOLDEN = {
    "logit": {
        "b": [
            -0.6963020131639087, 0.5000000000000003, -0.11797732842477468,
            -4.1119371282413215e-17, 0.0026171339716734,
        ],
        "c": [
            -1.1477045466858153, 1.0606601717798214, -0.30045253656435805,
            -1.962615573354719e-16, 0.01873725593376992,
        ],
        "sup_err_est": 0.003154832603963431,
        "bound": {
            "r": 2.3303266097083393,
            "C": 1.8910352653272267,
            "sup_bound": 0.048203011571819034,
            "deriv_bound": 12.866253628876056,
        },
    },
    "poisson": {
        "b": [
            -1.0417780678809927, -0.7160728859430567, -0.4188407614125375,
            -0.2843714457765951, -0.06433682606181446,
        ],
        "c": [
            -4.880792585865025, -5.590909778532643, -3.1752098843719394,
            -1.3572965993700576, -0.460616685631825,
        ],
        "sup_err_est": 0.23666139778962503,
        "bound": {
            "r": 3.8300010025726356,
            "C": 462.49988576365223,
            "sup_bound": 0.7595029932993645,
            "deriv_bound": 73.01977929617064,
        },
    },
    "shuber": {
        "b": [
            -0.019628697854089383, 2.7755575615628923e-16, -0.45316048303474266,
            -5.345518266713718e-17, 0.011118731491881327,
        ],
        "c": [
            -1.7211194024445358, -1.7663540160192472e-16, -1.1235315446762515,
            -2.551400245361135e-16, 0.07960407066552976,
        ],
        "sup_err_est": 0.019628697854089383,
        "bound": {
            "r": 1.8685170848115116,
            "C": 4.246211238112812,
            "sup_bound": 0.40108362984929347,
            "deriv_bound": 229.21526256949073,
        },
    },
    "probit": {
        "b": [
            -0.6965794920832, -0.8070826378715443, -0.3110234537183938,
            -0.032892319635796315, 0.002396611488865391,
        ],
        "c": [
            -2.0233879598416857, -2.1830630594850837, -0.921036830001839,
            -0.15699408027813228, 0.017158434885918845,
        ],
        "sup_err_est": 0.009026308795234209,
        "bound": None,
    },
    "gamma": {
        "b": [
            -2.0835561357619823, 1.432145771886118, -0.8376815228250774,
            0.5687428915531894, -0.12867365212362855,
        ],
        "c": [
            -9.761585171730047, 11.181819557065284, -6.350419768743876,
            2.7145931987401113, -0.9212333712636476,
        ],
        "sup_err_est": 0.4733227955792785,
        "bound": {
            "r": 3.8300010025726356,
            "C": 924.9997715273045,
            "sup_bound": 1.519005986598729,
            "deriv_bound": 146.03955859234128,
        },
    },
}


def assert_close_tree(got, want):
    if isinstance(want, dict):
        assert set(got) == set(want)
        for key in want:
            assert_close_tree(got[key], want[key])
    elif want is None:
        assert got is None
    else:
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


class TestApprox:
    def test_logit_json_fields(self, tmp_path):
        out = tmp_path / "approx.json"
        assert run("approx", "--model", "logit", "--degree", 2, "--radius", 4, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["M"] == 2 and doc["R"] == 4.0
        assert len(doc["b"]) == 3 and len(doc["c"]) == 3
        assert doc["sup_err_est"] < 0.069
        assert doc["bound"]["sup_bound"] >= doc["sup_err_est"]
        assert doc["bound"]["deriv_bound"] > 0

    def test_probit_has_no_bound(self, tmp_path):
        out = tmp_path / "p.json"
        assert run("approx", "--model", "probit", "--degree", 4, "--radius", 2, "--out", out) == 0
        assert json.loads(out.read_text())["bound"] is None

    def test_shuber_uses_bscale(self, tmp_path):
        out = tmp_path / "s.json"
        assert (
            run("approx", "--model", "shuber", "--degree", 4, "--radius", 1,
                "--bscale", 1.0, "--out", out) == 0
        )
        doc = json.loads(out.read_text())
        assert doc["bound"]["sup_bound"] >= doc["sup_err_est"]

    def test_cauchy_fits_its_term_without_bound(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("approx", "--model", "cauchy", "--degree", 4, "--radius", 2,
                   "--bscale", 2, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["bound"] is None
        expected = fit_chebyshev(mapping_cauchy(2.0).terms[0].phi, 4, 2.0)
        np.testing.assert_array_equal(doc["b"], expected.b)

    def test_former_poisson_exp_name_is_rejected(self):
        with pytest.raises(SystemExit):
            run("approx", "--model", "poisson-exp", "--degree", 4, "--radius", 2)

    @pytest.mark.parametrize("model", list(APPROX_GOLDEN))
    def test_golden_output(self, model, tmp_path):
        out = tmp_path / "approx.json"
        assert run("approx", "--model", model, "--degree", 4, "--radius", 3,
                   "--bscale", 2, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert_close_tree({k: doc[k] for k in APPROX_GOLDEN[model]}, APPROX_GOLDEN[model])


class TestStatsCommands:
    def test_build_then_load(self, dataset, tmp_path):
        path, y, X = dataset
        out = tmp_path / "stats.pglm"
        assert (
            run("stats", "build", "--input", path, "--model", "logit", "--degree", 2,
                "--radius", 4, "--dim", 3, "--out", out) == 0
        )
        stats = load_stats(out)
        assert stats.n == len(y)
        direct = build_stats(ArrayStream(y, X), mapping_logit(), 2, 4.0)
        np.testing.assert_allclose(stats.values(), direct.values(), rtol=1e-15)

    def test_build_reads_messy_text_like_clean(self, dataset, tmp_path):
        path, y, X = dataset
        clean = path.read_text().splitlines()
        messy = ["# written by hand", ""]
        for i, line in enumerate(clean):
            messy.append(line.replace(" ", "\t") if i % 3 == 0 else line)
            if i % 50 == 0:
                messy += ["   ", "  # a comment 1:2"]
        messy_path = tmp_path / "messy.svm"
        messy_path.write_bytes("\r\n".join(messy).encode())  # CRLF, no final newline
        built = []
        for source in (path, messy_path):
            out = tmp_path / f"{source.stem}.pglm"
            assert run("stats", "build", "--input", source, "--model", "logit", "--degree", 2,
                       "--radius", 4, "--dim", 3, "--out", out) == 0
            built.append(load_stats(out))
        assert built[0].n == built[1].n == len(y)
        np.testing.assert_allclose(built[1].values(), built[0].values(), rtol=1e-12)

    def test_cli_shard_merge_equals_in_process(self, dataset, tmp_path):
        path, y, X = dataset
        # split the file into three shards, build each via the CLI
        shard_paths = []
        for i in range(3):
            sp = tmp_path / f"shard{i}.svm"
            write_libsvm(sp, y[i::3], X[i::3])
            shard_paths.append(sp)
        stat_paths = []
        for i, sp in enumerate(shard_paths):
            op = tmp_path / f"shard{i}.pglm"
            assert (
                run("stats", "build", "--input", sp, "--model", "logit", "--degree", 2,
                    "--radius", 4, "--dim", 3, "--out", op) == 0
            )
            stat_paths.append(op)
        merged_path = tmp_path / "merged.pglm"
        assert run("stats", "merge", *stat_paths, "--out", merged_path) == 0
        via_cli = load_stats(merged_path)

        parts = [load_stats(p) for p in stat_paths]
        in_process = merge(merge(parts[0], parts[1]), parts[2])
        np.testing.assert_array_equal(via_cli.values(), in_process.values())
        assert via_cli.n == len(y)

    @pytest.mark.filterwarnings("ignore")  # the overflow and the norm warning, as expected
    def test_build_of_overflowing_statistics_exits_2(self, dataset, tmp_path, capsys):
        _, y, X = dataset
        X = X.copy()
        X[5] = 1e160  # its degree-2 monomials overflow
        path, out = tmp_path / "huge.svm", tmp_path / "stats.pglm"
        write_libsvm(path, y, X)
        assert run("stats", "build", "--input", path, "--model", "logit", "--degree", 2,
                   "--radius", 4, "--dim", 3, "--out", out) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "is inf; a statistics file holds only finite entries" in errors[0]
        assert not out.exists()


class TestFitAndEval:
    def test_fit_gaussian_posterior(self, dataset, tmp_path):
        path, y, X = dataset
        stats_path = tmp_path / "stats.pglm"
        run("stats", "build", "--input", path, "--model", "logit", "--degree", 2,
            "--radius", 4, "--dim", 3, "--out", stats_path)
        post_path = tmp_path / "posterior.json"
        assert (
            run("fit", "--stats", stats_path, "--prior", "gaussian:4", "--out", post_path) == 0
        )
        doc = json.loads(post_path.read_text())
        assert doc["kind"] == "gaussian"
        (approx,) = fit_terms(mapping_logit(), 2, 4.0)
        stats = build_stats(ArrayStream(y, X), mapping_logit(), 2, 4.0)
        expected = posterior_lr2(stats, approx, PriorSpec.gaussian(4.0))
        np.testing.assert_allclose(doc["mean"], expected.mean, rtol=1e-12)

    def test_fit_flat_prior_takes_the_closed_form(self, dataset, tmp_path):
        path, y, X = dataset
        stats_path, post_path = tmp_path / "stats.pglm", tmp_path / "posterior.json"
        run("stats", "build", "--input", path, "--model", "logit", "--degree", 2,
            "--radius", 4, "--dim", 3, "--out", stats_path)
        assert run("fit", "--stats", stats_path, "--prior", "flat", "--out", post_path) == 0
        doc = json.loads(post_path.read_text())
        assert doc["kind"] == "gaussian"
        expected = posterior_lr2(build_stats(ArrayStream(y, X), mapping_logit(), 2, 4.0), None, PriorSpec.flat())
        assert doc["mean"] == expected.mean.tolist()
        assert _gaussian_from_json(doc).chol.tobytes() == expected.chol.tobytes()

    def test_fit_document_reads_back_bit_identical(self, dataset, tmp_path):
        path, _, _ = dataset
        stats_path = tmp_path / "stats.pglm"
        run("stats", "build", "--input", path, "--model", "logit", "--degree", 2,
            "--radius", 4, "--dim", 3, "--out", stats_path)
        post_path = tmp_path / "posterior.json"
        run("fit", "--stats", stats_path, "--prior", "gaussian:4", "--out", post_path)
        text = post_path.read_text()
        assert text.count("\n") == 1  # compact: one line
        stats = load_stats(stats_path)
        (approx,) = fit_terms(stats.mapping, 2, stats.radius)
        written = posterior_lr2(stats, approx, PriorSpec.gaussian(4.0))
        back = _gaussian_from_json(json.loads(text))
        assert np.array_equal(back.mean, written.mean)
        assert np.array_equal(back.chol, written.chol)
        assert back.logdet == written.logdet

    def test_surrogate_document_reads_back_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.uniform(-0.4, 0.4, (300, 3))
        y = rng.poisson(np.exp(X @ [0.5, -0.5, 0.2])).astype(float)
        data_path, stats_path, post_path = (tmp_path / n for n in ("d.svm", "s.pglm", "p.json"))
        write_libsvm(data_path, y, X)
        run("stats", "build", "--input", data_path, "--model", "poisson", "--degree", 4,
            "--radius", 2, "--dim", 3, "--out", stats_path)
        assert run("fit", "--stats", stats_path, "--prior", "gaussian:4", "--domain-radius", 2,
                   "--out", post_path) == 0
        doc = json.loads(post_path.read_text())
        assert doc["schema_version"] == 2 and doc["kind"] == "surrogate"
        post = posterior_general(load_stats(stats_path), None, PriorSpec.gaussian(4.0), domain_radius=2.0)
        coefficients = _f8_from_b64(doc["coefficients_b64"], post.coefficients.size, "coefficients_b64")
        assert coefficients.tobytes() == post.coefficients.tobytes()
        assert doc["map"] == post.map_estimate.tolist()
        back = _gaussian_from_json(doc)
        assert back.mean.tobytes() == post.laplace.mean.tobytes()
        assert back.chol.tobytes() == post.laplace.chol.tobytes()
        assert back.logdet == post.laplace.logdet

    def test_schema_1_and_schema_2_documents_read_alike(self):
        rng = np.random.default_rng(3)
        chol = np.tril(rng.standard_normal((4, 4)))
        mean = rng.standard_normal(4)
        schema_1 = {"kind": "gaussian", "d": 4, "mean": mean.tolist(),
                    "chol_lower": chol.ravel().tolist(), "logdet": -1.5}
        schema_2 = {"schema_version": 2, "kind": "gaussian", "d": 4, "mean": mean.tolist(),
                    "chol_lower_b64": _f8_b64(chol[np.tri(4, dtype=bool)]), "logdet": -1.5}
        for doc in (schema_1, {**schema_1, "schema_version": 1}, schema_2):
            back = _gaussian_from_json(json.loads(json.dumps(doc)))
            assert back.mean.tobytes() == mean.tobytes() and back.chol.tobytes() == chol.tobytes()
            assert back.logdet == -1.5

    def test_fit_merges_multiple_stats_files(self, dataset, tmp_path):
        path, y, X = dataset
        half_a, half_b = tmp_path / "a.svm", tmp_path / "b.svm"
        write_libsvm(half_a, y[:300], X[:300])
        write_libsvm(half_b, y[300:], X[300:])
        for name, p in [("a", half_a), ("b", half_b)]:
            run("stats", "build", "--input", p, "--model", "logit", "--degree", 2,
                "--radius", 4, "--dim", 3, "--out", tmp_path / f"{name}.pglm")
        post_path = tmp_path / "post.json"
        assert (
            run("fit", "--stats", tmp_path / "a.pglm", tmp_path / "b.pglm",
                "--prior", "gaussian:4", "--out", post_path) == 0
        )
        doc = json.loads(post_path.read_text())
        assert doc["d"] == 3

    def test_eval_report(self, dataset, tmp_path):
        path, y, X = dataset
        stats_path = tmp_path / "stats.pglm"
        run("stats", "build", "--input", path, "--model", "logit", "--degree", 2,
            "--radius", 4, "--dim", 3, "--out", stats_path)
        post_path = tmp_path / "post.json"
        run("fit", "--stats", stats_path, "--prior", "gaussian:4", "--out", post_path)
        ref_path = tmp_path / "laplace.json"
        assert (
            run("baseline", "--method", "laplace", "--input", path, "--model", "logit",
                "--prior", "gaussian:4", "--dim", 3, "--out", ref_path) == 0
        )
        report_path = tmp_path / "report.json"
        assert (
            run("eval", "--posterior", post_path, "--reference", ref_path,
                "--test", path, "--model", "logit", "--out", report_path) == 0
        )
        doc = json.loads(report_path.read_text())
        assert doc["schema_version"] == 1
        assert doc["mean_err"] >= 0 and doc["var_err"] >= 0 and doc["w2"] >= 0
        assert 0.0 <= doc["auc"] <= 1.0
        assert doc["test_nll"] > 0
        assert doc["histogram"]["in_range_fraction"] >= 0.98
        assert run("eval", "--posterior", post_path, "--reference", ref_path, "--out", report_path) == 0
        doc = json.loads(report_path.read_text())
        assert sorted(doc) == ["mean_err", "schema_version", "var_err", "w2"]

    def test_eval_of_an_empty_test_file_exits_2_without_a_report(self, tmp_path, capsys):
        train, stats, post = tmp_path / "train.svm", tmp_path / "stats.pglm", tmp_path / "post.json"
        assert run("synth", "--model", "poisson", "--dim", 3, "--n", 200, "--theta", 0.3,
                   "--out", train) == 0
        assert run("stats", "build", "--input", train, "--model", "poisson", "--degree", 4,
                   "--radius", 2, "--dim", 3, "--out", stats) == 0
        assert run("fit", "--stats", stats, "--prior", "gaussian:4", "--out", post) == 0
        empty, report = tmp_path / "empty.svm", tmp_path / "report.json"
        empty.write_text("")
        capsys.readouterr()
        assert run("eval", "--posterior", post, "--reference", post, "--test", empty,
                   "--model", "poisson", "--out", report) == 2
        assert capsys.readouterr().err == "error: held-out metrics are undefined without records\n"
        assert not report.exists()

    def test_pathological_fit_fails_cleanly(self, dataset, tmp_path, capsys):
        path, _, _ = dataset
        stats_path = tmp_path / "stats4.pglm"
        run("stats", "build", "--input", path, "--model", "logit", "--degree", 4,
            "--radius", 4, "--dim", 3, "--out", stats_path)
        code = run("fit", "--stats", stats_path, "--prior", "gaussian:4",
                   "--out", tmp_path / "nope.json")
        assert code == 2
        assert "makes the surrogate log-likelihood unbounded above" in capsys.readouterr().err


class TestLabels:
    """The CLI reads labels as written and the model's mapping checks them."""

    @staticmethod
    def commands(path, model, out, posterior):
        return [
            ["stats", "build", "--input", path, "--model", model, "--degree", 2,
             "--radius", 4, "--dim", 3, "--out", out / "stats.pglm"],
            ["baseline", "--method", "laplace", "--input", path, "--model", model,
             "--prior", "gaussian:4", "--dim", 3, "--out", out / "laplace.json"],
            ["eval", "--posterior", posterior, "--reference", posterior,
             "--test", path, "--model", model, "--out", out / "report.json"],
        ]

    @pytest.mark.parametrize("model", ["logit", "probit"])
    def test_pm1_and_01_files_give_the_same_bytes(self, dataset, tmp_path, model):
        _, y, X = dataset
        outputs = []
        for coding, labels in (("pm1", y), ("01", (y > 0).astype(float))):
            path = tmp_path / f"{coding}.svm"
            write_libsvm(path, labels, X)
            out = tmp_path / coding
            out.mkdir()
            for argv in self.commands(path, model, out, out / "laplace.json"):
                assert run(*argv) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            mapped = parse_libsvm(path, d=3, labels=get_mapping(model).label_mode)
            assert outputs[-1]["stats.pglm"] == serialize(build_stats(mapped, get_mapping(model), 2, 4.0))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", [0, 1, 2])
    def test_labels_outside_0_1_are_refused(self, dataset, tmp_path, capsys, command):
        valid, y, X = dataset
        path = tmp_path / "two_four.svm"  # libsvm's breast-cancer coding
        write_libsvm(path, np.where(y > 0, 4.0, 2.0), X)
        good = tmp_path / "good"
        good.mkdir()
        posterior = good / "laplace.json"
        assert run(*self.commands(valid, "logit", good, posterior)[1]) == 0
        assert run(*self.commands(path, "logit", tmp_path, posterior)[command]) == 2
        assert "binary labels must be in {-1, 0, +1}; record 0 has label" in capsys.readouterr().err


class TestBaselineCommands:
    def test_sgd_point_estimate(self, dataset, tmp_path):
        path, _, _ = dataset
        out = tmp_path / "sgd.json"
        assert (
            run("baseline", "--method", "sgd", "--input", path, "--model", "logit",
                "--prior", "gaussian:4", "--dim", 3, "--epochs", 2, "--seed", 1,
                "--out", out) == 0
        )
        doc = json.loads(out.read_text())
        assert doc["kind"] == "point" and len(doc["theta"]) == 3

    def test_mala_outputs_draws_and_rhat(self, dataset, tmp_path):
        path, _, _ = dataset
        out = tmp_path / "mala.json"
        draws = tmp_path / "draws.npz"
        assert (
            run("baseline", "--method", "mala", "--input", path, "--model", "logit",
                "--prior", "gaussian:4", "--dim", 3, "--iters", 2000, "--chains", 2,
                "--seed", 0, "--out", out, "--draws-out", draws) == 0
        )
        doc = json.loads(out.read_text())
        assert len(doc["rhat"]) == 3
        stored = np.load(draws)["draws"]
        assert stored.shape == (2, 1000, 3)


class TestProjectAndSynth:
    def test_synth_then_project(self, tmp_path):
        raw = tmp_path / "raw.svm"
        assert (
            run("synth", "--model", "logit", "--dim", 50, "--n", 200, "--theta", "0.2",
                "--seed", 3, "--out", raw) == 0
        )
        projected = tmp_path / "proj.svm"
        assert (
            run("project", "--input", raw, "--output", projected, "--dim", 10,
                "--seed", 4, "--input-dim", 50) == 0
        )
        stream = parse_libsvm(projected, d=10)
        y, X = stream.materialize()
        assert X.shape == (200, 10)

    def test_project_writes_the_projected_records(self, tmp_path):
        raw, projected, oracle = tmp_path / "raw.svm", tmp_path / "proj.svm", tmp_path / "oracle.svm"
        assert run("synth", "--model", "logit", "--dim", 20, "--n", 9000, "--seed", 3, "--out", raw) == 0
        assert run("project", "--input", raw, "--output", projected, "--dim", 7, "--seed", 4) == 0
        spec = ProjectionSpec(seed=4, input_dim=20, output_dim=7)
        write_libsvm(oracle, *project(parse_libsvm(raw), spec).materialize())
        assert projected.read_bytes() == oracle.read_bytes()

    def test_project_memory_does_not_grow_with_the_input(self, tmp_path, monkeypatch):
        # each batch of 8,192 records is written as it arrives, so twice the
        # records take no more memory once both inputs span two batches (and,
        # with small parse windows, many windows)
        monkeypatch.setattr(data, "_WINDOW_CHARS", 1 << 14)
        rng = np.random.default_rng(5)
        peaks = []
        for n in (17_000, 34_000):
            raw = tmp_path / f"raw{n}.svm"
            cols = rng.integers(1, 1001, (n, 2))
            raw.write_text("".join(
                "1 " + " ".join(f"{j}:1" for j in sorted(set(row))) + "\n" for row in cols.tolist()
            ))
            tracemalloc.start()
            try:
                assert run("project", "--input", raw, "--output", tmp_path / "out.svm",
                           "--dim", 50, "--input-dim", 1000) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        dense = 34_000 * 50 * 8  # the bytes of the whole projected input
        assert peaks[1] <= 1.1 * peaks[0] and peaks[1] < dense

    def test_threads_flag_is_gone(self, monkeypatch):
        monkeypatch.setenv("PASSGLM_THREADS", "3")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--threads", "2", "synth", "--model", "logit", "--dim", "2",
                                       "--n", "5", "--out", "x.svm"])


class TestUnusableOptions:
    """An option value the command cannot use, or an input file that does
    not exist, ends in exit code 2 and one ``error:`` line, not a traceback,
    and writes no output."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fit", "--stats", "{stats}", "--prior", "gaussian:abc"], "cannot parse prior"),
            (["fit", "--stats", "{stats}", "--prior", "gaussian:nan"], "prior variance must be positive"),
            (["synth", "--model", "logit", "--dim", 2, "--n", 5, "--theta", "1,x",
              "--out", "{tmp}/out.svm"], "--theta takes numbers"),
            (["synth", "--model", "logit", "--dim", 2, "--n", 5, "--theta", "nan",
              "--out", "{tmp}/out.svm"], "theta must be finite"),
            (["synth", "--model", "logit", "--dim", 2, "--n", 5, "--theta", "0.5,inf",
              "--out", "{tmp}/out.svm"], "theta must be finite"),
            (["synth", "--model", "logit", "--dim", 3, "--n", 5, "--theta", "1,2",
              "--out", "{tmp}/out.svm"], "theta takes 1 or d=3 values, got 2"),
            (["synth", "--model", "logit", "--dim", 2, "--n", -1, "--out", "{tmp}/out.svm"],
             "n >= 0"),
            (["synth", "--model", "logit", "--dim", 0, "--n", 5, "--out", "{tmp}/out.svm"],
             "d >= 1"),
            (["project", "--input", "{data}", "--output", "{tmp}/out.svm", "--dim", 0],
             "projection dimensions must be >= 1"),
            (["fit", "--stats", "{missing}", "--prior", "flat", "--out", "{tmp}/out.json"],
             "No such file or directory: '{missing}'"),
            (["stats", "build", "--input", "{missing}", "--model", "logit", "--degree", 2,
              "--radius", 4, "--out", "{tmp}/out.pglm"], "No such file or directory: '{missing}'"),
            (["stats", "merge", "{missing}", "--out", "{tmp}/out.pglm"],
             "No such file or directory: '{missing}'"),
            (["project", "--input", "{missing}", "--output", "{tmp}/out.svm", "--dim", 2],
             "No such file or directory: '{missing}'"),
            (["eval", "--posterior", "{post}", "--reference", "{post}", "--test", "{missing}",
              "--out", "{tmp}/out.json"], "No such file or directory: '{missing}'"),
            (["fit", "--stats", "{stats}", "--prior", "gaussian:4", "--domain-radius", -1,
              "--out", "{tmp}/out.json"], "domain radius must be > 0, got -1.0"),
            (["fit", "--stats", "{stats}", "--prior", "gaussian:4", "--domain-radius", 0,
              "--out", "{tmp}/out.json"], "domain radius must be > 0, got 0.0"),
            (["fit", "--stats", "{stats}", "--prior", "gaussian:4", "--domain-radius", "nan",
              "--out", "{tmp}/out.json"], "domain radius must be > 0, got nan"),
            (["fit", "--stats", "{stats}", "--prior", "gaussian:4", "--domain-radius", "inf",
              "--out", "{tmp}/out.json"], "domain radius must be > 0, got inf"),
            (["eval", "--posterior", "{post}", "--reference", "{post}", "--test", "{data}",
              "--radius", "inf", "--out", "{tmp}/out.json"],
             "histogram radius must be finite and > 0, got inf"),
            (["eval", "--posterior", "{post}", "--reference", "{post}", "--test", "{data}",
              "--radius", "nan", "--out", "{tmp}/out.json"],
             "histogram radius must be finite and > 0, got nan"),
            (["baseline", "--method", "mala", "--input", "{data}", "--model", "logit",
              "--iters", 100, "--chains", 0, "--out", "{tmp}/out.json"], "chain count must be >= 1"),
            (["baseline", "--method", "mala", "--input", "{data}", "--model", "logit",
              "--iters", 100, "--chains", -2, "--out", "{tmp}/out.json"], "chain count must be >= 1"),
            (["baseline", "--method", "sgd", "--input", "{data}", "--model", "logit",
              "--eta0", -1, "--out", "{tmp}/out.json"], "eta0 must be finite and > 0"),
            (["baseline", "--method", "sgd", "--input", "{data}", "--model", "logit",
              "--eta0", "nan", "--out", "{tmp}/out.json"], "eta0 must be finite and > 0"),
            (["synth", "--model", "logit", "--dim", 2, "--n", 5, "--seed", -1,
              "--out", "{tmp}/out.svm"], "seed must be >= 0, got -1"),
            (["baseline", "--method", "sgd", "--input", "{data}", "--model", "logit",
              "--seed", -1, "--out", "{tmp}/out.json"], "seed must be >= 0, got -1"),
            (["baseline", "--method", "mala", "--input", "{data}", "--model", "logit",
              "--iters", 100, "--seed", -1, "--out", "{tmp}/out.json"], "seed must be >= 0, got -1"),
            (["project", "--input", "{data}", "--output", "{tmp}/out.svm", "--dim", 2, "--seed", -1],
             "projection seed must be in [0, 2**63), got -1"),
            (["project", "--input", "{data}", "--output", "{tmp}/out.svm", "--dim", 2,
              "--seed", 2**64], f"projection seed must be in [0, 2**63), got {2**64}"),
            (["stats", "build", "--input", "{data}", "--model", "logit", "--degree", 2,
              "--radius", "inf", "--out", "{tmp}/out.pglm"],
             "approximation radius must be finite and positive, got inf"),
        ],
        ids=["prior not a number", "prior nan", "theta not a number", "theta nan", "theta inf",
             "theta length", "negative n", "synth to 0", "project to 0", "fit missing",
             "stats build missing", "stats merge missing", "project missing", "eval missing",
             "domain radius negative", "domain radius 0", "domain radius nan", "domain radius inf",
             "eval radius inf", "eval radius nan", "chains 0",
             "chains negative", "eta0 negative", "eta0 nan", "synth seed negative",
             "sgd seed negative", "mala seed negative", "project seed negative",
             "project seed past 64 bits", "stats build radius inf"],
    )
    def test_exits_2_with_an_error_line(self, dataset, tmp_path, capsys, argv, message):
        path, _, _ = dataset
        stats, post = tmp_path / "stats.pglm", tmp_path / "post.json"
        run("stats", "build", "--input", path, "--model", "logit", "--degree", 2,
            "--radius", 4, "--dim", 3, "--out", stats)
        run("fit", "--stats", stats, "--prior", "gaussian:4", "--out", post)
        capsys.readouterr()
        fields = {"stats": stats, "tmp": tmp_path, "data": path, "post": post,
                  "missing": tmp_path / "nowhere" / "in.dat"}
        assert run(*[str(a).format(**fields) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message.format(**fields) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.glob("out.*"))

    @pytest.mark.parametrize(
        "content,message",
        [
            ("not json", "Expecting value"),
            ('{"kind": "gaussian"}', "missing field 'd'"),
            ('{"kind": "surrogate", "d": 2, "laplace": {"mean": [0, 0], "chol_lower": [1, 0, 1], '
             '"logdet": 0}}', "got d=2, 2 and 3"),
            ('{"kind": "gaussian", "d": 2, "mean": [0, 0, 0], "chol_lower": [1, 0, 0, 1], '
             '"logdet": 0}', "got d=2, 3 and 4"),
            (_gaussian_doc(mean=[float("nan"), 0], chol_lower=[1, 5, float("inf"), 1],
                           logdet=float("nan")), "mean holds a non-finite value"),
            (_gaussian_doc(chol_lower=[1, 0, float("inf"), 1]), "chol_lower holds a non-finite value"),
            (_gaussian_doc(logdet=float("nan")), "logdet holds a non-finite value"),
            (_gaussian_doc(chol_lower=[1, 5, 0, 1]), "chol_lower has a nonzero entry above the diagonal"),
            (_gaussian_doc(schema_version=99), "unknown schema_version 99"),
            (_gaussian_doc(schema_version=2), "missing field 'chol_lower_b64'"),
            (_gaussian_doc(schema_version=2, chol_lower_b64="not base64!"), "chol_lower_b64 is not base64"),
            (_gaussian_doc(schema_version=2, chol_lower_b64="AAAAAAAAAAA"), "chol_lower_b64 is not base64"),
            (_gaussian_doc(schema_version=2, chol_lower_b64=[1, 0, 1]), "chol_lower_b64 is not base64"),
            (_gaussian_doc(schema_version=2, chol_lower_b64=_f8_b64(np.eye(2))),
             "chol_lower_b64 holds 32 bytes, need 3 float64 values"),
            (_gaussian_doc(schema_version=2, chol_lower_b64=_f8_b64([1.0, float("nan"), 1.0])),
             "chol_lower_b64 holds a non-finite value"),
            (_gaussian_doc(schema_version=2, chol_lower_b64=_f8_b64([1.0, 0.0, 1.0]), mean=[0, float("inf")]),
             "mean holds a non-finite value"),
            (json.dumps({"schema_version": 2, "kind": "surrogate", "d": 2, "laplace": {
                "mean": [0, 0], "chol_lower_b64": _f8_b64([1.0, 0.0]), "logdet": 0}}),
             "chol_lower_b64 holds 16 bytes, need 3 float64 values"),
        ],
        ids=["not json", "no d", "short surrogate factor", "long mean",
             "nan mean inf factor nan logdet", "inf factor", "nan logdet", "upper entry",
             "unknown version", "schema 2 without its factor", "bad base64", "bad padding",
             "factor as numbers", "long factor", "nan factor", "inf mean", "short surrogate base64"],
    )
    def test_eval_refuses_a_malformed_posterior_file(self, tmp_path, capsys, content, message):
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_text(content)
        good.write_text('{"kind": "gaussian", "d": 2, "mean": [0, 0], "chol_lower": [1, 0, 0, 1], '
                        '"logdet": 0}')
        for pair in ((bad, good), (good, bad)):
            assert run("eval", "--posterior", pair[0], "--reference", pair[1],
                       "--out", tmp_path / "out.json") == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad} is not a posterior file: ") and message in err
            assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.glob("out.*"))


class TestSurrogateFitPath:
    def test_poisson_fit_emits_surrogate_json(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.uniform(-0.4, 0.4, (300, 2))
        y = rng.poisson(np.exp(X @ np.array([0.5, -0.5]))).astype(float)
        data = tmp_path / "pois.svm"
        write_libsvm(data, y, X)
        stats_path = tmp_path / "pois.pglm"
        assert (
            run("stats", "build", "--input", data, "--model", "poisson", "--degree", 4,
                "--radius", 2, "--dim", 2, "--out", stats_path) == 0
        )
        post_path = tmp_path / "pois.json"
        assert (
            run("fit", "--stats", stats_path, "--prior", "gaussian:4",
                "--domain-radius", 2, "--out", post_path) == 0
        )
        doc = json.loads(post_path.read_text())
        assert doc["kind"] == "surrogate"
        assert doc["degree"] == 4
        assert doc["domain_radius"] == 2.0
        assert doc["multiplier"] == 0.0
        assert len(doc["map"]) == 2
        assert len(doc["laplace"]["mean"]) == 2

    def test_binding_domain_radius_fits_on_the_boundary(self, dataset, tmp_path):
        path, _, _ = dataset
        stats_path, post_path = tmp_path / "stats.pglm", tmp_path / "posterior.json"
        run("stats", "build", "--input", path, "--model", "logit", "--degree", 6,
            "--radius", 4, "--dim", 3, "--out", stats_path)
        assert run("fit", "--stats", stats_path, "--prior", "gaussian:4", "--domain-radius", 0.3,
                   "--out", post_path) == 0
        doc = json.loads(post_path.read_text())
        assert doc["kind"] == "surrogate" and doc["domain_radius"] == 0.3
        assert np.linalg.norm(doc["map"]) <= 0.3 * (1 + 4 * 2**-52)
        assert doc["multiplier"] > 0


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    # checks which modules load, not how long loading takes, so a busy machine
    # cannot make it flaky; scipy.stats would be most of every process start
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import passglm, passglm.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'stats'], ['scipy', 'optimize'])))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
