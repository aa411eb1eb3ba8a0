"""Benchmark of the one-pass pipeline: file -> statistics -> posterior.

    python3 perfbench/run.py --workload svm-d20 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The inputs are made from ``--seed``, the pipeline runs in a fresh process for
``--seconds``, and every output is checked against computations made apart
from the package (``reference.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics untraced, the per-layer metrics with ``--trace 1``).
Details, spans included, go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread; the only parallelism is run_sharded's workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "passglm" / "__init__.py").is_file():
    sys.exit(f"perfbench: package source {SRC / 'passglm'} not found; run from a checkout")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy.sparse as sp

import passglm as pg
import reference as ref
from passglm.cli import _gaussian_from_json
from spans import Tracer, self_times
from workloads import WORKLOADS, generate, projection, write_inputs

SETUP_ROUNDS = 3
CHILD_TIMEOUT_S = 150
STATS_TOL = 1e-10  # statistics against numpy sums, relative to the largest entry
POSTERIOR_TOL = 1e-8  # closed-form posterior against the numpy one
MAP_TOL = 1e-6  # projected surrogate gradient, relative to the log-posterior value
METRIC_TOL = 1e-6  # W2 and test NLL against their recomputation
COVERED = 0.98  # share of inner products at the Laplace mean that must lie in [-R, R]


def run_child(cfg: dict, work: Path) -> dict:
    cfg_path, res_path = work / "config.json", work / "result.json"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, str(HERE / "pipeline.py"), str(cfg_path), str(res_path)],
                            env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: pipeline process timed out")
    if code != 0:
        sys.exit(f"perfbench: pipeline process exited with {code}")
    return json.loads(res_path.read_text())


def read_posterior(path: str) -> pg.GaussianPosterior:
    """The Gaussian of a posterior JSON as ``passglm eval`` reads it."""
    return _gaussian_from_json(json.loads(Path(path).read_text()))


def projection_matrix(spec: pg.ProjectionSpec, used: np.ndarray) -> tuple[sp.csr_matrix, bool]:
    """Sparse ``input_dim x output_dim`` matrix of the used columns, and whether
    every entry is 0 or +-sqrt(s/k)."""
    mag = np.sqrt(spec.sparsity / spec.output_dim)
    rows, cols, vals, entries_ok = [], [], [], True
    for j in used:
        col = spec.column(int(j))
        nz = np.flatnonzero(col)
        entries_ok &= bool(np.all(np.abs(col[nz]) == mag))
        rows.append(np.full(nz.size, j))
        cols.append(nz)
        vals.append(col[nz])
    P = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(spec.input_dim, spec.output_dim))
    return P, entries_ok


class Checker:
    """Reference values of one workload and the checks of its outputs."""

    def __init__(self, w, data, perturb: str | None, tr: Tracer):
        self.w, self.perturb = w, perturb
        y = data["y"]
        self.run_checks = {}
        if w.input_dim:
            spec = projection(w, data["projection_seed"])
            used = np.union1d(data["X"].indices, data["X_test"].indices)
            P, entries_ok = projection_matrix(spec, used)
            self.X, self.X_test = (data["X"] @ P).toarray(), (data["X_test"] @ P).toarray()
            rows = data["X"][:8].toarray()
            got = pg.project(pg.ArrayStream(y[:8], rows), spec).materialize()[1]
            want = [sum((v * spec.column(j) for j, v in zip(np.flatnonzero(r), r[np.flatnonzero(r)])),
                        np.zeros(w.d)) for r in rows]
            self.run_checks["projection"] = entries_ok and ref.rel_err(got, np.array(want)) <= 1e-12
        else:
            self.X, self.X_test = data["X"], data["X_test"]
        self.y, self.y_test = y, data["y_test"]

        fitted = pg.fit_terms(w.mapping, w.M, w.R)
        phis = (ref.logit_phi,) if w.model == "logit" else (ref.identity, ref.neg_exp)
        self.b = [ref.chebyshev_monomials(phi, w.M, w.R) for phi in phis]
        scale = max(float(np.max(np.abs(b))) for b in self.b)
        self.run_checks["chebyshev"] = all(
            float(np.max(np.abs(f.b - b))) <= 1e-10 * scale for f, b in zip(fitted, self.b))
        if w.model == "logit":
            Z = y[:, None] * self.X
            self.stats = ref.raw_m2_stats(Z)
            self.mean, self.cov = ref.lr2_posterior(self.b[0], Z, w.prior_var)
        else:
            G = y[:, None] * self.b[0][None, :] + self.b[1][None, :]
            self.stats = ref.general_stats(self.X, G, w.M)

        # the package's default tolerance (1e-8, absolute) is out of reach at
        # rounding level on some seeds of the wide workload; scale it instead
        _, scale0 = ref.exact_grad(w.model, y, self.X, np.zeros(w.d), w.prior_var)
        with tr.span("baselines.laplace"):
            self.laplace = pg.laplace(w.mapping, w.prior, (y, self.X), tol=1e-10 * scale0)
        grad, gscale = ref.exact_grad(w.model, y, self.X, self.laplace.mean, w.prior_var)
        self.run_checks["laplace_gradient"] = float(np.linalg.norm(grad)) <= 1e-9 * gscale
        s = np.abs(self.X @ self.laplace.mean * (y if w.model == "logit" else 1.0))
        self.max_inner = float(s.max())
        self.run_checks["radius_covers"] = float(np.mean(s <= w.R)) >= COVERED
        self._seen: dict[str, bool] = {}

    def _perturbed_stats(self, data: bytes) -> bytes:
        head = ref.PGLM_HEADER.size
        values = np.frombuffer(data[head:-4], dtype="<f8").copy()
        k = int(np.argmax(np.abs(values)))
        values[k] *= 1.0 + 1e-6
        body = data[:head] + values.tobytes()
        return body + ref.crc32c(body).to_bytes(4, "little")

    def check_stats(self, data: bytes) -> bool:
        w = self.w
        try:
            f = ref.read_pglm(data)
        except ValueError:
            return False
        shape_ok = (len(data) == ref.PGLM_HEADER.size + 8 * math.comb(w.d + w.M, w.M) + 4
                    and (f["d"], f["M"], f["radius"], f["n"]) == (w.d, w.M, w.R, w.n_train))
        return (shape_ok and ref.rel_err(f["values"], self.stats) <= STATS_TOL
                and pg.serialize(pg.deserialize(data)) == data)

    def check_posterior(self, post: pg.GaussianPosterior) -> bool:
        w = self.w
        if w.model == "logit":
            return (ref.rel_err(post.mean, self.mean) <= POSTERIOR_TOL
                    and ref.rel_err(post.cov(), self.cov) <= POSTERIOR_TOL)
        value, grad, hess = ref.poisson_surrogate(*self.b, self.y, self.X, post.mean, w.prior_var)
        step = ref.project_ball(post.mean + grad, w.domain_radius) - post.mean
        return (float(np.linalg.norm(step)) <= MAP_TOL * max(1.0, abs(value))
                and ref.rel_err(post.cov(), np.linalg.inv(-hess)) <= MAP_TOL)

    def check_run(self, run: dict) -> bool:
        stats = Path(run["stats_path"]).read_bytes()
        post_text = Path(run["posterior_path"]).read_bytes()
        if self.perturb == "stats":
            stats = self._perturbed_stats(stats)
        key = hashlib.sha256(stats + post_text).hexdigest()
        if key not in self._seen:
            post = read_posterior(run["posterior_path"])
            if self.perturb == "mean":
                post.mean[0] += 1e-3 * (1.0 + abs(post.mean[0]))
            self._seen[key] = (run["records"] == self.w.n_train and self.check_stats(stats)
                               and self.check_posterior(post))
        return self._seen[key]

    def evaluate(self, post: pg.GaussianPosterior, tr: Tracer) -> tuple[float, float]:
        """W2 to the Laplace posterior and held-out NLL, from the package's
        metrics, each checked against its recomputation."""
        w = self.w
        with tr.span("metrics.eval"):
            w2 = pg.compare_posteriors(post, self.laplace).w2
            nll = pg.test_nll(w.mapping, post, (self.y_test, self.X_test))
        lap = self.laplace
        self.run_checks["w2"] = ref.rel_err(w2, ref.gaussian_w2(post.mean, post.chol, lap.mean, lap.chol)) <= METRIC_TOL
        self.run_checks["test_nll"] = ref.rel_err(nll, ref.nll(w.model, self.y_test, self.X_test, post.mean)) <= METRIC_TOL
        return w2, nll


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def layer_metrics(w, spans: list[dict], runs: list[dict], probe: dict, input_bytes: int) -> dict:
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def dur(s):
        return s["end"] - s["start"]

    def self_sum(name):
        return sum(selfs[s["id"]] for s in named(name))

    def median_dur(name):
        return statistics.median(dur(s) for s in named(name))

    writes: dict[str, float] = {}
    for s in named("data.write_libsvm"):
        writes[s["parent"]] = writes.get(s["parent"], 0.0) + dur(s)
    shard_wall = median_dur("data.build")
    traced = [r["to_posterior_s"] for r in runs if r["traced"]]
    untraced = [r["to_posterior_s"] for r in runs if not r["traced"]]
    payload = probe["stats_bytes"]
    return {
        "data.parse_records_per_s": metric(w.n_train / self_sum("data.parse"), "records/s"),
        "data.parse_bytes_per_s": metric(input_bytes / self_sum("data.parse"), "B/s"),
        "data.parse_peak_mb": metric(probe["parse_peak_mb"], "MB"),
        "data.project_records_per_s": metric(
            sum(s["records"] for s in named("data.project")) / self_sum("data.project"), "records/s"),
        "data.shard_wall_s": metric(shard_wall, "s"),
        "data.shard_build_max_s": metric(
            max(map(dur, named("data.shard_build"))) if w.shards > 1 else shard_wall, "s"),
        "data.write_libsvm_s": metric(statistics.median(writes.values()), "s"),
        "suffstats.enumerate_s": metric(median_dur("suffstats.enumerate_indices"), "s"),
        "suffstats.accumulate_records_per_s": metric(
            probe["records"] / sum(map(dur, named("suffstats.accumulate_batch"))), "records/s"),
        "suffstats.accumulate_peak_mb": metric(probe["accumulate_peak_mb"], "MB"),
        "suffstats.serialize_s": metric(median_dur("suffstats.serialize"), "s"),
        "suffstats.deserialize_s": metric(median_dur("suffstats.deserialize"), "s"),
        "suffstats.checksum_bytes_per_s": metric(payload / median_dur("suffstats.crc32c"), "B/s"),
        "suffstats.merge_s": metric(median_dur("suffstats.merge"), "s"),
        "suffstats.save_s": metric(median_dur("suffstats.save_stats"), "s"),
        "suffstats.load_s": metric(median_dur("suffstats.load_stats"), "s"),
        "suffstats.stats_bytes": metric(payload, "B"),
        "mappings.fit_terms_s": metric(median_dur("mappings.fit_terms"), "s"),
        "posterior.fit_s": metric(median_dur("posterior.fit"), "s"),
        "baselines.laplace_s": metric(median_dur("baselines.laplace"), "s"),
        "metrics.eval_s": metric(median_dur("metrics.eval"), "s"),
        "trace.overhead_s": metric(statistics.median(traced) - statistics.median(untraced), "s"),
    }


def run_workload(w, args) -> dict:
    out = HERE / "out"
    work = out / f"work-{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tr = Tracer(f"{w.name}/{args.seed}", "p")
    try:
        # a set-up round makes the inputs and warms up a fresh interpreter
        # (start-up, imports, one tiny pass and fit)
        setup = []
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            with tr.span("setup"):
                data = generate(w, args.seed)
                paths = write_inputs(w, data, str(work), tr)
                run_child({"workload": w.name, "warmup_only": True}, work)
            setup.append(time.perf_counter() - t0)
        if args.trace and not w.from_file:
            # this pipeline reads no text; time the writer on its first records
            with tr.span("probe.write"), tr.span("data.write_libsvm"):
                pg.write_libsvm(str(work / "probe.svm"), data["y"][:8192], data["X"][:8192])
        input_bytes = sum(os.path.getsize(p) for p in paths) if w.from_file else (
            data["y"].nbytes + data["X"].nbytes)

        res = run_child({"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                         "trace": args.trace, "paths": paths, "workdir": str(work),
                         "projection_seed": data["projection_seed"]}, work)
        runs = res["runs"]
        checker = Checker(w, data, args.perturb, tr)
        verdicts = [checker.check_run(r) for r in runs]
        w2, nll = checker.evaluate(read_posterior(runs[0]["posterior_path"]), tr)
        untraced = [r for r in runs if not r["traced"]]
        spans = tr.spans + res["spans"]
        if args.trace:
            metrics = layer_metrics(w, spans, runs, res["probe"], input_bytes)
        else:
            metrics = {
                "setup_s": metric(statistics.median(setup), "s"),
                "pass_records_per_s": metric(
                    statistics.median(r["records"] / r["pass_s"] for r in untraced), "records/s"),
                "to_posterior_s": metric(statistics.median(r["to_posterior_s"] for r in untraced), "s"),
                "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
                "w2_vs_laplace": metric(w2, "parameter_units"),
                "test_nll": metric(nll, "nats/record"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": all(checker.run_checks.values()), "attempted": len(verdicts),
              "failed": verdicts.count(False), "metrics": metrics}
    details = {"result": result, "checks": checker.run_checks, "max_inner_product": checker.max_inner,
               "setup_rounds_s": setup, "peak_rss_mb": res["peak_rss_mb"],
               "runs": runs, "spans": spans}
    (out / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", choices=("stats", "mean"),
                        help="self-test: perturb each output before it is checked")
    args = parser.parse_args()
    if args.workload != "all":
        print(json.dumps(run_workload(WORKLOADS[args.workload], args)))
        return
    for w in WORKLOADS.values():
        result = run_workload(w, args)
        print(f"{w.name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    main()
