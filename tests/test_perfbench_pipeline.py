"""The benchmark's paths: each workload's seed-1 inputs go through one whole
pipeline run and the layer probes, as ``perfbench/run.py --trace 1`` calls
them, and through the reference checks every benchmark run makes, so that a
change breaking a benchmark run fails here."""

import importlib
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave the benchmark's tree as it is
    return tuple(importlib.import_module(name) for name in ("pipeline", "workloads", "spans"))


def inputs(workloads, w, data, tmp_path, tracer):
    """The pipeline's configuration and in-memory arrays for ``data``, its
    input files written under ``tmp_path``."""
    cfg = {
        "workdir": str(tmp_path),
        "paths": workloads.write_inputs(w, data, str(tmp_path), tracer),
        "projection_seed": data["projection_seed"],
    }
    return cfg, None if w.from_file else (data["y"], data["X"])


@pytest.mark.filterwarnings("ignore:covariate 2-norm exceeds 1")  # projected wide records do
@pytest.mark.parametrize("name", ["svm-d20", "wide-proj-shard2", "poisson-m6"])
def test_traced_iteration_and_probes_run(bench, name, tmp_path):
    pipeline, workloads, spans = bench
    w = workloads.WORKLOADS[name]
    tracer = spans.Tracer(f"{name}/1", "t")
    data = workloads.generate(w, 1)
    cfg, arrays = inputs(workloads, w, data, tmp_path, tracer)
    run = pipeline.iteration(w, cfg, arrays, 0, tracer)
    assert run["records"] == w.n_train
    probe = pipeline.probes(w, cfg, arrays, tracer)
    assert probe["records"] == w.n_train
    assert all(span["end"] is not None for span in tracer.spans)


@pytest.mark.filterwarnings("ignore:covariate 2-norm exceeds 1")
@pytest.mark.parametrize("name", ["svm-d20", "wide-proj-shard2", "poisson-m6"])
def test_reference_checks_hold(bench, name, tmp_path):
    pipeline, workloads, spans = bench
    with mock.patch.dict(os.environ):  # run.py pins BLAS threads for its children at import
        run = importlib.import_module("run")
    w = workloads.WORKLOADS[name]
    tracer = spans.Tracer(f"{name}/1", "t")
    data = workloads.generate(w, 1)
    checker = run.Checker(w, data, None, tracer)  # its reference Laplace fit runs the package's Newton
    assert checker.run_checks and all(checker.run_checks.values()), checker.run_checks
    cfg, arrays = inputs(workloads, w, data, tmp_path, tracer)
    result = pipeline.iteration(w, cfg, arrays, 0, tracer)
    assert checker.check_run(result)
    checker.evaluate(run.read_posterior(result["posterior_path"]), tracer)
    assert {"w2", "test_nll"} <= set(checker.run_checks)
    assert all(checker.run_checks.values()), checker.run_checks
