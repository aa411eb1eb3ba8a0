"""The benchmark's traced path: each workload's seed-1 inputs go through one
whole pipeline run and the layer probes, as ``perfbench/run.py --trace 1``
calls them, so that a change breaking a traced benchmark run fails here."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave the benchmark's tree as it is
    return tuple(importlib.import_module(name) for name in ("pipeline", "workloads", "spans"))


@pytest.mark.filterwarnings("ignore:covariate 2-norm exceeds 1")  # projected wide records do
@pytest.mark.parametrize("name", ["svm-d20", "wide-proj-shard2", "poisson-m6"])
def test_traced_iteration_and_probes_run(bench, name, tmp_path):
    pipeline, workloads, spans = bench
    w = workloads.WORKLOADS[name]
    tracer = spans.Tracer(f"{name}/1", "t")
    data = workloads.generate(w, 1)
    cfg = {
        "workdir": str(tmp_path),
        "paths": workloads.write_inputs(w, data, str(tmp_path), tracer),
        "projection_seed": data["projection_seed"],
    }
    arrays = None if w.from_file else (data["y"], data["X"])
    run = pipeline.iteration(w, cfg, arrays, 0, tracer)
    assert run["records"] == w.n_train
    probe = pipeline.probes(w, cfg, arrays, tracer)
    assert probe["records"] == w.n_train
    assert all(span["end"] is not None for span in tracer.spans)
