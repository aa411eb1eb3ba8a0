"""The measured process: whole pipeline runs for the run length.

Started by ``run.py`` as a fresh interpreter, so that its peak resident
memory belongs to the pipeline alone.  In traced runs the layer probes follow
the measured window.  With ``"warmup_only"`` in the config the process only
warms up, which is the part of a set-up round that ``run.py`` times in a
process of its own.  Usage:

    python3 perfbench/pipeline.py CONFIG.json RESULT.json
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

import passglm as pg
from passglm.cli import _posterior_to_json, _write_json
from passglm.suffstats import crc32c
from spans import NullTracer, Tracer, TracedStream
from workloads import WORKLOADS, PartFiles, build, fit, open_source, projection


def rss_mb() -> float:
    """Current resident memory of this process, in MB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def iteration(w, cfg, arrays, index: int, tracer) -> dict:
    stats_path = os.path.join(cfg["workdir"], f"stats.{index}.pglm")
    post_path = os.path.join(cfg["workdir"], f"posterior.{index}.json")
    with tracer.span("pipeline"):
        t0 = time.perf_counter()
        with tracer.span("data.open"):
            source = open_source(w, cfg["paths"], arrays, cfg["projection_seed"])
        rss_before_pass = rss_mb()
        with tracer.span("data.build"):
            stats = build(w, source)
        t1 = time.perf_counter()
        with tracer.span("suffstats.save_stats"):
            pg.save_stats(stats, stats_path)
        with tracer.span("suffstats.load_stats"):
            loaded = pg.load_stats(stats_path)
        post = fit(w, loaded, tracer)
        with tracer.span("cli.write_posterior"):
            _write_json(_posterior_to_json(post), post_path)
        t2 = time.perf_counter()
    return {"pass_s": t1 - t0, "to_posterior_s": t2 - t0, "records": stats.n,
            "rss_before_pass_mb": rss_before_pass, "stats_path": stats_path, "posterior_path": post_path}


def warm_up(w) -> None:
    """One tiny pass and fit along the same calls, after start-up and imports."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((64, 4)) / 4.0
    y = np.where(rng.random(64) < 0.5, 1.0, -1.0) if w.model == "logit" else rng.poisson(1.0, 64)
    stats = pg.deserialize(pg.serialize(pg.build_stats(pg.ArrayStream(y, X), w.mapping, w.M, w.R)))
    _posterior_to_json(fit(w, stats, NullTracer()))


def peak_mb(fn) -> float:
    """Peak traced allocation while ``fn`` runs, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def probes(w, cfg, arrays, tr: Tracer) -> dict:
    """Each layer called on its own, on this workload's inputs."""
    mapping = w.mapping
    with tr.span("mappings.fit_terms"):
        pg.fit_terms(mapping, w.M, w.R)

    # one pass over the training input, kept in memory for the accumulate probe
    if not w.from_file:
        raw = pg.ArrayStream(*arrays)
    elif w.input_dim:
        raw = PartFiles(cfg["paths"], w.input_dim)
    else:
        raw = pg.parse_libsvm(cfg["paths"][0], d=w.d, labels="pm1")
    parse_peak = peak_mb(lambda: next(iter(raw.batches())))
    source = TracedStream(raw, tr, "data.parse")
    if w.input_dim:
        source = TracedStream(pg.project(source, projection(w, cfg["projection_seed"])), tr, "data.project")
    with tr.span("probe.stream"):
        batches = [(y.copy(), np.array(X)) for y, X in source.batches()]
    if not w.input_dim:
        # projection is not on this pipeline; time it on the first batch, d -> d
        y0, X0 = batches[0]
        first = TracedStream(pg.ArrayStream(y0, X0), tr, "probe.source")
        spec = pg.ProjectionSpec(seed=cfg["projection_seed"], input_dim=w.d, output_dim=w.d)
        with tr.span("probe.project"):
            for _ in TracedStream(pg.project(first, spec), tr, "data.project").batches():
                pass

    with tr.span("suffstats.enumerate_indices"):
        iset = pg.enumerate_indices(w.d, w.M)
    with tr.span("suffstats.new_stats"):
        stats = pg.new_stats(iset, mapping, w.R)
    fresh = stats.copy()
    accumulate_peak = peak_mb(lambda: fresh.accumulate_batch(*batches[0]))
    with tr.span("probe.accumulate"):
        for y, X in batches:
            with tr.span("suffstats.accumulate_batch"):
                stats.accumulate_batch(y, X)
    del batches, fresh
    with tr.span("suffstats.serialize"):
        payload = pg.serialize(stats)
    with tr.span("suffstats.deserialize"):
        pg.deserialize(payload)
    with tr.span("suffstats.merge"):
        pg.merge(stats, stats)
    with tr.span("suffstats.crc32c"):
        crc32c(payload)

    if w.shards > 1:
        for i in range(w.shards):
            part = open_source(w, cfg["paths"], arrays, cfg["projection_seed"]).shard(i, w.shards)
            with tr.span("data.shard_build"):
                pg.build_stats(part, mapping, w.M, w.R)
    return {"parse_peak_mb": parse_peak, "accumulate_peak_mb": accumulate_peak,
            "stats_bytes": len(payload), "records": stats.n}


def main(config_path: str, result_path: str) -> None:
    with open(config_path) as fh:
        cfg = json.load(fh)
    w = WORKLOADS[cfg["workload"]]
    warm_up(w)
    if cfg.get("warmup_only"):
        with open(result_path, "w") as fh:
            json.dump({}, fh)
        return
    arrays = None
    if not w.from_file:
        with np.load(cfg["paths"][0]) as npz:
            arrays = (npz["y"], npz["X"])

    tr = Tracer(f"{w.name}/{cfg['seed']}", "c")
    runs, lengths = [], []
    start = time.perf_counter()
    # whole pipeline runs fill the run length: another one starts while, at the
    # median length so far, it would end less than half a run past the end.
    # Traced runs alternate untraced and traced pipelines, whose difference is
    # the tracing overhead
    while len(runs) < 1 + cfg["trace"] or (
            time.perf_counter() - start + statistics.median(lengths) / 2 < cfg["seconds"]):
        traced = bool(cfg["trace"] and len(runs) % 2)
        t0 = time.perf_counter()
        runs.append(dict(iteration(w, cfg, arrays, len(runs), tr if traced else NullTracer()),
                         traced=traced))
        lengths.append(time.perf_counter() - t0)
    # ru_maxrss is in KiB.  For children it is the largest single worker, whose
    # resident set starts with the pages it was forked with; those are this
    # process's resident set before the pass and are counted once, here
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if w.shards > 1:
        worker_own = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 - min(
            r["rss_before_pass_mb"] for r in runs)
        peak += w.shards * max(worker_own, 0.0)
    probe = probes(w, cfg, arrays, tr) if cfg["trace"] else {}
    with open(result_path, "w") as fh:
        json.dump({"runs": runs, "peak_rss_mb": peak, "probe": probe, "spans": tr.spans}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
