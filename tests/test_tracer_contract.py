"""The benchmark's tracer (perfbench/tracing.py) wraps the pipeline's entry
points by name from outside the package. A traced pipeline must record a
span for every layer the tracer names, and write the same reports as an
untraced one outside the wall-clock fields; a renamed or bypassed entry
point fails here instead of in a benchmark run."""

from __future__ import annotations

import csv
import importlib.util
import io
import json
from pathlib import Path

from dwmwis import BenchConfig, DwmwisInstance, bench, embedding, gen_weights, timing_profile

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_pipeline(inst, gp, cfg, tm) -> tuple[str, str]:
    """The calls of the benchmark's hybrid task, through the module attributes
    the tracer patches."""
    result = embedding.heuristic_embed(inst.graph, gp, seed=cfg.seed, max_tries=cfg.max_tries)
    baseline = bench.run_classical(inst)
    record = bench.run_hybrid(inst, gp, cfg, tm, baseline=baseline, embed_result=result)
    return bench.record_csv(record), bench.record_summary(record)


def masked(reports: tuple[str, str]) -> tuple[list[list[str]], dict]:
    csv_text, summary = reports
    rows = list(csv.reader(io.StringIO(csv_text)))
    drop = [rows[0].index(column) for column in bench.CSV_WALL_CLOCK_COLUMNS]
    kept = [[field for i, field in enumerate(row) if i not in drop] for row in rows]
    doc = json.loads(summary)
    for key in doc["wall_clock_fields"]:
        doc.pop(key)
    return kept, doc


def test_traced_run_records_every_layer_and_same_reports(tree_graph, chip1):
    tracing = load_tracing()
    inst = DwmwisInstance(tree_graph, gen_weights(5, 3, seed=6), name="tree")
    # one sweep and few reads, so that some assignments escalate and merge
    cfg = BenchConfig(seed=2, sample_budgets=(2, 2, 4), sweeps=1)
    tm = timing_profile("dwave2x")

    plain = run_pipeline(inst, chip1, cfg, tm)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = run_pipeline(inst, chip1, cfg, tm)

    recorded = {span[0] for span in tracer.spans}
    assert {name for name in tracing.LAYER_OF if name != "op"} <= recorded
    assert tracer.counts["unembed.rows"] > 0
    assert masked(traced) == masked(plain)
