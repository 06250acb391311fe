"""Spans around the library's layer entry points, recorded from outside.

``instrument`` swaps the module attributes the pipeline calls for wrappers
that open a span, then restores them. Spans carry a name, a start and end in
process CPU seconds, the index of their parent span and an operation id that
every span of one assignment (or one harness operation) shares. They stay in
memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter
from pathlib import Path

from dwmwis import annealer, bench, embedding

# span name -> layer whose self time it counts towards; "op" and "assignment"
# are harness and pipeline glue, not a layer
LAYER_OF = {
    "op": None,
    "assignment": None,
    "bip.build": "bip.build",
    "bip.solve": "bip.solve",
    "embed.search": "embed.search",
    "reweight.mwis_to_qubo": "reweight",
    "reweight.embed_qubo": "reweight",
    "reweight.scale_to_unit": "reweight",
    "sample": "sample",
    "unembed": "unembed",
    "merge": "merge",
    "report": "report",
}
LAYERS = tuple(dict.fromkeys(v for v in LAYER_OF.values() if v))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.embed_results: list = []
        self._stack: list[int] = []
        self._ops = 0

    @contextlib.contextmanager
    def span(self, name: str, new_op: bool = False):
        parent = self._stack[-1] if self._stack else -1
        if new_op or parent < 0:
            op = self._ops
            self._ops += 1
        else:
            op = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.process_time(), None, parent, op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.process_time()

    def wrap(self, name, fn, note=None, new_op=False):
        def traced(*args, **kwargs):
            with self.span(name, new_op):
                out = fn(*args, **kwargs)
            if note is not None:
                note(args, out)
            return out

        return traced

    # -- notes: counts taken at the same boundaries as the spans ------------

    def _note_embed(self, args, result) -> None:
        self.counts["embed.restarts"] += result.restarts
        self.embed_results.append(result)

    def _note_embed_qubo(self, args, q) -> None:
        self.counts["reweight.phys_terms"] += len(q.entries)

    def _note_sample(self, args, ss) -> None:
        qp, _gp, cfg = args
        active = len({i for key in qp.entries for i in key})
        sweeps = cfg.sweeps if cfg.sweeps is not None else 64 * active
        self.counts["sample.reads"] += cfg.num_samples
        self.counts["sample.spin_updates"] += cfg.num_samples * sweeps * active
        self.counts["sample.unique_rows"] += len(ss.samples)

    def _note_logical(self, args, out) -> None:
        self.counts["unembed.rows"] += len(args[0].samples)

    def _note_report(self, args, text) -> None:
        self.counts["report.bytes"] += len(text.encode())

    def _count_unembed(self, fn):
        def counted(*args, **kwargs):
            self.counts["unembed.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> dict[str, float]:
        """Per-span-name self time: duration minus the children's durations."""
        own = [end - start for _name, start, end, _parent, _op in self.spans]
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: Counter = Counter()
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] += seconds
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p, _o in self.spans if n == name]

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch the pipeline's layer entry points for the duration of the block."""
    merge = annealer.SampleSet.__dict__["merge"]
    patches = [
        (bench, "_solve_assignment", tracer.wrap("assignment", bench._solve_assignment, new_op=True)),
        (bench, "build_constraints", tracer.wrap("bip.build", bench.build_constraints)),
        (bench, "solve_bip", tracer.wrap("bip.solve", bench.solve_bip)),
        (embedding, "heuristic_embed",
         tracer.wrap("embed.search", embedding.heuristic_embed, tracer._note_embed)),
        (bench, "mwis_to_qubo", tracer.wrap("reweight.mwis_to_qubo", bench.mwis_to_qubo)),
        (bench, "embed_qubo",
         tracer.wrap("reweight.embed_qubo", bench.embed_qubo, tracer._note_embed_qubo)),
        (bench, "scale_to_unit", tracer.wrap("reweight.scale_to_unit", bench.scale_to_unit)),
        (bench, "sample", tracer.wrap("sample", bench.sample, tracer._note_sample)),
        (bench, "logical_sampleset",
         tracer.wrap("unembed", bench.logical_sampleset, tracer._note_logical)),
        (bench, "unembed", tracer._count_unembed(bench.unembed)),
        (bench, "record_csv", tracer.wrap("report", bench.record_csv, tracer._note_report)),
        (bench, "record_summary", tracer.wrap("report", bench.record_summary, tracer._note_report)),
        (annealer.SampleSet, "merge", classmethod(tracer.wrap("merge", merge.__func__))),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, traced_cpu: float, untraced_cpu: float, outputs):
    """The per-layer metrics of one traced pass, by the names BENCHMARK.json
    lists, and the self time of each layer."""
    own = tracer.self_times()
    layer_s = {layer: 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        if LAYER_OF[name]:
            layer_s[LAYER_OF[name]] += seconds
    c = tracer.counts
    solves = tracer.durations("bip.solve")
    results = tracer.embed_results
    sample_calls = len(tracer.durations("sample"))
    outcomes = [o for out in outputs for o in getattr(out, "outcomes", ())]
    drawn = sum(o.n_samples for o in outcomes)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "bip.build_s": layer_s["bip.build"],
        "bip.solve_s": layer_s["bip.solve"],
        "bip.solves": len(solves),
        "bip.solve_s_p50": statistics.median(solves) if solves else 0.0,
        "bip.solve_s_max": max(solves, default=0.0),
        "embed.search_s": layer_s["embed.search"],
        "embed.calls": len(results),
        "embed.restarts": c["embed.restarts"],
        "embed.s_per_restart": ratio(layer_s["embed.search"], c["embed.restarts"]),
        "embed.max_chain": max((r.embedding.max_chain_length() for r in results if r.ok), default=0),
        "embed.qubits": sum(r.embedding.size() for r in results if r.ok),
        "reweight.s": layer_s["reweight"],
        "reweight.calls": len(tracer.durations("reweight.embed_qubo")),
        "reweight.phys_terms": c["reweight.phys_terms"],
        "sample.s": layer_s["sample"],
        "sample.calls": sample_calls,
        "sample.reads": c["sample.reads"],
        "sample.spin_updates": c["sample.spin_updates"],
        "sample.spin_updates_per_s": ratio(c["sample.spin_updates"], layer_s["sample"]),
        "sample.unique_frac": ratio(c["sample.unique_rows"], c["sample.reads"]),
        "escalate.stage_frac": ratio(sample_calls, len(outcomes)),
        "escalate.hit_frac": ratio(sum(o.n_opt for o in outcomes), drawn),
        "unembed.s": layer_s["unembed"],
        "unembed.rows": c["unembed.rows"],
        "unembed.calls": c["unembed.calls"],
        "unembed.cache_hit_frac": 1.0 - ratio(c["unembed.calls"], c["unembed.rows"]) if c["unembed.rows"] else 0.0,
        "merge.s": layer_s["merge"],
        "merge.calls": len(tracer.durations("merge")),
        "report.s": layer_s["report"],
        "report.bytes": c["report.bytes"],
        "trace.coverage_frac": ratio(sum(layer_s.values()), traced_cpu),
        "trace.overhead_frac": ratio(traced_cpu, untraced_cpu) - 1.0,
    }, layer_s
