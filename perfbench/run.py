"""CPU-time benchmark of the dwmwis hybrid, standard and classical pipelines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hybrid-c4 --seed 42 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): hybrid-c4,
reuse-c12, embed-c12, classical-grid. The library is imported from the
checkout's ``src/``; a directory without it is an error (exit 2).

``--seconds`` scales the work of a run (20 gives 20-30 CPU seconds on a
2-vCPU x86-64 host); the work depends only on the seed and the run length.
Timings are process CPU seconds; wall seconds are recorded for information. A
workload that overruns its budget records the unfinished operations as
failed instead of hanging. With ``--trace 1`` the workload runs twice, once
plain and once with spans around every layer, and reports per-layer metrics
and the tracing overhead.

The last line of standard output is the result object; the line before it is
a report with the environment, per-workload detail and the digest of the
masked reports. Both, and the spans of a traced run, are also written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one thread per process, as the pipeline runs with threads=1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5


class BudgetExceeded(Exception):
    pass


class Budget:
    """Wall-clock budget for one pass; an overrunning task is interrupted."""

    def __init__(self, seconds: float) -> None:
        self.deadline = time.monotonic() + seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._expired)

    def _expired(self, signum, frame) -> None:
        if self.armed:
            raise BudgetExceeded

    def run(self, fn, *args):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BudgetExceeded
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            return fn(*args)
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


def run_pass(ctx, tasks, budget_s: float, tracer=None):
    """Run every task once; returns (outputs, lost units, errors, CPU s, wall s).

    A task cut off by the budget or failing with an error yields no output
    and loses all of its operations; the pass goes on with the next task.
    """
    budget = Budget(budget_s)
    outputs, errors = [], []
    lost = 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for task in tasks:
        try:
            if tracer is None:
                outputs.append(budget.run(task.run, ctx))
            else:
                with tracer.span("op"):
                    outputs.append(budget.run(task.run, ctx))
            continue
        except BudgetExceeded:
            errors.append("cut off by the budget")
        except Exception:
            errors.append(traceback.format_exc(limit=-2))
        outputs.append(None)
        lost += task.units
    return outputs, lost, errors, time.process_time() - cpu0, time.perf_counter() - wall0


def child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, seed: int, seconds: float) -> list[float]:
    """CPU seconds of a fresh interpreter that imports dwmwis and builds the
    workload's instances and hardware graph, measured several times."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
        "workloads.plan(sys.argv[3], int(sys.argv[4]), float(sys.argv[5]))"
    )
    argv = [sys.executable, "-I", "-c", code, str(SRC), str(HERE), workload, str(seed), str(seconds)]
    samples = []
    for _ in range(SETUP_REPEATS):
        before = child_cpu()
        subprocess.run(argv, check=True, timeout=60)
        samples.append(child_cpu() - before)
    return samples


def git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(load_before, load_after, cpu_s, wall_s) -> dict:
    import numpy

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
    }


def digest(tasks, outputs) -> str:
    h = hashlib.sha256()
    for task, out in zip(tasks, outputs):
        h.update((task.digest_text(out) if out is not None else "cut").encode() + b"\n")
    return h.hexdigest()[:16]


def check_outputs(ctx, tasks, outputs):
    failed, mismatches = 0, []
    for task, out in zip(tasks, outputs):
        if out is None:
            continue
        checked = task.check(out, ctx)
        failed += checked.failed
        mismatches += checked.mismatches
    return failed, mismatches


def end_to_end(tasks, outputs, failed_units, cpu_s) -> dict:
    """Throughput, time to solution and quality figures of one plain pass."""
    attempted = sum(t.units for t in tasks)
    done = attempted - failed_units
    ran = [(t, out) for t, out in zip(tasks, outputs) if out is not None]
    outcomes = [o for _, out in ran for o in getattr(out, "outcomes", ())]
    solved = [o for o in outcomes if o.status == "solved"]
    if solved:
        # median repetitions to 99% confidence, priced at the run's CPU per read
        per_read = cpu_s / sum(o.n_samples for o in outcomes)
        tts = statistics.median(o.k99 for o in solved) * per_read
    else:
        # an exact search reaches its verified answer in one repetition; with
        # nothing answered the whole pass is charged
        tts = cpu_s / max(done, 1)
    detail = {
        "ops_per_cpu_s": done / cpu_s,
        f"{tasks[0].unit}s_per_cpu_s": done / cpu_s,
        "tts99_cpu_ms": 1000.0 * tts,
        "fail_frac": failed_units / attempted,
        "cpu_s": cpu_s,
    }
    if outcomes:
        detail["s_mean"] = statistics.fmean(o.s for o in outcomes)
    if hasattr(tasks[0], "qubits"):
        detail["embedded_qubits"] = sum(t.qubits(out) for t, out in ran)
    return detail


def pin_to_one_cpu() -> None:
    """Keep the run, and the set-up children it starts, on one CPU: on the
    2-vCPU reference machine migrations between CPUs tripled the run-to-run
    spread of CPU time (CV 6.9% unpinned, 1.9% pinned, 14 identical sampler
    calls)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dwmwis" / "__init__.py").is_file():
        print(f"perfbench: no dwmwis sources under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path[:0] = [str(SRC), str(HERE)]
    import dwmwis
    import tracing
    import workloads

    if Path(dwmwis.__file__).resolve().parent != SRC / "dwmwis":
        print(f"perfbench: imported dwmwis from {dwmwis.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.PLANS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(workloads.PLANS)}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 30:
        # longer runs would not fit two passes of a traced run into 180 s
        print("perfbench: --seconds must lie in [1, 30]", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else workloads.DEFAULT_SEEDS[args.workload]
    if seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    # a pass may overrun its planned work about threefold before it is cut;
    # two passes of a traced run plus set-up stay inside 180 s
    budget_s = min(3 * args.seconds + 20, 75)

    load_before = os.getloadavg()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    ctx, tasks = workloads.plan(args.workload, seed, args.seconds)
    outputs, lost, errors, cpu_s, wall_s = run_pass(ctx, tasks, budget_s)
    report = {"workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            traced, traced_lost, traced_errors, traced_cpu, _ = run_pass(ctx, tasks, budget_s, tracer)
        traced_changed = digest(tasks, traced) != digest(tasks, outputs)
        metrics, layer_s = tracing.layer_metrics(tracer, traced_cpu, cpu_s, [o for o in traced if o is not None])
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{seed}.jsonl")
        report["layer_share"] = {k: v / traced_cpu for k, v in layer_s.items()}
        outputs, lost, errors = traced, max(lost, traced_lost), errors + traced_errors
    failed, mismatches = check_outputs(ctx, tasks, outputs)
    if args.trace and traced_changed:
        mismatches.append("the traced pass produced different outputs")
    failed += lost
    detail = end_to_end(tasks, outputs, failed, cpu_s)
    detail["wall_s"] = wall_s
    detail["digest"] = digest(tasks, outputs)
    detail["mismatches"] = mismatches[:20]
    detail["errors"] = errors[:5]
    if not args.trace:
        setup = measure_setup(args.workload, seed, args.seconds)
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_cpu_s": detail["ops_per_cpu_s"],
            "tts99_cpu_ms": detail["tts99_cpu_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail["setup_samples_s"] = setup
    report["detail"] = detail
    report["environment"] = environment(
        load_before, os.getloadavg(), time.process_time() - cpu0, time.perf_counter() - wall0
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    result = {
        "correct": not mismatches,
        "attempted": sum(t.units for t in tasks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-{seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
