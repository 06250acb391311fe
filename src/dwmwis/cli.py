"""Command-line entry point.

Subcommands::

    dwmwis gen Cycle 20 --m 100 --seed 7 --out instance.json
    dwmwis bench --graph instance.json --chimera-k 4 --timing-profile dwave2x --out run/
    dwmwis verify --graph instance.json --embedding emb.json --chimera-k 4

Exit codes: 0 success, 1 failed verification, 2 benchmark completed with
unsolved assignments, 3 embedding failure, 4 input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .annealer import TIMING_PROFILES, TimingModel, timing_profile
from .bench import (
    BenchConfig,
    DwmwisInstance,
    EmbeddingFailed,
    gen_weights,
    ratios,
    record_csv,
    record_summary,
    run_hybrid,
    run_standard,
)
from .embedding import Embedding, heuristic_embed, verify_embedding
from .graphs import (
    FAMILIES,
    FamilySpec,
    chimera,
    generate_family,
    instance_to_json,
    parse_instance,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNSOLVED = 2
EXIT_NO_EMBEDDING = 3
EXIT_INPUT = 4


class InputError(ValueError):
    """Invalid input (maps to exit code 4)."""


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _chain_strength(text: str) -> float | None:
    """None asks for the strength derived from each matrix."""
    return None if text == "auto" else float(text)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 4): argparse's own exit 2
    would read as a benchmark with unsolved assignments. Options take no
    abbreviation (``--samp`` is refused), here and in every subcommand, whose
    parsers are this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dwmwis",
        description="Generate, embed, anneal, and benchmark dynamically weighted "
        "maximum-weight independent set instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file for a named graph family")
    gen.add_argument("family", help=" | ".join(FAMILIES))
    gen.add_argument("params", nargs="*", type=int, help="family parameters")
    gen.add_argument("--m", type=_count, default=100, help="number of weight assignments")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, default=None, help="output file (default stdout)")
    gen.set_defaults(run=cmd_gen)

    bench = sub.add_parser("bench", help="run the hybrid, standard and classical pipelines")
    # not required here, or argparse would report --grap as a missing --graph
    src = bench.add_mutually_exclusive_group()
    src.add_argument("--graph", type=Path, help="instance file")
    src.add_argument("--family", nargs="+", help="family name plus parameters, e.g. Cycle 20")
    bench.add_argument("--m", type=_count, help="assignments with --family (default 100)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--samples", type=int, default=1000, help="base per-stage sample budget")
    bench.add_argument("--sweeps", type=int, default=None)
    bench.add_argument("--chimera-k", type=int, default=4)
    bench.add_argument("--chain-strength", type=_chain_strength, default="auto")
    bench.add_argument("--timing-profile", default="dwave2x",
                       help=f"one of {sorted(TIMING_PROFILES)} or a JSON file of constants")
    bench.add_argument("--out", type=Path, default=Path("bench-out"))
    bench.add_argument("--reembed-each", action="store_true",
                       help="measure a real embedder run per assignment for the standard total")
    bench.add_argument("--max-tries", type=int, default=8)
    bench.add_argument("--save-embedding", type=Path, default=None)
    bench.set_defaults(run=cmd_bench)

    verify = sub.add_parser("verify", help="check an embedding file against an instance")
    verify.add_argument("--graph", type=Path)
    verify.add_argument("--embedding", type=Path)
    verify.add_argument("--chimera-k", type=int, default=4)
    verify.set_defaults(run=cmd_verify)
    return parser


def _read(path: Path) -> str:
    if not path.is_file():
        raise InputError(f"not a file: {path}")
    return path.read_text()


def _check_output(path: Path, flag: str) -> None:
    """Reject an output file before any work: writing it after the run fails
    when it is a directory or when the nearest existing ancestor is not."""
    if path.is_dir():
        raise InputError(f"{flag} names a directory: {path}")
    existing = next(p for p in path.parents if p.exists())
    if not existing.is_dir():
        raise InputError(f"{flag}: {existing} is a file, not a directory")


def cmd_gen(args: argparse.Namespace) -> int:
    if args.out is not None:
        _check_output(args.out, "--out")
    spec = FamilySpec(args.family, tuple(args.params))
    graph = generate_family(spec)
    text = instance_to_json(graph, gen_weights(graph.n, args.m, args.seed))
    if args.out is None:
        print(text)
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
        print(f"wrote {spec.label()} instance with m={args.m} to {args.out}")
    return EXIT_OK


def _timing(profile: str) -> TimingModel:
    if profile in TIMING_PROFILES:
        return timing_profile(profile)
    path = Path(profile)
    if path.is_file():
        return TimingModel.from_json(path.read_text())
    raise InputError(f"unknown timing profile {profile!r}")


def cmd_bench(args: argparse.Namespace) -> int:
    if args.graph is None and args.family is None:
        raise InputError("one of the arguments --graph --family is required")
    if args.graph is not None and args.m is not None:
        raise InputError("--m applies to --family only; an instance file holds its assignments")
    # the settings are checked before the instance is built: a large --family is work too
    cfg = BenchConfig(
        seed=args.seed,
        sample_budgets=(args.samples, args.samples, 2 * args.samples, 2 * args.samples),
        sweeps=args.sweeps,
        chain_strength=args.chain_strength,
        max_tries=args.max_tries,
    )
    gp = chimera(args.chimera_k)
    tm = _timing(args.timing_profile)
    out = args.out
    for name in ("assignments.csv", "summary.json"):
        _check_output(out / name, "--out")
    if args.save_embedding is not None:
        _check_output(args.save_embedding, "--save-embedding")
    if args.graph is not None:
        inst = DwmwisInstance.from_json(_read(args.graph), name=args.graph.stem)
    else:
        spec = FamilySpec(args.family[0], tuple(args.family[1:]))
        graph = generate_family(spec)
        inst = DwmwisInstance(
            graph=graph, assignments=gen_weights(graph.n, args.m or 100, args.seed),
            name=spec.label(),
        )

    # run_hybrid fixes the run's order; the embedding is made here for --save-embedding
    embed_result = heuristic_embed(inst.graph, gp, seed=cfg.seed, max_tries=cfg.max_tries)
    try:
        record = run_hybrid(inst, gp, cfg, tm, embed_result=embed_result)
        if args.reembed_each:
            record = run_standard(inst, gp, cfg, paired=record)
    except EmbeddingFailed as exc:
        print(f"error: embedding-failure: {exc}", file=sys.stderr)
        return EXIT_NO_EMBEDDING

    out.mkdir(parents=True, exist_ok=True)
    (out / "assignments.csv").write_text(record_csv(record))
    (out / "summary.json").write_text(record_summary(record) + "\n")
    if args.save_embedding is not None:
        args.save_embedding.parent.mkdir(parents=True, exist_ok=True)
        args.save_embedding.write_text(embed_result.embedding.to_json() + "\n")

    line = (
        f"{inst.name}: {record.solved_count}/{inst.m} solved, "
        f"embedded order {record.embedded_order}, "
        f"T_H={record.T_H:.6g}s T_std={record.T_std:.6g}s T_C={record.T_C:.6g}s"
    )
    if record.all_solved:
        r_h, r_c = ratios(record)
        line += f" R_H={r_h:.4g} R_C={r_c:.4g}"
    print(line)
    print(f"reports written to {out}/")
    return EXIT_OK if record.all_solved else EXIT_UNSOLVED


def cmd_verify(args: argparse.Namespace) -> int:
    missing = [flag for flag in ("--graph", "--embedding") if getattr(args, flag[2:]) is None]
    if missing:
        raise InputError(f"the following arguments are required: {', '.join(missing)}")
    graph, _ = parse_instance(_read(args.graph))
    gp = chimera(args.chimera_k)
    try:
        emb = Embedding.from_json(_read(args.embedding), gp)
    except ValueError as exc:
        raise InputError(f"embedding file: {exc}") from None
    check = verify_embedding(graph, gp, emb)
    for condition, label in (
        (1, "chains pairwise disjoint"),
        (2, "chains connected"),
        (3, "logical edges covered"),
    ):
        status = "pass" if check.condition_ok(condition) else "FAIL"
        print(f"condition {condition} ({label}): {status}")
    for condition, message in check.failures:
        print(f"  [{condition}] {message}")
    print("embedding valid" if check.ok else "embedding INVALID")
    return EXIT_OK if check.ok else EXIT_INVALID


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except ValueError as exc:  # InputError and GraphFormatError included
        print(f"error: input-error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
