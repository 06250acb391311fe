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
from dataclasses import dataclass
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
    run_classical,
    run_hybrid,
    run_standard,
)
from .embedding import ChainPolicy, Embedding, heuristic_embed, verify_embedding
from .graphs import (
    FamilySpec,
    WeightedGraph,
    chimera,
    generate_family,
    instance_to_json,
    parse_graph,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNSOLVED = 2
EXIT_NO_EMBEDDING = 3
EXIT_INPUT = 4


class InputError(ValueError):
    """Manifest-level validation failure (maps to exit code 4)."""


@dataclass(frozen=True)
class RunManifest:
    """Validated invocation parameters for one subcommand."""

    subcommand: str
    instance_path: Path | None = None
    family: FamilySpec | None = None
    m: int = 1
    seed: int = 0
    samples: int = 1000
    sweeps: int | None = None
    chimera_k: int = 4
    chain_strength: float | str = "auto"
    profile: str = "dwave2x"
    p: float = 0.99
    out: Path | None = None
    reembed_each: bool = False
    max_tries: int = 8
    embedding_path: Path | None = None
    save_embedding: Path | None = None


def _positive(kind: type, name: str, value, minimum=1):
    try:
        converted = kind(value)
    except (TypeError, ValueError):
        raise InputError(f"{name}: expected {kind.__name__}, got {value!r}") from None
    if converted < minimum:
        raise InputError(f"{name}: must be >= {minimum}, got {converted}")
    return converted


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 4): argparse's own exit 2
    would read as a benchmark with unsolved assignments."""

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
    gen.add_argument("family", help="Cycle | Star | Complete | CompleteBipartite | Grid | Hypercube | Petersen")
    gen.add_argument("params", nargs="*", type=int, help="family parameters")
    gen.add_argument("--m", type=int, default=100, help="number of weight assignments")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, default=None, help="output file (default stdout)")

    bench = sub.add_parser("bench", help="run the hybrid, standard and classical pipelines")
    src = bench.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", type=Path, help="instance file")
    src.add_argument("--family", nargs="+", help="family name plus parameters, e.g. Cycle 20")
    bench.add_argument("--m", type=int, default=100, help="assignments when using --family")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--samples", type=int, default=1000, help="base per-stage sample budget")
    bench.add_argument("--sweeps", type=int, default=None)
    bench.add_argument("--chimera-k", type=int, default=4)
    bench.add_argument("--chain-strength", default="auto")
    bench.add_argument("--timing-profile", default="dwave2x",
                       help=f"one of {sorted(TIMING_PROFILES)} or a JSON file of constants")
    bench.add_argument("--p", type=float, default=0.99, help="target success confidence")
    bench.add_argument("--out", type=Path, default=Path("bench-out"))
    bench.add_argument("--reembed-each", action="store_true",
                       help="measure a real embedder run per assignment for the standard total")
    bench.add_argument("--max-tries", type=int, default=8)
    bench.add_argument("--save-embedding", type=Path, default=None)

    verify = sub.add_parser("verify", help="check an embedding file against an instance")
    verify.add_argument("--graph", type=Path, required=True)
    verify.add_argument("--embedding", type=Path, required=True)
    verify.add_argument("--chimera-k", type=int, default=4)
    return parser


def _family_spec(name: str, params: list[int]) -> FamilySpec:
    try:
        return FamilySpec(name, tuple(params))
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _read(path: Path) -> str:
    if not path.is_file():
        raise InputError(f"not a file: {path}")
    return path.read_text()


def cmd_gen(manifest: RunManifest) -> int:
    graph = generate_family(manifest.family)
    assignments = gen_weights(graph.n, manifest.m, manifest.seed)
    text = instance_to_json(WeightedGraph(graph, assignments[0]), assignments)
    if manifest.out is None:
        print(text)
    else:
        if manifest.out.is_dir():
            raise InputError(f"--out names a directory: {manifest.out}")
        manifest.out.parent.mkdir(parents=True, exist_ok=True)
        manifest.out.write_text(text + "\n")
        print(f"wrote {manifest.family.label()} instance with m={manifest.m} to {manifest.out}")
    return EXIT_OK


def _timing(profile: str) -> TimingModel:
    if profile in TIMING_PROFILES:
        return timing_profile(profile)
    path = Path(profile)
    if path.is_file():
        return TimingModel.from_json(path.read_text())
    raise InputError(f"unknown timing profile {profile!r}")


def cmd_bench(manifest: RunManifest) -> int:
    if manifest.instance_path is not None:
        inst = DwmwisInstance.from_json(
            _read(manifest.instance_path), name=manifest.instance_path.stem
        )
    else:
        graph = generate_family(manifest.family)
        inst = DwmwisInstance(
            graph=graph,
            assignments=gen_weights(graph.n, manifest.m, manifest.seed),
            name=manifest.family.label(),
        )
    tm = _timing(manifest.profile)
    strength = manifest.chain_strength
    if strength != "auto":
        strength = float(strength)
    cfg = BenchConfig(
        seed=manifest.seed,
        sample_budgets=(manifest.samples, manifest.samples, 2 * manifest.samples, 2 * manifest.samples),
        p=manifest.p,
        sweeps=manifest.sweeps,
        chain_policy=ChainPolicy(chain_strength=strength),
        max_tries=manifest.max_tries,
    )
    out = manifest.out
    # the reports are written after the whole run, so unusable paths are rejected now
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise InputError(f"--out: {existing} is a file, not a directory")
    if manifest.save_embedding is not None and manifest.save_embedding.is_dir():
        raise InputError(f"--save-embedding names a directory: {manifest.save_embedding}")
    gp = chimera(manifest.chimera_k)

    # embed first: a failed embedding exits before the exponential classical pass
    embed_result = heuristic_embed(inst.graph, gp, seed=cfg.seed, max_tries=cfg.max_tries)
    try:
        baseline = run_classical(inst) if embed_result.ok else None
        record = run_hybrid(inst, gp, cfg, tm, baseline=baseline, embed_result=embed_result)
        if manifest.reembed_each:
            record = run_standard(inst, gp, cfg, tm, paired=record)
    except EmbeddingFailed as exc:
        print(f"error: embedding-failure: {exc}", file=sys.stderr)
        return EXIT_NO_EMBEDDING

    out.mkdir(parents=True, exist_ok=True)
    (out / "assignments.csv").write_text(record_csv(record))
    (out / "summary.json").write_text(record_summary(record) + "\n")
    if manifest.save_embedding is not None:
        manifest.save_embedding.parent.mkdir(parents=True, exist_ok=True)
        manifest.save_embedding.write_text(embed_result.embedding.to_json() + "\n")

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


def cmd_verify(manifest: RunManifest) -> int:
    weighted = parse_graph(_read(manifest.instance_path))
    gp = chimera(manifest.chimera_k)
    try:
        emb = Embedding.from_json(_read(manifest.embedding_path), gp)
    except (ValueError, KeyError) as exc:
        raise InputError(f"embedding file: {exc}") from None
    try:
        check = verify_embedding(weighted.graph, gp, emb)
    except ValueError as exc:
        raise InputError(str(exc)) from None
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


def _manifest(args: argparse.Namespace) -> RunManifest:
    if args.command == "gen":
        return RunManifest(
            subcommand="gen",
            family=_family_spec(args.family, args.params),
            m=_positive(int, "--m", args.m),
            seed=_positive(int, "--seed", args.seed, minimum=0),
            out=args.out,
        )
    if args.command == "bench":
        family = None
        if args.family is not None:
            if not args.family:
                raise InputError("--family needs a family name")
            try:
                params = [int(p) for p in args.family[1:]]
            except ValueError:
                raise InputError(f"--family parameters must be integers: {args.family[1:]}") from None
            family = _family_spec(args.family[0], params)
        if not 0.0 < args.p < 1.0:
            raise InputError(f"--p must be in (0, 1), got {args.p}")
        return RunManifest(
            subcommand="bench",
            instance_path=args.graph,
            family=family,
            m=_positive(int, "--m", args.m),
            seed=_positive(int, "--seed", args.seed, minimum=0),
            samples=_positive(int, "--samples", args.samples),
            sweeps=None if args.sweeps is None else _positive(int, "--sweeps", args.sweeps),
            chimera_k=_positive(int, "--chimera-k", args.chimera_k),
            chain_strength=args.chain_strength,
            profile=args.timing_profile,
            p=float(args.p),
            out=args.out,
            reembed_each=bool(args.reembed_each),
            max_tries=_positive(int, "--max-tries", args.max_tries),
            save_embedding=args.save_embedding,
        )
    if args.command == "verify":
        return RunManifest(
            subcommand="verify",
            instance_path=args.graph,
            embedding_path=args.embedding,
            chimera_k=_positive(int, "--chimera-k", args.chimera_k),
        )
    raise InputError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        manifest = _manifest(args)
        if manifest.subcommand == "gen":
            return cmd_gen(manifest)
        if manifest.subcommand == "bench":
            return cmd_bench(manifest)
        return cmd_verify(manifest)
    except ValueError as exc:  # InputError and GraphFormatError included
        print(f"error: input-error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
