from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dwmwis import bench, cli


def run_cli(*args) -> int:
    return cli.main([str(a) for a in args])


class TestGen:
    def test_writes_instance_file(self, tmp_path):
        out = tmp_path / "c20.json"
        assert run_cli("gen", "Cycle", 20, "--m", 100, "--seed", 7, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 20
        assert len(doc["edges"]) == 20
        assert len(doc["weight_assignments"]) == 100

    def test_minimal_instance(self, tmp_path, capsys):
        assert run_cli("gen", "Complete", 3, "--m", 1) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 3 and len(doc["weight_assignments"]) == 1

    def test_invalid_family_parameter(self):
        assert run_cli("gen", "Cycle", 2) == cli.EXIT_INPUT

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("gen", "Star", 5, "--m", 3, "--seed", 9, "--out", a)
        run_cli("gen", "Star", 5, "--m", 3, "--seed", 9, "--out", b)
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture()
def tree_instance(tmp_path, tree_weighted):
    from dwmwis import gen_weights, instance_to_json

    path = tmp_path / "tree.json"
    path.write_text(instance_to_json(tree_weighted.graph, gen_weights(5, 4, seed=3)))
    return path


class TestBench:
    def test_end_to_end_writes_reports(self, tree_instance, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "bench", "--graph", tree_instance, "--chimera-k", 1,
            "--timing-profile", "dwave2x", "--seed", 1,
            "--samples", 200, "--out", out,
            "--save-embedding", tmp_path / "emb.json",
        )
        assert code == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solved"] == 4
        assert summary["R_H"] > 1.0
        csv_lines = (out / "assignments.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 1 + 4

    def test_long_cycle_finishes_and_writes_reports(self, tmp_path):
        # the exact classical pass over a 200-vertex cycle once had no time bound
        out = tmp_path / "cycle200"
        code = run_cli(
            "bench", "--family", "Cycle", 200, "--m", 2, "--chimera-k", 8,
            "--samples", 50, "--sweeps", 20, "--timing-profile", "zero", "--out", out,
        )
        assert code in (cli.EXIT_OK, cli.EXIT_UNSOLVED)
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["n"], summary["m"]) == (200, 2)
        assert summary["solved"] + summary["unsolved"] == 2
        assert len((out / "assignments.csv").read_text().strip().splitlines()) == 1 + 2

    def test_zero_profile_charges_the_measured_overheads(self, tree_instance, tmp_path):
        # a free annealer: T_H is the measured search and reweightings alone
        out = tmp_path / "zero"
        code = run_cli(
            "bench", "--graph", tree_instance, "--chimera-k", 1,
            "--timing-profile", "zero", "--seed", 1, "--samples", 200, "--out", out,
        )
        assert code == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert "measured_t_embed" not in summary
        assert summary["T_H"] == summary["t_embed"] + summary["t2_total"] > summary["t_embed"] > 0.0
        assert summary["T_std"] == summary["T_H"] + (summary["m"] - 1) * summary["t_embed"]
        assert summary["R_H"] > 1.0

    def test_embedding_failure_exit_code(self, tmp_path):
        code = run_cli(
            "bench", "--family", "Complete", 9, "--m", 1, "--chimera-k", 1,
            "--max-tries", 1, "--out", tmp_path / "x",
        )
        assert code == cli.EXIT_NO_EMBEDDING

    def test_floor_above_the_chip_says_no_embedding_can_exist(self, tmp_path, capsys):
        # on chimera(1), of degree 4, Star(7)'s hub needs a chain of 3 qubits,
        # so the floor is 10 of the 8 qubits: no restart runs, and more
        # --max-tries cannot help
        code = run_cli("bench", "--family", "Star", 7, "--chimera-k", 1, "--out", tmp_path / "s")
        assert code == cli.EXIT_NO_EMBEDDING
        err = capsys.readouterr().err
        assert err == (
            "error: embedding-failure: no embedding of 'Star(7)' (8 vertices) into the 8-qubit "
            "hardware graph can exist: its chains need more qubits than the chip has\n"
        )
        assert not (tmp_path / "s").exists()

    def test_search_that_gives_up_names_its_restarts(self, tmp_path, capsys):
        # Hypercube(4)'s floor, 16 qubits, fits chimera(2)'s 32, so the search
        # runs; its one restart at seed 3 fails
        code = run_cli(
            "bench", "--family", "Hypercube", 4, "--m", 1, "--seed", 3, "--chimera-k", 2,
            "--max-tries", 1, "--out", tmp_path / "h",
        )
        assert code == cli.EXIT_NO_EMBEDDING
        assert capsys.readouterr().err == (
            "error: embedding-failure: no embedding of 'Hypercube(4)' (16 vertices) into the "
            "32-qubit hardware graph after 1 restart\n"
        )
        assert not (tmp_path / "h").exists()

    def test_embedding_failure_exits_before_classical_pass(self, tmp_path, capsys, monkeypatch):
        # 144 vertices cannot fit on 8 qubits; the exact B&B on Grid(12,12)
        # would run for hours, so it must never start
        def classical_pass(inst):
            raise AssertionError("the classical pass ran before the embedding")

        monkeypatch.setattr(bench, "run_classical", classical_pass)
        code = run_cli(
            "bench", "--family", "Grid", 12, 12, "--m", 1, "--chimera-k", 1,
            "--out", tmp_path / "g",
        )
        assert code == cli.EXIT_NO_EMBEDDING
        assert capsys.readouterr().err.startswith("error: embedding-failure:")
        assert not (tmp_path / "g").exists()

    def test_each_assignment_is_reweighted_once(self, tmp_path, monkeypatch):
        # the weight-range check reuses the reweighted QUBOs that are sampled
        calls = []
        embed_qubo = bench.embed_qubo

        def counted(*args, **kwargs):
            calls.append(args)
            return embed_qubo(*args, **kwargs)

        monkeypatch.setattr(bench, "embed_qubo", counted)
        code = run_cli(
            "bench", "--family", "Cycle", 8, "--m", 5, "--chimera-k", 2,
            "--samples", 100, "--sweeps", 16, "--out", tmp_path / "c",
        )
        assert code == cli.EXIT_OK
        assert len(calls) == 5

    def test_complete_8_saves_the_clique_layout(self, tmp_path):
        # the search's best at seed 0 has 28 qubits; the layout has 24 in chains of 3
        instance, saved = tmp_path / "k8.json", tmp_path / "emb.json"
        assert run_cli("gen", "Complete", 8, "--m", 2, "--out", instance) == cli.EXIT_OK
        code = run_cli(
            "bench", "--family", "Complete", 8, "--m", 2, "--chimera-k", 4,
            "--samples", 100, "--sweeps", 16, "--out", tmp_path / "run",
            "--save-embedding", saved,
        )
        assert code in (cli.EXIT_OK, cli.EXIT_UNSOLVED)
        verified = run_cli(
            "verify", "--graph", instance, "--embedding", saved, "--chimera-k", 4
        )
        assert verified == cli.EXIT_OK
        chains = json.loads(saved.read_text())["chains"]
        assert len(chains) == 8 and all(len(chain) <= 3 for chain in chains.values())

    def test_unsolved_exit_code(self, tree_instance, tmp_path, monkeypatch):
        import dwmwis.cli as cli_mod
        from dataclasses import replace

        real = cli_mod.run_hybrid

        def sabotaged(*args, **kwargs):
            record = real(*args, **kwargs)
            first = replace(record.outcomes[0], n_opt=0)
            return replace(record, outcomes=(first,) + record.outcomes[1:])

        monkeypatch.setattr(cli_mod, "run_hybrid", sabotaged)
        code = run_cli(
            "bench", "--graph", tree_instance, "--chimera-k", 1,
            "--timing-profile", "zero", "--seed", 1, "--samples", 100,
            "--out", tmp_path / "u",
        )
        assert code == cli.EXIT_UNSOLVED
        summary = json.loads((tmp_path / "u" / "summary.json").read_text())
        assert summary["lower_bound_only"] is True
        assert summary["R_H"] is None

    def test_failed_reembedding_exit_code(self, tmp_path, capsys):
        # seed 2 embeds Hypercube(4) in one try; the re-embedding seed 3 does not
        code = run_cli(
            "bench", "--family", "Hypercube", 4, "--m", 2, "--seed", 2,
            "--chimera-k", 2, "--max-tries", 1, "--reembed-each",
            "--samples", 50, "--sweeps", 10, "--out", tmp_path / "r",
        )
        assert code == cli.EXIT_NO_EMBEDDING
        assert capsys.readouterr().err.startswith("error: embedding-failure:")

    @pytest.mark.parametrize(
        "document",
        [
            '{"t_prog": 0.02, "t_sample": 0.0004, "t_post": 0.02, "t_extra": 1.0}',
            "[0.02, 0.0004, 0.02]",
        ],
        ids=["unknown-key", "not-an-object"],
    )
    def test_malformed_timing_profile(self, tree_instance, tmp_path, capsys, document):
        profile = tmp_path / "profile.json"
        profile.write_text(document)
        code = run_cli(
            "bench", "--graph", tree_instance, "--timing-profile", profile,
            "--out", tmp_path / "o",
        )
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: input-error:") and err.count("\n") == 1

    def test_three_constant_timing_profile_runs(self, tree_instance, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text('{"t_prog": 0.02, "t_sample": 0.0004, "t_post": 0.02}')
        out = tmp_path / "o"
        code = run_cli(
            "bench", "--graph", tree_instance, "--chimera-k", 1, "--timing-profile", profile,
            "--seed", 1, "--samples", 200, "--out", out,
        )
        assert code == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["T_std"] == summary["T_H"] + (summary["m"] - 1) * summary["t_embed"]
        assert summary["T_H"] >= summary["t_embed"] + summary["t2_total"] > summary["t_embed"]

    def test_timing_profile_directory(self, tree_instance, tmp_path):
        code = run_cli(
            "bench", "--graph", tree_instance, "--timing-profile", tmp_path,
            "--out", tmp_path / "o",
        )
        assert code == cli.EXIT_INPUT

    def test_missing_instance_file(self, tmp_path):
        code = run_cli("bench", "--graph", tmp_path / "nope.json", "--out", tmp_path / "o")
        assert code == cli.EXIT_INPUT

    def test_p_is_refused(self, tree_instance, tmp_path, capsys):
        # every report calls its estimate k99, so the confidence is fixed at 0.99
        code = run_cli(
            "bench", "--graph", tree_instance, "--p", 0.9, "--out", tmp_path / "o"
        )
        assert code == cli.EXIT_INPUT
        assert "unrecognized arguments: --p 0.9" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert bench.BenchConfig.p == bench.BenchConfig().p == 0.99
        with pytest.raises(TypeError):
            bench.BenchConfig(p=0.9)

    def test_weight_range_beyond_the_schedule_exits_4(self, tmp_path, capsys, monkeypatch):
        # scaled to the unit range, the light vertex's coefficient sets a
        # coldest temperature of about 7e-313, whose inverse overflows; that
        # is refused before the classical pass, which is exponential in general
        def classical_pass(inst):
            raise AssertionError("the classical pass ran before the weight range was checked")

        monkeypatch.setattr(bench, "run_classical", classical_pass)
        instance = tmp_path / "tiny.json"
        instance.write_text('{"n": 2, "edges": [[0, 1]], "weights": [1.0, 1e-310]}')
        code = run_cli(
            "bench", "--graph", instance, "--chimera-k", 1, "--samples", 4, "--sweeps", 2,
            "--out", tmp_path / "o",
        )
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: input-error: bad temperature range") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


class TestVerify:
    def test_valid_embedding_passes(self, tree_instance, tmp_path, capsys):
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps({"chains": {"0": [0], "1": [1], "2": [4], "3": [2], "4": [7]}}))
        code = run_cli("verify", "--graph", tree_instance, "--embedding", emb, "--chimera-k", 1)
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert out.count("pass") == 3

    def test_disconnected_chain_reported(self, tree_instance, tmp_path, capsys):
        emb = tmp_path / "emb.json"
        # vertex 0 is spread over two same-side qubits with no coupler
        emb.write_text(json.dumps({"chains": {"0": [0, 1], "1": [4], "2": [2], "3": [5], "4": [3]}}))
        code = run_cli("verify", "--graph", tree_instance, "--embedding", emb, "--chimera-k", 1)
        out = capsys.readouterr().out
        assert code == cli.EXIT_INVALID
        assert "condition 2" in out and "not connected" in out

    def test_uncovered_edge_named(self, tree_instance, tmp_path, capsys):
        emb = tmp_path / "emb.json"
        # all unit chains but vertex 4 sits on the same side as vertex 3
        emb.write_text(json.dumps({"chains": {"0": [0], "1": [1], "2": [4], "3": [2], "4": [3]}}))
        code = run_cli("verify", "--graph", tree_instance, "--embedding", emb, "--chimera-k", 1)
        out = capsys.readouterr().out
        assert code == cli.EXIT_INVALID
        assert "(3,4)" in out

    def test_garbage_embedding_file(self, tree_instance, tmp_path):
        emb = tmp_path / "emb.json"
        emb.write_text("{}")
        code = run_cli("verify", "--graph", tree_instance, "--embedding", emb)
        assert code == cli.EXIT_INPUT


DEEP = "[" * 200_000  # past the JSON decoder's recursion limit

# one bad input per row; {instance}, {dir}, {file} and {doc} are filled in
# with the tree instance, an empty directory, a plain file, and a file holding
# the row's document
MALFORMED = {
    "unknown-flag": (["bench", "--family", "Cycle", "5", "--threads", "2"], None),
    "bad-int": (["bench", "--family", "Cycle", "5", "--m", "abc"], None),
    "no-subcommand": ([], None),
    "graph-is-a-directory": (["bench", "--graph", "{dir}"], None),
    "verify-graph-is-a-directory": (
        ["verify", "--graph", "{dir}", "--embedding", "{file}"], None
    ),
    "embedding-is-a-directory": (
        ["verify", "--graph", "{instance}", "--embedding", "{dir}"], None
    ),
    "chain-not-a-list": (
        ["verify", "--graph", "{instance}", "--embedding", "{doc}", "--chimera-k", "1"],
        '{"chains": {"0": 5}}',
    ),
    "qubit-null": (
        ["verify", "--graph", "{instance}", "--embedding", "{doc}", "--chimera-k", "1"],
        '{"chains": {"0": [null]}}',
    ),
    "chain-repeats-a-qubit": (
        ["verify", "--graph", "{instance}", "--embedding", "{doc}", "--chimera-k", "1"],
        '{"chains": {"0": [0, 0], "1": [1], "2": [4], "3": [2], "4": [7]}}',
    ),
    "out-is-a-file": (["bench", "--graph", "{instance}", "--out", "{file}"], None),
    "out-under-a-file": (["bench", "--graph", "{instance}", "--out", "{file}/run"], None),
    "save-embedding-is-a-directory": (
        ["bench", "--graph", "{instance}", "--save-embedding", "{dir}"], None
    ),
    "save-embedding-under-a-file": (
        ["bench", "--graph", "{instance}", "--out", "{dir}/run", "--save-embedding", "{file}/e.json"],
        None,
    ),
    "gen-out-is-a-directory": (["gen", "Cycle", "5", "--out", "{dir}"], None),
    "gen-out-under-a-file": (["gen", "Cycle", "5", "--out", "{file}/x.json"], None),
    "chain-strength-inf": (
        ["bench", "--family", "Complete", "5", "--chimera-k", "2", "--chain-strength", "inf"],
        None,
    ),
    "timing-constant-beyond-float": (
        ["bench", "--graph", "{instance}", "--timing-profile", "{doc}"],
        '{"t_prog": 1' + "0" * 400 + ', "t_sample": 0.0004, "t_post": 0.02}',
    ),
    "timing-constant-bool": (
        ["bench", "--graph", "{instance}", "--timing-profile", "{doc}"],
        '{"t_prog": true, "t_sample": 0.0004, "t_post": 0.02}',
    ),
    "timing-constant-string": (
        ["bench", "--graph", "{instance}", "--timing-profile", "{doc}"],
        '{"t_prog": 0.02, "t_sample": "0.001", "t_post": 0.02}',
    ),
    # the per-assignment constants that the measured reweighting replaced
    "timing-constant-t-conv": (
        ["bench", "--graph", "{instance}", "--timing-profile", "{doc}"],
        '{"t_prog": 0.02, "t_sample": 0.0004, "t_post": 0.02, "t_conv": 0.0}',
    ),
    "timing-constant-t-pre": (
        ["bench", "--graph", "{instance}", "--timing-profile", "{doc}"],
        '{"t_prog": 0.02, "t_sample": 0.0004, "t_post": 0.02, "t_pre": 0.0}',
    ),
    # finite constants whose modeled totals overflow to infinity
    "timing-constant-huge": (
        ["bench", "--graph", "{instance}", "--timing-profile", "{doc}"],
        '{"t_prog": 1e308, "t_sample": 1e308, "t_post": 1e308}',
    ),
    "weight-beyond-float": (
        ["bench", "--graph", "{doc}"],
        '{"n": 2, "edges": [[0, 1]], "weights": [1, 1' + "0" * 400 + "]}",
    ),
    # finite weights at or above 2**53: the first overflows the classical
    # pass's fsum, the second the chain strength's log2, and the third makes
    # the reduction's W + 1 penalty equal W
    "weight-sum-overflows": (
        ["bench", "--graph", "{doc}"],
        '{"n": 3, "edges": [[0, 1], [1, 2]], "weights": [1e308, 1e308, 1e308]}',
    ),
    "weight-overflows-chain-strength": (
        ["bench", "--graph", "{doc}"],
        '{"n": 3, "edges": [[0, 1], [1, 2]], "weights": [1e308, 1.0, 0.5]}',
    ),
    "weight-absorbs-penalty-offset": (
        ["bench", "--graph", "{doc}"],
        '{"n": 2, "edges": [[0, 1]], "weights": [1e307, 1e307]}',
    ),
    "chain-strength-overflows-qubit": (
        ["bench", "--family", "Complete", "5", "--chimera-k", "2", "--chain-strength", "1e308"],
        None,
    ),
    "chain-strength-not-a-number": (
        ["bench", "--graph", "{instance}", "--chain-strength", "strong"], None
    ),
    "chimera-k-beyond-largest-chip": (["bench", "--graph", "{instance}", "--chimera-k", "17"], None),
    "gen-m-0": (["gen", "Cycle", "5", "--m", "0"], None),
    "gen-seed-negative": (["gen", "Cycle", "5", "--seed", "-1"], None),
    "m-0-with-graph": (["bench", "--graph", "{instance}", "--m", "0"], None),
    # an instance file holds its own assignments, so --m would be ignored
    "m-with-graph": (["bench", "--graph", "{instance}", "--m", "2"], None),
    # each option has one spelling: no prefix stands for it
    "samples-abbreviated": (["bench", "--graph", "{instance}", "--samp", "10"], None),
    "timing-profile-abbreviated": (["bench", "--graph", "{instance}", "--timing", "zero"], None),
    "seed-negative": (["bench", "--graph", "{instance}", "--seed", "-1"], None),
    "samples-0": (["bench", "--graph", "{instance}", "--samples", "0"], None),
    "sweeps-0": (["bench", "--graph", "{instance}", "--sweeps", "0"], None),
    "chimera-k-0": (["bench", "--graph", "{instance}", "--chimera-k", "0"], None),
    "verify-chimera-k-0": (
        ["verify", "--graph", "{instance}", "--embedding", "{file}", "--chimera-k", "0"], None
    ),
    "max-tries-0": (["bench", "--graph", "{instance}", "--max-tries", "0"], None),
    "p-is-refused": (["bench", "--graph", "{instance}", "--p", "0.9"], None),
    "family-parameter-not-an-integer": (["bench", "--family", "Cycle", "x"], None),
    "family-parameter-out-of-range": (["bench", "--family", "Cycle", "2"], None),
    # a misspelt option is named, not read as a missing --graph
    "graph-misspelt": (["bench", "--grap", "{instance}"], None),
    "verify-graph-misspelt": (["verify", "--gra", "{instance}", "--embedding", "{file}"], None),
    "timing-profile-not-json": (
        ["bench", "--graph", "{instance}", "--timing-profile", "{doc}"], "{not json"
    ),
    # every weight is held to the rule when the document is read, under its own field
    "assignment-weight-beyond-2-53": (
        ["bench", "--graph", "{doc}"],
        '{"n": 2, "edges": [[0, 1]], "weights": [1, 2], "weight_assignments": [[1, 2], [3, 1e300]]}',
    ),
    "verify-assignment-weight-beyond-2-53": (
        ["verify", "--graph", "{doc}", "--embedding", "{file}"],
        '{"n": 2, "edges": [[0, 1]], "weights": [1, 2], "weight_assignments": [[1, 2], [3, 1e300]]}',
    ),
    # weights is the first assignment; a document where the two disagree is refused
    "weights-disagree-with-first-assignment": (
        ["bench", "--graph", "{doc}"],
        '{"n": 2, "edges": [[0, 1]], "weights": [0.5, 0.25], "weight_assignments": [[0.75, 0.5], [0.25, 0.5]]}',
    ),
    "verify-weights-disagree-with-first-assignment": (
        ["verify", "--graph", "{doc}", "--embedding", "{file}"],
        '{"n": 2, "edges": [[0, 1]], "weights": [0.5, 0.25], "weight_assignments": [[0.75, 0.5], [0.25, 0.5]]}',
    ),
    "graph-nested-too-deeply": (["bench", "--graph", "{doc}", "--out", "{dir}/run"], DEEP),
    "verify-graph-nested-too-deeply": (["verify", "--graph", "{doc}", "--embedding", "{file}"], DEEP),
    "embedding-nested-too-deeply": (
        ["verify", "--graph", "{instance}", "--embedding", "{doc}", "--chimera-k", "1"], DEEP
    ),
    "timing-profile-nested-too-deeply": (
        ["bench", "--graph", "{instance}", "--timing-profile", "{doc}", "--out", "{dir}/run"], DEEP
    ),
}

# rows whose message must begin with what names the fault
NAMED = {
    "graph-nested-too-deeply": "invalid JSON: ",
    "verify-graph-nested-too-deeply": "invalid JSON: ",
    "embedding-nested-too-deeply": "embedding file: invalid JSON: ",
    "timing-profile-nested-too-deeply": "timing profile: invalid JSON: ",
    "graph-misspelt": "unrecognized arguments: --grap ",
    "verify-graph-misspelt": "unrecognized arguments: --gra ",
    "timing-profile-not-json": "timing profile: invalid JSON: ",
    "assignment-weight-beyond-2-53": "weight_assignments[1][1]: ",
    "verify-assignment-weight-beyond-2-53": "weight_assignments[1][1]: ",
    "weights-disagree-with-first-assignment": "weights: must equal weight_assignments[0]",
    "verify-weights-disagree-with-first-assignment": "weights: must equal weight_assignments[0]",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_4_before_any_work(
    name, tree_instance, tmp_path, capsys, monkeypatch
):
    def no_work(*args, **kwargs):
        raise AssertionError("the embedder ran on malformed input")

    monkeypatch.setattr(cli, "heuristic_embed", no_work)
    args, document = MALFORMED[name]
    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    plain_file = tmp_path / "plain.txt"
    plain_file.write_text("x\n")
    doc = tmp_path / "doc.json"
    if document is not None:
        doc.write_text(document)
    fill = {"instance": tree_instance, "dir": empty_dir, "file": plain_file, "doc": doc}
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([a.format(**fill) for a in args]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: input-error:") and captured.err.count("\n") == 1
    assert captured.err.startswith("error: input-error: " + NAMED.get(name, ""))
    assert "Traceback" not in captured.err
    assert plain_file.read_text() == "x\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--help"])
    assert exc.value.code == 0
    assert "--reembed-each" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# fuzz: malformed instance, embedding and timing-profile documents
# ---------------------------------------------------------------------------

# small values only, so that a document that parses stays a tiny instance,
# plus integers beyond the float range
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 10)
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)


def valid_or_junk(valid: st.SearchStrategy) -> st.SearchStrategy:
    # an even draw: `valid | json_values` seldom picks the valid side
    return st.booleans().flatmap(lambda ok: valid if ok else json_values)


def documents(
    required: dict[str, st.SearchStrategy], optional: dict[str, st.SearchStrategy]
) -> st.SearchStrategy[str]:
    """Raw text, any JSON value (which covers objects missing a required
    field), or an object whose every field is valid or any JSON value."""
    obj = st.fixed_dictionaries(
        {k: valid_or_junk(v) for k, v in required.items()},
        optional={k: valid_or_junk(v) for k, v in optional.items()},
    )
    return st.one_of(st.text(max_size=30), json_values.map(json.dumps), obj.map(json.dumps))


# a path 0-1-2 that embeds with unit chains into chimera(1)
PATH_INSTANCE = {"n": 3, "edges": [[0, 1], [1, 2]], "weights": [0.5, 0.25, 0.75]}
WEIGHTS = st.lists(valid_or_junk(st.sampled_from([0.25, 0.5, 1, 2])), min_size=3, max_size=3)
INSTANCES = documents(
    {
        "n": st.just(3),
        "edges": st.just([[0, 1], [1, 2]]),
        "weights": WEIGHTS,
    },
    {"weight_assignments": st.lists(WEIGHTS, max_size=3)},
)
EMBEDDINGS = documents(
    {
        "chains": st.dictionaries(
            st.sampled_from(["0", "1", "2", "3"]),
            st.lists(st.integers(-1, 9), max_size=3) | json_values,
            max_size=4,
        )
    },
    {},
)
PROFILES = documents(
    {name: st.floats(0.0, 1.0) for name in ("t_prog", "t_sample", "t_post")},
    {name: st.floats(0.0, 1.0) for name in ("t_conv", "t_pre", "t_extra")},
)

FUZZ_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TINY_RUN = ["--chimera-k", "1", "--samples", "1", "--sweeps", "1", "--max-tries", "2"]


def _fuzz_main(files: dict[str, str], argv: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in files.items():
            (root / name).write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([a.format(root=root) for a in argv])
    assert code in range(5)
    if code == cli.EXIT_INPUT:
        assert err.getvalue().startswith("error: input-error:") and err.getvalue().count("\n") == 1


@FUZZ_SETTINGS
@given(INSTANCES)
def test_fuzz_instance_document(text):
    _fuzz_main(
        {"inst.json": text}, ["bench", "--graph", "{root}/inst.json", "--out", "{root}/o", *TINY_RUN]
    )


@FUZZ_SETTINGS
@given(EMBEDDINGS)
def test_fuzz_embedding_document(text):
    _fuzz_main(
        {"inst.json": json.dumps(PATH_INSTANCE), "emb.json": text},
        ["verify", "--graph", "{root}/inst.json", "--embedding", "{root}/emb.json", "--chimera-k", "1"],
    )


@FUZZ_SETTINGS
@given(PROFILES)
def test_fuzz_timing_profile_document(text):
    _fuzz_main(
        {"inst.json": json.dumps(PATH_INSTANCE), "profile.json": text},
        ["bench", "--graph", "{root}/inst.json", "--timing-profile", "{root}/profile.json",
         "--out", "{root}/o", *TINY_RUN],
    )
