from __future__ import annotations

import json

import pytest

from dwmwis import cli
from dwmwis.bench import UNSOLVED


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
    path.write_text(instance_to_json(tree_weighted, gen_weights(5, 4, seed=3)))
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

    def test_zero_profile_gives_unit_hybrid_ratio(self, tree_instance, tmp_path):
        out = tmp_path / "zero"
        code = run_cli(
            "bench", "--graph", tree_instance, "--chimera-k", 1,
            "--timing-profile", "zero", "--seed", 1, "--samples", 200, "--out", out,
        )
        assert code == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["T_H"] == summary["T_std"] == 0.0
        assert summary["R_H"] == 1.0

    def test_embedding_failure_exit_code(self, tmp_path):
        code = run_cli(
            "bench", "--family", "Complete", 9, "--m", 1, "--chimera-k", 1,
            "--max-tries", 1, "--out", tmp_path / "x",
        )
        assert code == cli.EXIT_NO_EMBEDDING

    def test_embedding_failure_exits_before_classical_pass(self, tmp_path, capsys, monkeypatch):
        # 144 vertices cannot fit on 8 qubits; the exact B&B on Grid(12,12)
        # would run for hours, so it must never start
        def classical_pass(inst):
            raise AssertionError("the classical pass ran before the embedding")

        monkeypatch.setattr(cli, "run_classical", classical_pass)
        code = run_cli(
            "bench", "--family", "Grid", 12, 12, "--m", 1, "--chimera-k", 1,
            "--out", tmp_path / "g",
        )
        assert code == cli.EXIT_NO_EMBEDDING
        assert capsys.readouterr().err.startswith("error: embedding-failure:")
        assert not (tmp_path / "g").exists()

    def test_unsolved_exit_code(self, tree_instance, tmp_path, monkeypatch):
        import dwmwis.cli as cli_mod
        from dataclasses import replace

        real = cli_mod.run_hybrid

        def sabotaged(*args, **kwargs):
            record = real(*args, **kwargs)
            first = replace(record.outcomes[0], status=UNSOLVED, s=0.0, k99=None)
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

    def test_timing_profile_directory(self, tree_instance, tmp_path):
        code = run_cli(
            "bench", "--graph", tree_instance, "--timing-profile", tmp_path,
            "--out", tmp_path / "o",
        )
        assert code == cli.EXIT_INPUT

    def test_missing_instance_file(self, tmp_path):
        code = run_cli("bench", "--graph", tmp_path / "nope.json", "--out", tmp_path / "o")
        assert code == cli.EXIT_INPUT

    def test_bad_confidence(self, tree_instance, tmp_path):
        code = run_cli(
            "bench", "--graph", tree_instance, "--p", 1.5, "--out", tmp_path / "o"
        )
        assert code == cli.EXIT_INPUT


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
