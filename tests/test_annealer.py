from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from dwmwis import (
    QuboMatrix,
    Reads,
    SamplerConfig,
    SampleSet,
    TimingModel,
    Unsolved,
    WeightedGraph,
    chimera,
    embed_qubo,
    heuristic_embed,
    k_p,
    logical_sampleset,
    mwis_to_qubo,
    proc_time,
    sample,
    scale_to_unit,
    timing_profile,
)
from dwmwis.annealer import _log_uniforms, _sweep_layers
from oracles import (
    energy,
    exhaustive_qubo_minimum,
    grid_weights,
    physical_rows,
    random_graph,
    unembed_reference,
)


def read_energies(q: QuboMatrix, reads) -> list[float]:
    """Energy of every read, recomputed from its bits."""
    return [energy(q, row) for row in physical_rows(reads, q.n)]


def tree_reads(n_opt: int, n_total: int) -> Reads:
    """Reads of the worked tree on its chip1 placement: n_opt reads of the
    optimum {2, 4} (qubits 4 and 7), the rest all zero, which repairs to
    {0, 1, 4} at weight 6."""
    samples = np.zeros((n_total, 5), dtype=np.int8)
    samples[:n_opt, 3:] = 1
    return Reads(samples, np.array([0, 1, 2, 4, 7]))


class TestSampler:
    def test_separable_problem_hits_all_ones(self, chip1):
        q = QuboMatrix(chip1.n, {(i, i): -1.0 for i in range(6)})
        reads = sample(q, chip1, SamplerConfig(num_samples=50, seed=3))
        assert reads.samples.shape == (50, 6) and reads.qubits.tolist() == list(range(6))
        assert (reads.samples == 1).all()
        assert read_energies(q, reads) == [-6.0] * 50

    def test_worked_instance_reaches_optimum(self, tree_weighted, chip1, tree_embedding):
        q = mwis_to_qubo(tree_weighted, 12.0)
        physical = embed_qubo(q, tree_embedding)
        scaled, _ = scale_to_unit(physical)
        ss = sample(scaled, chip1, SamplerConfig(num_samples=200, seed=9))
        logical = logical_sampleset(ss, tree_embedding, tree_weighted, 9.0)
        assert logical.hits > 0 and logical.total == 200

    def test_fixed_seed_reproduces_sampleset(self, chip1):
        q = QuboMatrix(chip1.n, {(0, 0): -1.0, (4, 4): -0.5, (0, 4): 2.0})
        cfg = SamplerConfig(num_samples=100, seed=12)
        first, second = sample(q, chip1, cfg).samples, sample(q, chip1, cfg).samples
        assert first.dtype == np.int8 and first.shape == (100, 2)
        assert np.array_equal(first, second)

    def test_dimension_mismatch_rejected(self, chip1):
        with pytest.raises(ValueError, match="dimension"):
            sample(QuboMatrix(4, {(0, 0): -1.0}), chip1, SamplerConfig(num_samples=1))

    def test_coupling_off_hardware_rejected(self, chip1):
        q = QuboMatrix(chip1.n, {(0, 1): 1.0})  # same side, no coupler
        with pytest.raises(ValueError, match="hardware edge"):
            sample(q, chip1, SamplerConfig(num_samples=1))

    def test_energies_rederivable_from_bits(self, chip2):
        rng = np.random.default_rng(8)
        g = random_graph(7, 0.5, rng)
        weighted = WeightedGraph(g, grid_weights(7, rng))
        q = mwis_to_qubo(weighted, "auto")
        emb = heuristic_embed(g, chip2, seed=2, max_tries=4).embedding
        physical = embed_qubo(q, emb)
        scaled, _ = scale_to_unit(physical)
        reads = sample(scaled, chip2, SamplerConfig(num_samples=64, seed=21))
        active = sorted({i for key in scaled.entries for i in key})
        assert reads.qubits.tolist() == active
        assert reads.samples.dtype == np.int8 and reads.samples.shape == (64, len(active))
        assert set(np.unique(reads.samples)) <= {0, 1}
        # a read hits when the QUBO energy of its unembedded vector, recomputed
        # from the bits, reaches the exhaustive minimum
        minimum, _ = exhaustive_qubo_minimum(q)
        hits = sum(
            energy(q, unembed_reference(row, emb, weighted)) <= minimum + 1e-6
            for row in physical_rows(reads, chip2.n).tolist()
        )
        assert logical_sampleset(reads, emb, weighted, -minimum) == SampleSet(hits, 64)

    @pytest.mark.parametrize("trial", range(5))
    def test_best_sample_matches_exhaustive_minimum(self, trial):
        # generous budget on small instances: annealing acts as an exact solver
        rng = np.random.default_rng(600 + trial)
        gp = chimera(1)
        n_active = int(rng.integers(3, 9))
        entries = {(i, i): float(rng.uniform(-2, 0.5)) or -0.1 for i in range(n_active)}
        for u, v in gp.sorted_edges():
            if u < n_active and v < n_active and rng.random() < 0.7:
                entries[(u, v)] = float(rng.uniform(-1.5, 1.5)) or 0.3
        q = QuboMatrix(gp.n, {k: v for k, v in entries.items() if v != 0.0})
        reads = sample(q, gp, SamplerConfig(num_samples=200, seed=trial))
        minimum, _ = exhaustive_qubo_minimum(q)
        assert min(read_energies(q, reads)) == pytest.approx(minimum, abs=1e-9)

    @pytest.mark.parametrize("trial", range(3))
    def test_exact_on_sixteen_qubit_hardware(self, trial):
        # any graph can serve as hardware; a 4x4 grid keeps enumeration cheap
        from dwmwis import FamilySpec, generate_family

        rng = np.random.default_rng(6600 + trial)
        gp = generate_family(FamilySpec("Grid", (4, 4)))
        entries = {(i, i): float(rng.uniform(-2.0, -0.1)) for i in range(gp.n)}
        for u, v in gp.sorted_edges():
            if rng.random() < 0.8:
                entries[(u, v)] = float(rng.uniform(0.2, 2.5))
        q = QuboMatrix(gp.n, entries)
        reads = sample(q, gp, SamplerConfig(num_samples=300, seed=trial))
        minimum, _ = exhaustive_qubo_minimum(q)
        assert min(read_energies(q, reads)) == pytest.approx(minimum, abs=1e-9)

    @pytest.mark.parametrize("trial", range(3))
    def test_exact_on_non_bipartite_hardware(self, trial):
        # the Petersen graph has odd cycles, so a sweep has three or more
        # layers
        from dwmwis import FamilySpec, generate_family

        rng = np.random.default_rng(6700 + trial)
        gp = generate_family(FamilySpec("Petersen", ()))
        entries = {(i, i): float(rng.uniform(-2.0, 0.5)) or -0.1 for i in range(gp.n)}
        for u, v in gp.sorted_edges():
            entries[(u, v)] = float(rng.uniform(-1.5, 2.5)) or 0.3
        q = QuboMatrix(gp.n, entries)
        assert len(_sweep_layers(q)) >= 3
        reads = sample(q, gp, SamplerConfig(num_samples=300, seed=trial))
        minimum, _ = exhaustive_qubo_minimum(q)
        assert min(read_energies(q, reads)) == pytest.approx(minimum, abs=1e-9)

    def test_huge_coefficients_do_not_overflow(self):
        # the hottest temperature is about 2**125 here, so a threshold
        # T * -log(u) formed in float32 overflows
        rng = np.random.default_rng(610)
        gp = chimera(1)
        entries = {(i, i): float(rng.uniform(-2, 0.5)) or -0.1 for i in range(gp.n)}
        for u, v in gp.sorted_edges():
            entries[(u, v)] = float(rng.uniform(-1.5, 1.5)) or 0.3
        q = QuboMatrix(gp.n, {key: value * 2.0**125 for key, value in entries.items()})
        with np.errstate(all="raise"):
            reads = sample(q, gp, SamplerConfig(num_samples=200, seed=1))
        minimum, _ = exhaustive_qubo_minimum(q)
        assert min(read_energies(q, reads)) == pytest.approx(minimum, rel=1e-12)

    @pytest.mark.parametrize(
        "entries",
        [
            # 1/T overflows at the coldest temperature, 1e-309
            {(0, 0): -1.0, (1, 1): -1.0, (4, 4): -1e-307, (0, 4): 0.5, (1, 5): 0.5, (5, 5): -0.25},
            # qubit 0's field constant h + J/2 overflows before any scaling
            {(0, 0): 1.5e308, (0, 4): 1e308, (4, 4): 1e306},
            # finite coefficients whose fields overflow at 1/T = 100
            {(0, 0): -1e307, (0, 4): 1e307, (4, 4): 1.0},
        ],
        ids=["inverse-temperature", "field-constant", "scaled-field"],
    )
    def test_overflowing_temperature_range_rejected(self, entries):
        # a NaN field has no flip decision (f > log(u) reads it as a keep, the
        # sign of log(u) - f as its sign bit): refused before a sweep, warning-free
        q = QuboMatrix(8, entries)
        with np.errstate(all="raise"), pytest.raises(ValueError, match="bad temperature range"):
            sample(q, chimera(1), SamplerConfig(num_samples=4))


def assert_sweep_layers(q: QuboMatrix, layers: list[list[int]]) -> None:
    """Layers partition the active qubits, each sorted, and every coupling runs
    from a lower layer to a higher one in ascending qubit order."""
    active = sorted({i for key in q.entries for i in key})
    assert sorted(v for layer in layers for v in layer) == active
    assert all(layer == sorted(layer) for layer in layers)
    level = {v: k for k, layer in enumerate(layers) for v in layer}
    for i, j in q.entries:
        assert i == j or level[i] < level[j], f"coupling ({i},{j}) on layers {level[i]}, {level[j]}"


def one_by_one(q: QuboMatrix, cfg: SamplerConfig) -> np.ndarray:
    """The sampler's Markov chain as the plain loop: every sweep visits the
    qubits one at a time in ascending order and flips x when its delta
    (1 - 2x) * local is below -T log(u). It consumes the random stream as
    ``sample`` does, one float32 draw per qubit and read per sweep, with the
    qubits' draws in layer order."""
    rng = np.random.default_rng(cfg.seed)
    qubits = sorted({i for key in q.entries for i in key})
    x = rng.integers(0, 2, size=(cfg.num_samples, len(qubits)), dtype=np.int8).astype(float)
    column = {v: c for c, v in enumerate(qubits)}
    draw = {v: r for r, v in enumerate(v for layer in _sweep_layers(q) for v in layer)}
    linear = {v: 0.0 for v in qubits}
    neighbours: dict[int, list[tuple[int, float]]] = {v: [] for v in qubits}
    for (i, j), value in q.entries.items():
        if i == j:
            linear[i] = value
        else:
            neighbours[i].append((j, value))
            neighbours[j].append((i, value))
    magnitudes = [abs(v) for v in q.entries.values()]
    for temperature in np.geomspace(max(magnitudes), 1e-2 * min(magnitudes), cfg.sweeps):
        with np.errstate(divide="ignore"):
            log_u = np.log(rng.random((len(qubits), cfg.num_samples), dtype=np.float32))
        for v in qubits:
            local = linear[v] + sum(w * x[:, column[u]] for u, w in neighbours[v])
            delta = (1.0 - 2.0 * x[:, column[v]]) * local
            flip = -delta / temperature > log_u[draw[v]]
            x[flip, column[v]] = 1.0 - x[flip, column[v]]
    return x.astype(np.int8)


def random_hardware_qubo(gp, rng) -> QuboMatrix:
    entries = {
        (i, i): float(rng.uniform(-1.0, 0.5)) or -0.1 for i in range(gp.n) if rng.random() < 0.7
    }
    for u, v in gp.sorted_edges():
        if rng.random() < 0.6:
            entries[(u, v)] = float(rng.uniform(-1.0, 1.0)) or 0.5
    return QuboMatrix(gp.n, entries)


class TestSweepLayers:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("trial", range(4))
    def test_chimera_qubo_layers_keep_ascending_order(self, k, trial):
        q = random_hardware_qubo(chimera(k), np.random.default_rng(620 + 10 * k + trial))
        assert_sweep_layers(q, _sweep_layers(q))

    def test_embedded_problem_layers_keep_ascending_order(self, chip2):
        rng = np.random.default_rng(8)
        g = random_graph(7, 0.5, rng)
        q = mwis_to_qubo(WeightedGraph(g, grid_weights(7, rng)), "auto")
        emb = heuristic_embed(g, chip2, seed=2, max_tries=4).embedding
        physical = embed_qubo(q, emb)
        assert_sweep_layers(physical, _sweep_layers(physical))

    @pytest.mark.parametrize("family, params", [("Petersen", ()), ("Complete", (5,))])
    def test_non_bipartite_hardware_gets_three_or_more_layers(self, family, params):
        from dwmwis import FamilySpec, generate_family

        gp = generate_family(FamilySpec(family, params))
        q = QuboMatrix(gp.n, {edge: 1.0 for edge in gp.sorted_edges()})
        layers = _sweep_layers(q)
        assert len(layers) >= 3
        assert_sweep_layers(q, layers)

    @pytest.mark.parametrize("hardware", ["chimera2", "Petersen"])
    @pytest.mark.parametrize("trial", range(3))
    def test_layered_sweep_equals_one_by_one_sweep(self, hardware, trial):
        from dwmwis import FamilySpec, generate_family

        gp = chimera(2) if hardware == "chimera2" else generate_family(FamilySpec("Petersen", ()))
        q = random_hardware_qubo(gp, np.random.default_rng(630 + trial))
        cfg = SamplerConfig(num_samples=40, sweeps=25, seed=trial)
        reads = sample(q, gp, cfg)
        assert np.array_equal(reads.samples, one_by_one(q, cfg))

    @pytest.mark.parametrize("reads", [39, 1])
    @pytest.mark.parametrize("hardware", ["chimera2", "Petersen"])
    def test_layered_sweep_equals_one_by_one_sweep_at_odd_reads(self, hardware, reads):
        # an odd number of draws per sweep leaves half a raw word to the next
        from dwmwis import FamilySpec, generate_family

        gp = chimera(2) if hardware == "chimera2" else generate_family(FamilySpec("Petersen", ()))
        q = random_hardware_qubo(gp, np.random.default_rng(640 + reads))
        q = QuboMatrix(gp.n, {key: value for key, value in q.entries.items() if 0 not in key})
        assert len({i for key in q.entries for i in key}) * reads % 2 == 1
        cfg = SamplerConfig(num_samples=reads, sweeps=25, seed=reads)
        assert np.array_equal(sample(q, gp, cfg).samples, one_by_one(q, cfg))


def reference_logs(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(rng.random(shape, dtype=np.float32))


def zero_word_generator(words_before: int) -> np.random.Generator:
    """A PCG64 stream whose output number ``words_before + 1`` is the word 0:
    the state is 0 right after that step, and XSL-RR maps state 0 to 0."""
    bit_generator = np.random.PCG64(0)
    state = bit_generator.state
    state["state"]["state"] = 0
    bit_generator.state = state
    bit_generator.advance(-(words_before + 1))
    return np.random.Generator(bit_generator)


class TestLogUniforms:
    @pytest.mark.parametrize(
        "shape",
        # 33x1001 draws an odd number of values in two draws of raw words
        [(1, 1), (3, 5), (4, 4), (7, 39), (34, 1000), (33, 1001)],
        ids=lambda s: f"{s[0]}x{s[1]}",
    )
    @pytest.mark.parametrize("start_bits", [0, 1, 4, 8, 10])
    def test_raw_words_give_the_float32_stream(self, shape, start_bits):
        # start bits are drawn a byte at a time from 32-bit requests, so some
        # counts leave the high half of a word held back, and some do not
        mine, theirs = np.random.default_rng(start_bits), np.random.default_rng(start_bits)
        for rng in (mine, theirs):
            rng.integers(0, 2, size=start_bits, dtype=np.int8)
        held = mine.bit_generator.state["has_uint32"]
        assert held == ((start_bits + 3) // 4) % 2
        out = np.empty(shape, dtype=np.float32)
        steps = _log_uniforms(mine.bit_generator, out)
        for _ in range(4):  # odd sizes carry a half from step to step
            next(steps)
            assert np.array_equal(out, reference_logs(theirs, shape))

    def test_a_zero_word_gives_minus_infinity_on_both_halves(self):
        # one start-bit request takes the low half of word 1 and holds its
        # high half back; word 3 is 0, so draws 4 and 5 are -inf, the last of
        # the first step and the carry into the second
        mine, theirs = zero_word_generator(2), zero_word_generator(2)
        for rng in (mine, theirs):
            rng.integers(0, 2, size=3, dtype=np.int8)
        out = np.empty((1, 4), dtype=np.float32)
        steps = _log_uniforms(mine.bit_generator, out)
        for expected in ([False, False, False, True], [True, False, False, False]):
            next(steps)
            assert np.array_equal(out, reference_logs(theirs, (1, 4)))
            assert (out[0] == -np.inf).tolist() == expected


def isolated_qubo(linear: dict[int, float]) -> QuboMatrix:
    """Uncoupled qubits on chimera(1): one layer, in ascending order."""
    return QuboMatrix(8, {(i, i): value for i, value in linear.items()})


class TestFlipRule:
    def test_a_tie_keeps_the_spin_for_either_sign(self):
        # one sweep at T = 64 (the largest magnitude), so qubit q's scaled
        # field is s * h_q / 64 exactly; h_1 and h_2 make it equal log(u) at
        # one read where s = +1 and one where s = -1
        reads, seed = 64, 11
        rng = np.random.default_rng(seed)
        start = rng.integers(0, 2, size=(reads, 3), dtype=np.int8)
        logs = reference_logs(rng, (3, reads)).astype(float)
        spin = 2.0 * start.T - 1.0
        usable = logs > -1.0
        tie_up = int(np.flatnonzero(usable[1] & (spin[1] > 0))[0])
        tie_down = int(np.flatnonzero(usable[2] & (spin[2] < 0))[0])
        h = {0: -64.0, 1: 64.0 * logs[1, tie_up], 2: -64.0 * logs[2, tie_down]}
        reads_out = sample(isolated_qubo(h), chimera(1), SamplerConfig(reads, sweeps=1, seed=seed))
        for q, tie in ((1, tie_up), (2, tie_down)):
            f = spin[q] * h[q] / 64.0
            assert f[tie] == logs[q, tie]
            expected = np.where(f > logs[q], 1 - start[:, q], start[:, q])
            assert expected[tie] == start[tie, q]
            assert np.array_equal(reads_out.samples[:, q], expected)

    def test_a_zero_draw_flips_either_spin(self, monkeypatch):
        # a single qubit with h = +/-1 at T = 1 has f = +/-1, so only a draw
        # below exp(-1) flips it from f = -1; word 2 of the stream is 0 and
        # gives the draws of reads 0 and 1 (eight start bits take word 1)
        reads = 8
        rng = zero_word_generator(1)
        start = rng.integers(0, 2, size=(reads, 1), dtype=np.int8)[:, 0]
        assert (reference_logs(rng, (1, reads))[0, :2] == -np.inf).all()
        for h in (1.0, -1.0):
            monkeypatch.setattr(np.random, "default_rng", lambda seed: zero_word_generator(1))
            reads_out = sample(isolated_qubo({0: h}), chimera(1), SamplerConfig(reads, sweeps=1))
            monkeypatch.undo()
            assert (reads_out.samples[:2, 0] == 1 - start[:2]).all()
        assert set(start[:2].tolist()) == {0, 1}  # both signs of s meet the zero draw


class TestSuccessProbability:
    def test_simple_ratio(self, tree_embedding, tree_weighted):
        tally = logical_sampleset(tree_reads(650, 1000), tree_embedding, tree_weighted, 9.0)
        assert tally == SampleSet(650, 1000)

    def test_zero_hits(self, tree_embedding, tree_weighted):
        tally = logical_sampleset(tree_reads(0, 100), tree_embedding, tree_weighted, 9.0)
        assert tally == SampleSet(0, 100)

    def test_all_hits(self, tree_embedding, tree_weighted):
        tally = logical_sampleset(tree_reads(100, 100), tree_embedding, tree_weighted, 9.0)
        assert tally == SampleSet(100, 100)


class TestRepetitionEstimate:
    def test_matched_confidence_is_one(self):
        assert k_p(0.99) == 1.0

    def test_half_success_closed_form(self):
        assert k_p(0.5) == pytest.approx(6.6439, abs=1e-4)

    def test_zero_success_is_unsolved(self):
        with pytest.raises(Unsolved):
            k_p(0.0)

    def test_certain_success_is_clamped(self):
        assert k_p(1.0) == 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            k_p(-0.1)

    def test_monotone_in_s(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            s1, s2 = sorted(rng.uniform(0.01, 0.98, size=2))
            assert k_p(s2 + 0.005) <= k_p(s1)


class TestTimingModel:
    def test_profile_values(self):
        tm = timing_profile("dwave2x")
        assert (tm.t_prog, tm.t_sample, tm.t_post) == (0.020, 380.2e-6, 0.020)
        assert [f.name for f in dataclasses.fields(tm)] == ["t_prog", "t_sample", "t_post"]

    def test_single_repetition_total(self):
        tm = timing_profile("dwave2x")
        assert proc_time(1, tm) == 0.020 + 0.0003802 + 0.020

    def test_zero_profile_collapses(self):
        assert proc_time(100, timing_profile("zero")) == 0.0

    def test_linearity(self):
        tm = timing_profile("dwave2x")
        assert proc_time(1000, tm) == 0.020 + 1000 * 0.0003802 + 0.020
        for k in (1.0, 2.5, 10.0, 333.0):
            assert proc_time(k, tm) == tm.t_prog + k * tm.t_sample + tm.t_post

    def test_repetitions_below_one_rejected(self):
        with pytest.raises(ValueError):
            proc_time(0.5, timing_profile("dwave2x"))

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown timing profile"):
            timing_profile("dwave9000")

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            TimingModel(t_prog=-1.0, t_sample=0.0, t_post=0.0)

    def test_json_roundtrip(self):
        tm = TimingModel.from_json('{"t_prog": 0.01, "t_sample": 1e-4, "t_post": 0.0}')
        assert tm == TimingModel(t_prog=0.01, t_sample=1e-4, t_post=0.0)

    @pytest.mark.parametrize(
        "document, problem",
        [
            ('{"t_prog": 0.02, "t_sample": 0.0004, "t_post": 0.02, "t_conv": 0.0}',
             "unknown constant 't_conv'"),
            ('{"t_prog": 0.02, "t_pre": 0.0, "t_sample": 0.0004, "t_post": 0.02}',
             "unknown constant 't_pre'"),
            ('{"t_prog": 0.02, "t_sample": 0.0004}', "missing constant 't_post'"),
        ],
        ids=["t-conv", "t-pre", "missing-t-post"],
    )
    def test_json_names_the_key_and_the_three_constants(self, document, problem):
        with pytest.raises(ValueError) as exc:
            TimingModel.from_json(document)
        assert str(exc.value) == (
            f"timing profile: {problem}; a profile holds exactly t_prog, t_sample and t_post "
            "(the measured reweighting t2 replaced t_conv and t_pre)"
        )


class TestSampleSet:
    def test_merge_sums_parts(self):
        merged = SampleSet.merge([SampleSet(3, 10), SampleSet(0, 5), SampleSet(5, 5)])
        assert merged == SampleSet(8, 20)

    def test_inconsistent_total_rejected(self):
        for hits, total in ((3, 2), (-1, 4)):
            with pytest.raises(ValueError, match="hits must be in"):
                SampleSet(hits, total)
