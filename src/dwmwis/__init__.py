"""Embedding-reuse annealing benchmark for dynamically weighted
maximum-weight independent set problems on Chimera hardware graphs."""

from .annealer import (
    TIMING_PROFILES,
    Reads,
    SamplerConfig,
    SampleSet,
    TimingModel,
    Unsolved,
    k_p,
    proc_time,
    sample,
    timing_profile,
)
from .bench import (
    AssignmentOutcome,
    BenchConfig,
    BenchmarkRecord,
    ClassicalBaseline,
    DwmwisInstance,
    EmbeddingFailed,
    gen_weights,
    logical_sampleset,
    ratios,
    record_csv,
    record_summary,
    run_classical,
    run_hybrid,
    run_standard,
)
from .bip import BipSolution, ConstraintSet, build_constraints, solve_bip
from .embedding import (
    EmbedResult,
    Embedding,
    EmbeddingCheck,
    embed_qubo,
    heuristic_embed,
    unembed,
    verify_embedding,
)
from .graphs import (
    FAMILIES,
    FamilySpec,
    Graph,
    GraphFormatError,
    WeightedGraph,
    chimera,
    chimera_index,
    generate_family,
    instance_to_json,
    parse_graph,
    parse_instance,
    selection_weight,
)
from .qubo import QuboMatrix, auto_penalty, mwis_to_qubo, scale_to_unit

__version__ = "0.1.0"
