"""ragfuzz: retrieval-augmented LLM compiler fuzzing with differential testing.

The package drives an end-to-end campaign: extract functions from compiler
pass sources, index documentation for retrieval, generate SYCL test programs
through a two-stage LLM flow with a bounded compile/repair loop and X-fold
mutation, sweep a compiler/target/opt-level/device matrix, and classify
behavioral discrepancies between cells.
"""

from .campaign import (
    CampaignConfig,
    CampaignReport,
    load_config_file,
    resume,
    run_campaign,
)
from .difftest import (
    Axis,
    ComparisonPolicy,
    Discrepancy,
    DiscrepancyKind,
    ResultsMatrix,
    classify,
    normalize_output,
    summarize,
)
from .extraction import PassFunction, PassSource, extract_functions, filter_candidates
from .ledger import CostLedger, PricingTable, estimate_cost
from .pipeline import (
    FeatureCatalog,
    GenerationPipeline,
    TestCase,
    extract_code_block,
    sample_features,
)
from .prompts import PromptFactory, RenderedPrompt
from .rag import Chunk, RetrievedChunk, VectorIndex, chunk_document, cosine_distance
from .scenarios import Scenario, load_scenario, materialize_scenario
from .toolchain import (
    CompileResult,
    DeviceConfig,
    RunResult,
    ToolchainConfig,
    build_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "CampaignConfig",
    "CampaignReport",
    "Chunk",
    "ComparisonPolicy",
    "CompileResult",
    "CostLedger",
    "DeviceConfig",
    "Discrepancy",
    "DiscrepancyKind",
    "FeatureCatalog",
    "GenerationPipeline",
    "PassFunction",
    "PassSource",
    "PricingTable",
    "PromptFactory",
    "RenderedPrompt",
    "ResultsMatrix",
    "RetrievedChunk",
    "RunResult",
    "Scenario",
    "TestCase",
    "ToolchainConfig",
    "VectorIndex",
    "build_matrix",
    "chunk_document",
    "classify",
    "cosine_distance",
    "estimate_cost",
    "extract_code_block",
    "extract_functions",
    "filter_candidates",
    "load_config_file",
    "load_scenario",
    "materialize_scenario",
    "normalize_output",
    "resume",
    "run_campaign",
    "sample_features",
    "summarize",
]
