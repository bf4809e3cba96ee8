from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from ragfuzz.campaign import mutant_stub, seed_stub
from ragfuzz.errors import EmptyCatalog, NoCodeBlock, ProviderError
from ragfuzz.extraction import PassSource, extract_functions
from ragfuzz.ledger import CostLedger
from ragfuzz.pipeline import (
    CaseStatus,
    FeatureCatalog,
    GenerationPipeline,
    RepairAttempt,
    TestCase,
    default_catalog,
    derive_seed,
    ensure_sycl_preamble,
    extract_code_block,
    render_feature_requirements,
    sample_features,
)
from ragfuzz.prompts import PromptFactory
from ragfuzz.providers import LLMService, ScriptEntry, ScriptedLLM, binding_digest
from ragfuzz.records import from_record, to_record
from ragfuzz.scenarios import selection_seed
from ragfuzz.toolchain import CompileResult, CompileStatus


# --- feature sampling ---

def test_single_entry_catalog_forces_selection():
    catalog = FeatureCatalog(("only-opt",), ("only-mem",), ("only-ds",), (2, 2))
    for seed in (0, 1, 31337):
        fs = sample_features(catalog, seed)
        assert fs.optimization_feature == "only-opt"
        assert fs.memory_access == "only-mem"
        assert fs.data_structure == "only-ds"
        assert fs.kernel_count == 2


def test_same_seed_same_selection():
    catalog = default_catalog()
    assert sample_features(catalog, 42) == sample_features(catalog, 42)
    assert sample_features(catalog, 42) != sample_features(catalog, 43)


def test_draw_frequencies_are_uniform_within_3_sigma():
    catalog = default_catalog()
    counts = Counter()
    for seed in range(10_000):
        counts[sample_features(catalog, seed).memory_access] += 1
    assert len(catalog.memory_access) == 4
    for entry in catalog.memory_access:
        assert abs(counts[entry] - 2500) <= 150, counts


def test_kernel_count_within_range():
    catalog = default_catalog()
    lo, hi = catalog.kernel_count_range
    seen = {sample_features(catalog, s).kernel_count for s in range(200)}
    assert seen == set(range(lo, hi + 1))


def test_empty_catalog_rejected():
    with pytest.raises(EmptyCatalog):
        FeatureCatalog((), ("m",), ("d",))
    with pytest.raises(EmptyCatalog):
        FeatureCatalog(("o",), ("m",), ("d",), (3, 2))


# --- code block extraction ---

def test_listing_with_prose_yields_fenced_program(characteristics_text):
    code = extract_code_block(characteristics_text)
    assert code.startswith("#include <CL/sycl.hpp>")
    assert "device_global<int> myGlobalVar;" in code
    assert "single_task<MyKernel>" in code
    assert "the optimization pass" not in code  # prose stayed outside


def test_pure_fenced_block_is_identity():
    inner = "#include <x>\nint main() { return 0; }\n"
    assert extract_code_block(f"```cpp\n{inner}```\n") == inner


def test_last_of_two_fenced_blocks_wins():
    response = "first:\n```\nint a;\n```\nsecond:\n```cpp\nint b;\n```\n"
    assert extract_code_block(response) == "int b;\n"


def test_fallback_finds_bare_code_region():
    response = (
        "Sure! Here is the program you asked for.\n"
        "\n"
        "#include <sycl/sycl.hpp>\n"
        "int main() {\n"
        "  return 0;\n"
        "}\n"
        "\n"
        "Let me know if it works."
    )
    code = extract_code_block(response)
    assert "#include <sycl/sycl.hpp>" in code
    assert "Let me know" not in code


def test_no_code_block_raises():
    with pytest.raises(NoCodeBlock):
        extract_code_block("I am sorry, I cannot help with that.")
    with pytest.raises(NoCodeBlock):
        extract_code_block("   ")


def test_preamble_added_only_when_missing():
    bare = "int main() { return 0; }"
    widened = ensure_sycl_preamble(bare)
    assert widened.startswith("#include <sycl/sycl.hpp>")
    assert ensure_sycl_preamble(widened) == widened


# --- pipeline stages under scripted mocks ---

@pytest.fixture()
def device_globals_fn(pass_function_source):
    source = PassSource("DeviceGlobals", Path("pass.cpp"), pass_function_source)
    return extract_functions(source)[0]


def make_pipeline(entries, ledger=None):
    llm = ScriptedLLM(entries)
    ledger = ledger or CostLedger()
    service = LLMService(llm, ledger, sleep=lambda s: None)
    return GenerationPipeline(PromptFactory(), service), ledger


def test_characteristics_fixture_contains_numbered_requirements(
    device_globals_fn, characteristics_text
):
    pipeline, _ = make_pipeline(
        [
            ScriptEntry(
                "characteristics",
                {
                    "pass_name": "DeviceGlobals",
                    "function_code": f"sha256:{binding_digest(device_globals_fn.body)}",
                },
                [characteristics_text],
            )
        ]
    )
    ch = pipeline.generate_characteristics(device_globals_fn)
    assert "1. **Presence of Device Global Variables**" in ch.text
    assert "2. **Unique Identification**" in ch.text
    assert "3. **Underlying Type Size**" in ch.text
    assert "4. **Device Image Scope Property**" in ch.text


def test_blank_characteristics_response_rejected(device_globals_fn):
    from ragfuzz.errors import EmptyResponse

    pipeline, _ = make_pipeline(
        [ScriptEntry("characteristics", {"pass_name": "*"}, ["   \n"])]
    )
    with pytest.raises(EmptyResponse):
        pipeline.generate_characteristics(device_globals_fn)


def test_characteristics_mock_passthrough(device_globals_fn):
    pipeline, _ = make_pipeline(
        [ScriptEntry("characteristics", {"pass_name": "*"}, ["REQ-A"])]
    )
    ch = pipeline.generate_characteristics(device_globals_fn)
    assert ch.text == "REQ-A"
    assert ch.function_key == "collectDeviceGlobalProperties"


def test_generate_testcase_structurally_matches_expected_shape(
    device_globals_fn, characteristics_text, generated_testcase_source
):
    pipeline, _ = make_pipeline(
        [
            ScriptEntry("characteristics", {"pass_name": "*"}, [characteristics_text]),
            ScriptEntry(
                "codegen",
                {"pass_name": "DeviceGlobals"},
                [f"```cpp\n{generated_testcase_source}```"],
            ),
        ]
    )
    ch = pipeline.generate_characteristics(device_globals_fn)
    stub = seed_stub(ch, "DeviceGlobals.f0.s7", default_catalog(), 7)
    case = pipeline.generate_testcase(ch, stub)
    assert case.case_id == "DeviceGlobals.f0.s7"
    assert case.status == CaseStatus.DRAFT
    assert "device_global<int> myGlobalVar;" in case.source
    assert "single_task<MyKernel>" in case.source
    assert "int main()" in case.source
    assert case.selection == sample_features(
        default_catalog(), selection_seed(7, "DeviceGlobals.f0.s7")
    )
    assert case.characteristics_key == "collectDeviceGlobalProperties"


def test_generate_testcase_fenced_passthrough(device_globals_fn):
    block = "#include <sycl/sycl.hpp>\nint main() { return 0; }\n"
    pipeline, _ = make_pipeline(
        [
            ScriptEntry("characteristics", {"pass_name": "*"}, ["REQS"]),
            ScriptEntry("codegen", {"pass_name": "*"}, [f"```\n{block}```"]),
        ]
    )
    ch = pipeline.generate_characteristics(device_globals_fn)
    case = pipeline.generate_testcase(ch, seed_stub(ch, "c1", default_catalog(), 1))
    assert case.source == block


def ok_compile(case_id="c") -> CompileResult:
    return CompileResult(case_id, "gate", "t", "-O2", CompileStatus.OK, "")


def failed_compile(case_id="c", stderr="error: bad code\n") -> CompileResult:
    return CompileResult(case_id, "gate", "t", "-O2", CompileStatus.ERROR, stderr)


def draft(source="int main() {}\n") -> TestCase:
    return TestCase(case_id="c0", pass_name="P", source=source)


def test_repair_loop_fast_path():
    pipeline, _ = make_pipeline([])
    outcome = pipeline.repair_loop(draft(), lambda src: ok_compile())
    assert outcome.attempts == 0
    assert outcome.succeeded
    assert outcome.case.status == CaseStatus.COMPILES
    assert outcome.case.repair_transcript == []


def test_repair_loop_exhausts_five_attempts_then_abandons():
    pipeline, _ = make_pipeline(
        [ScriptEntry("repair", {"code": "*"}, ["```\nint main() { still bad }\n```"])]
    )
    calls = []

    def always_fail(src):
        calls.append(src)
        return failed_compile()

    outcome = pipeline.repair_loop(draft(), always_fail, max_attempts=5)
    assert outcome.attempts == 5
    assert not outcome.succeeded
    assert outcome.case.status == CaseStatus.ABANDONED
    assert outcome.case.abandon_reason == "compile_failed"
    assert len(outcome.case.repair_transcript) == 5
    assert len(calls) == 6  # initial compile + one per repair attempt


def test_repair_loop_two_failures_then_success():
    fixed = "#include <sycl/sycl.hpp>\nint main() { return 0; }\n"
    pipeline, _ = make_pipeline(
        [ScriptEntry("repair", {"code": "*"}, [f"```\n{fixed}```"])]
    )
    results = [
        failed_compile(stderr="error: one\n"),
        failed_compile(stderr="error: two\n"),
        ok_compile(),
    ]

    def gate(src):
        return results.pop(0)

    outcome = pipeline.repair_loop(draft(), gate, max_attempts=5)
    assert outcome.attempts == 2
    assert outcome.succeeded
    transcript = outcome.case.repair_transcript
    assert len(transcript) == 2
    assert transcript[0].error == "error: one\n"
    assert transcript[1].error == "error: two\n"
    assert outcome.case.source == fixed


def test_repair_loop_raises_provider_error():
    # the campaign's case driver abandons the case; the loop only reports the error
    pipeline, _ = make_pipeline([])  # no repair script -> OpenWorldKey is not ProviderError
    from helpers import FlakyBackend

    service = LLMService(FlakyBackend(failures=99), CostLedger(), max_retries=1, sleep=lambda s: None)
    pipeline.llm = service
    case = draft()
    with pytest.raises(ProviderError):
        pipeline.repair_loop(case, lambda src: failed_compile(), max_attempts=5)
    assert case.status == CaseStatus.DRAFT
    assert case.repair_transcript == []


def test_repair_loop_saves_each_attempt_and_counts_a_resumed_transcript():
    pipeline, _ = make_pipeline(
        [ScriptEntry("repair", {"code": "*"}, ["```\nint main() { still bad }\n```"])]
    )
    saved = []
    case = draft()
    case.repair_transcript = [RepairAttempt("error: earlier\n", "int main() {}\n")] * 3
    outcome = pipeline.repair_loop(case, lambda src: failed_compile(), 5, saved.append)
    assert outcome.attempts == 5
    assert outcome.case.abandon_reason == "compile_failed"
    fixed = ensure_sycl_preamble("int main() { still bad }\n")
    assert saved == [RepairAttempt("error: bad code\n", fixed)] * 2
    assert outcome.case.repair_transcript[3:] == saved


def test_mutate_three_children_with_lineage_and_distinct_seeds():
    pipeline, _ = make_pipeline(
        [ScriptEntry("mutation", {"code": "*"}, ["```\nint main() { return 1; }\n```"])]
    )
    case = draft()
    case.status = CaseStatus.COMPILES
    children = [
        pipeline.mutate_one(case, mutant_stub(case, j, default_catalog(), 5)) for j in range(3)
    ]
    assert len(children) == 3
    assert [c.parent_id for c in children] == [case.case_id] * 3
    assert [c.case_id for c in children] == ["c0.m0", "c0.m1", "c0.m2"]
    seeds = {c.selection.seed for c in children}
    assert len(seeds) == 3
    assert all(c.status == CaseStatus.DRAFT for c in children)


def test_mutation_selections_follow_sampling_distribution():
    pipeline, _ = make_pipeline(
        [ScriptEntry("mutation", {"code": "*"}, ["```\nint main() {}\n```"])]
    )
    catalog = default_catalog()
    counts = Counter()
    for i in range(250):
        case = draft()
        case.case_id = f"seed{i}"
        case.status = CaseStatus.COMPILES
        for j in range(4):
            child = pipeline.mutate_one(case, mutant_stub(case, j, catalog, 77))
            counts[child.selection.memory_access] += 1
    total = sum(counts.values())
    assert total == 1000
    for entry in catalog.memory_access:
        assert abs(counts[entry] - 250) <= 45, counts


def test_feature_requirements_rendering():
    fs = sample_features(FeatureCatalog(("opt",), ("mem",), ("ds",), (2, 2)), 0)
    text = render_feature_requirements(fs)
    assert "optimization feature: opt." in text
    assert "memory access technique: mem." in text
    assert "data structure: ds." in text
    assert "exactly 2 device kernels" in text


def test_derive_seed_is_stable():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)


def test_testcase_round_trips_through_the_record_codec():
    case = draft()
    case.selection = sample_features(default_catalog(), 3)
    case.repair_transcript.append(RepairAttempt("e", "f"))
    assert from_record(TestCase, json.loads(json.dumps(to_record(case)))) == case
