"""Acceptance gate: every release criterion with its pinned tolerance.

Each test prints one pass line (visible with ``pytest -s`` or in captured
output) and enforces its own wall-clock budget.
"""
from __future__ import annotations

import json
import math
import random
import time
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from helpers import random_matrix
from oracles import brute_force_classify, validate_partition

from ragfuzz.campaign import STAGES, load_config_file, resume, run_campaign
from ragfuzz.difftest import ResultsMatrix, classify, summarize
from ragfuzz.extraction import PassSource, extract_functions
from ragfuzz.ledger import CostLedger, ModelRate, PricingTable, estimate_cost
from ragfuzz.pipeline import GenerationPipeline, TestCase
from ragfuzz.prompts import TEMPLATE_PLACEHOLDERS, PromptFactory
from ragfuzz.providers import HashEmbedder, LLMService, ScriptEntry, ScriptedLLM
from ragfuzz.rag import Chunk, VectorIndex
from ragfuzz.scenarios import build_tiny, load_scenario, materialize_scenario
from ragfuzz.toolchain import CompileResult, CompileStatus, TargetSpec, ToolchainConfig, build_matrix

GEN_STAGES = {"characteristics", "codegen", "repair", "mutation"}


class Budget:
    def __init__(self, seconds: float, label: str):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label}: took {elapsed:.2f}s, budget {self.seconds}s"
            )
            print(f"ACCEPTANCE PASS [{self.label}] ({elapsed:.2f}s)")
        return False


def test_criterion_1_cost_regression():
    with Budget(1.0, "1 cost regression"):
        gpt4 = PricingTable({"gpt-4": ModelRate(Decimal("30"), Decimal("60"))})
        cheaper = PricingTable({"gpt-4": ModelRate(Decimal("5"), Decimal("15"))})

        def cost(tokens_in, tokens_out, pricing):
            ledger = CostLedger()
            ledger.record("characteristics", "gpt-4", tokens_in, tokens_out)
            return estimate_cost(ledger.entries(), pricing)

        characteristics = cost(77_608, 16_570, gpt4)
        generation = cost(893_349, 171_622, gpt4)
        assert abs(characteristics - Decimal("3.32")) <= Decimal("0.005")
        assert abs(characteristics - Decimal("3.3")) <= Decimal("0.05")
        assert abs(generation - Decimal("37.10")) <= Decimal("0.005")
        assert abs(generation - Decimal("37")) <= Decimal("0.15")
        assert abs(cost(77_608, 16_570, cheaper) - Decimal("0.63")) <= Decimal("0.05")
        assert abs(cost(893_349, 171_622, cheaper) - Decimal("7")) <= Decimal("0.05")


def test_criterion_2_repair_loop_bound():
    with Budget(1.0, "2 repair loop bound"):
        fix = "#include <sycl/sycl.hpp>\nint main() { return 0; }\n"
        llm = ScriptedLLM([ScriptEntry("repair", {"code": "*"}, [f"```\n{fix}```"])])
        pipeline = GenerationPipeline(
            PromptFactory(), LLMService(llm, CostLedger(), sleep=lambda s: None)
        )

        def failing(src):
            return CompileResult("c", "gate", "t", "-O2", CompileStatus.ERROR, "error: nope\n")

        def ok(src):
            return CompileResult("c", "gate", "t", "-O2", CompileStatus.OK, "")

        always_fail = pipeline.repair_loop(
            TestCase("c1", "P", "int main() {}"), failing, max_attempts=5
        )
        assert always_fail.attempts == 5
        assert not always_fail.succeeded
        assert always_fail.case.status.value == "abandoned"

        results = [failing(""), failing(""), ok("")]
        two_then_pass = pipeline.repair_loop(
            TestCase("c2", "P", "int main() {}"),
            lambda src: results.pop(0),
            max_attempts=5,
        )
        assert two_then_pass.attempts == 2
        assert two_then_pass.succeeded


def test_criterion_3_prompt_fidelity(fixtures_dir):
    with Budget(5.0, "3 prompt fidelity"):
        factory = PromptFactory()
        raw = json.loads((fixtures_dir / "golden" / "bindings.json").read_text())
        raw["characteristics"] = {
            "pass_name": raw["characteristics"]["pass_name"],
            "function_code": (
                fixtures_dir / raw["characteristics"]["function_code_file"]
            ).read_text(),
        }
        for template_id in sorted(TEMPLATE_PLACEHOLDERS):
            rendered = factory.render(template_id, raw[template_id])
            golden = (fixtures_dir / "golden" / f"{template_id}.golden.txt").read_text()
            assert rendered.text == golden, f"golden mismatch for {template_id}"

        markers = [
            "{REQS}", "{CODES}", "{Generated code}", "{Compilation Error}",
            "{Optimization Pass Name}", "{Name of optimization pass}",
            "{Code of function in optimization pass}",
        ]
        rng = random.Random(12345)
        alphabet = "abcdefghij {}<>();\n\t#"
        ids = sorted(TEMPLATE_PLACEHOLDERS)
        for i in range(1000):
            template_id = ids[i % len(ids)]
            bindings = {}
            for name in TEMPLATE_PLACEHOLDERS[template_id]:
                value = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 200)))
                while any(m in value for m in markers):
                    value = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 200)))
                bindings[name] = value
            text = factory.render(template_id, bindings).text
            assert not any(m in text for m in markers)


def test_criterion_4_retrieval_correctness():
    with Budget(10.0, "4 retrieval correctness"):
        embedder = HashEmbedder(dim=64, seed=3)
        index = VectorIndex()
        chunks = []
        for d in range(10):
            for o in range(2):
                chunk = Chunk(f"doc{d}#{o}", f"doc{d}", f"document {d} fragment {o}", o)
                chunks.append(chunk)
        index.index_chunks(chunks, embedder)

        vectors = {c.chunk_id: embedder.embed_text(c.text) for c in chunks}

        def oracle(query: str, threshold: float, k: int) -> list[tuple[str, float]]:
            q = embedder.embed_text(query)
            scored = []
            for c in chunks:
                v = vectors[c.chunk_id]
                if np.array_equal(q, v):
                    d = 0.0
                else:
                    d = 1.0 - float(np.dot(q, v)) / (
                        math.sqrt(float(np.dot(q, q))) * math.sqrt(float(np.dot(v, v)))
                    )
                if d < threshold:
                    scored.append((d, c.doc_id, c.ordinal, c.chunk_id))
            scored.sort()
            return [(s[3], s[0]) for s in scored[:k]]

        rng = random.Random(999)
        for i in range(500):
            query = f"query {rng.randint(0, 10_000)} {rng.choice('abcdef')}"
            threshold = rng.uniform(0.5, 2.0)
            k = rng.randint(1, 8)
            got = index.retrieve(query, threshold, k, embedder)
            expected = oracle(query, threshold, k)
            assert [(r.chunk.chunk_id, r.distance) for r in got] == expected, f"query #{i}"

        hit = index.retrieve(chunks[7].text, 2.0, 1, embedder)
        assert hit[0].chunk.chunk_id == chunks[7].chunk_id
        assert hit[0].distance == 0.0


def test_criterion_5_classifier_oracle_equivalence():
    with Budget(30.0, "5 classifier oracle equivalence"):
        rng = random.Random(20240610)
        disagreements = 0
        for i in range(1000):
            matrix = random_matrix(rng, case_id=f"case{i}")
            if classify(matrix) != brute_force_classify(matrix):
                disagreements += 1
        assert disagreements == 0


def test_criterion_6_matrix_arithmetic(tmp_path):
    with Budget(1.0, "6 matrix arithmetic"):
        cuda = TargetSpec("nvptx64-nvidia-cuda", ("-fsycl-targets=nvptx64-nvidia-cuda",))
        spir_targets = tuple(
            TargetSpec(name, (f"-fsycl-targets={name}",))
            for name in (
                "spir64",
                "spir64_x86_64",
                "spir64-unknown-unknown",
                "spir64_x86_64-unknown-unknown",
            )
        )
        opts = ("-O0", "-O1", "-O2", "-O3")
        clangxx = ToolchainConfig("clang++", "/usr/bin/clang++", ("-fsycl",), (cuda,), opts)
        icpx = ToolchainConfig("icpx", "/opt/icpx", ("-fsycl",), (cuda, *spir_targets), opts)
        jobs = build_matrix("case", tmp_path / "case.cpp", [clangxx, icpx], tmp_path)
        assert len(jobs) == 24


def test_criterion_7_end_to_end_mock_campaign(tmp_path):
    with Budget(60.0, "7 end-to-end mock campaign"):
        scenario = load_scenario("tiny")
        config_path = materialize_scenario(scenario, tmp_path / "work")
        config = load_config_file(config_path)

        report_a = run_campaign(config, tmp_path / "run_a")
        report_b = run_campaign(config, tmp_path / "run_b")
        bytes_a = (tmp_path / "run_a" / "report.json").read_bytes()
        bytes_b = (tmp_path / "run_b" / "report.json").read_bytes()
        assert bytes_a == bytes_b, "two runs must emit identical reports"

        expected = scenario.expected_report
        assert report_a.per_pass == expected["per_pass"]
        assert report_a.findings["per_case"] == expected["findings"]["per_case"]
        assert report_a.findings["per_axis"] == expected["findings"]["per_axis"]
        assert validate_partition(report_a.per_pass)
        counts = report_a.per_pass["DeviceGlobals"]
        assert counts["compiled"] + counts["failed"] == counts["generated"]

        # set-union counting over disjoint axis sets: 12 + 75 -> 87
        from helpers import make_cell

        findings = []
        for i in range(12):
            cells = [
                make_cell(f"cc_{i:03d}", "cc1", "t", "-O0", "devA", stdout="v: 1\n"),
                make_cell(f"cc_{i:03d}", "cc2", "t", "-O0", "devA", stdout="v: 2\n"),
            ]
            findings += classify(ResultsMatrix(f"cc_{i:03d}", {c.cell: c for c in cells}))
        for i in range(75):
            cells = [
                make_cell(f"dev_{i:03d}", "cc1", "t", "-O0", "devA", stdout="v: 1\n"),
                make_cell(f"dev_{i:03d}", "cc1", "t", "-O0", "devB", stdout="v: 2\n"),
            ]
            findings += classify(ResultsMatrix(f"dev_{i:03d}", {c.cell: c for c in cells}))
        summary = summarize(findings)
        assert summary.per_axis["cross_compiler"] == 12
        assert summary.per_axis["cross_device"] == 75
        assert summary.total_flagged == 87


def test_criterion_8_extraction_round_trip(pass_function_source):
    with Budget(5.0, "8 extraction round trip"):
        from test_extraction import SYNTHETIC_SOURCES

        sources = [("DeviceGlobals", pass_function_source)] + [
            (f"Synth{i}", text) for i, text in enumerate(SYNTHETIC_SOURCES)
        ]
        assert len(sources) == 21  # fixture + 20 synthetic
        for name, content in sources:
            src = PassSource(name, Path("x.cpp"), content)
            first = extract_functions(src)
            second = extract_functions(src)
            assert first == second, f"nondeterministic extraction for {name}"
            assert first, f"nothing extracted from {name}"
            for fn in first:
                lo, hi = fn.char_span
                assert content[lo:hi] == fn.body, f"span mismatch in {name}"


def test_criterion_9_resume_idempotence(tmp_path):
    with Budget(120.0, "9 resume idempotence"):
        scenario = build_tiny()
        config_path = materialize_scenario(scenario, tmp_path / "work")
        config = load_config_file(config_path)

        reference_dir = tmp_path / "uninterrupted"
        run_campaign(config, reference_dir)
        reference = (reference_dir / "report.json").read_bytes()

        for stage in STAGES:
            campaign_dir = tmp_path / f"halt_{stage}"
            run_campaign(config, campaign_dir, halt_after=stage)
            ledger_path = campaign_dir / "ledger.jsonl"
            gen_before = 0
            if ledger_path.exists():
                gen_before = sum(
                    e.input_tokens + e.output_tokens
                    for e in CostLedger(ledger_path).entries()
                    if e.stage in GEN_STAGES
                )
            resume(campaign_dir)
            final = (campaign_dir / "report.json").read_bytes()
            assert final == reference, f"resume after {stage} diverged"
            if stage in ("repair_mutants", "matrix", "classify", "report"):
                gen_after = sum(
                    e.input_tokens + e.output_tokens
                    for e in CostLedger(ledger_path).entries()
                    if e.stage in GEN_STAGES
                )
                assert gen_after == gen_before, (
                    f"resume after {stage} re-billed generation tokens"
                )
