"""Seeded, closed-world campaign scenarios for the benchmark workloads.

Every scenario is built from ragfuzz's public scenario helpers, so the
campaign sees exactly what an operator's external scenario file would give
it. The generator also derives the expected report from its own plan (which
drafts compile, which cells diverge), never from a campaign run, so the
benchmark can check each run's report against it.

Invariants the workloads rely on:
- every case, every repair draft and every mutant has a distinct source, so
  no content- or compile-result cache can get a free win;
- every ScriptEntry matches exactly one prompt and has exactly one
  response, so answers do not depend on call order at workers > 1.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations, product
from pathlib import Path

from ragfuzz.mocktool import source_digest, table_entry
from ragfuzz.pipeline import (
    default_catalog,
    derive_seed,
    render_feature_requirements,
    sample_features,
)
from ragfuzz.providers import ScriptEntry, binding_digest
from ragfuzz.scenarios import (
    Scenario,
    materialize_scenario,
    scenario_to_dict,
    seed_case_id,
    selection_seed,
)

MAX_REPAIRS = 5
EXHAUST = MAX_REPAIRS + 1  # failing drafts of a case that never compiles
DEVICES = ("devA", "devB")
BASE_OUTPUT = "Output value from device kernel: {value}\n"


@dataclass(frozen=True)
class Shape:
    """Size of one workload's campaign.

    ``seed_repairs`` and ``mutant_repairs`` list, per case, how many failing
    drafts precede a compiling one (EXHAUST: none ever compiles). Their
    lengths fix the number of seed cases and of compiling seeds' mutants.
    """

    passes: int
    functions_per_pass: int
    mutations: int
    seed_repairs: tuple[int, ...]
    mutant_repairs: tuple[int, ...]
    doc_chunks: int
    embedding_dim: int
    rag_k: int
    rag_threshold: float
    matrix: str  # "reference" (24 compiles) or "small" (2 compilers, 1 cell each)
    patterns: tuple[str, ...]  # divergences dealt to compiled cases, in turn


def _profile(at_once: int, one: int, two: int, exhaust: int) -> tuple[int, ...]:
    return (0,) * at_once + (1,) * one + (2,) * two + (EXHAUST,) * exhaust


# The generate repair profile follows the paper's partition
# (152 of 269 generated cases compile, about 57%): most compiling drafts
# pass the gate at once, a few after one or two repairs, and the rest
# exhaust the five-attempt bound.
SHAPES = {
    "sweep": Shape(
        passes=1,
        functions_per_pass=1,
        mutations=1,
        seed_repairs=_profile(1, 0, 0, 0),
        mutant_repairs=_profile(1, 0, 0, 0),
        doc_chunks=4,
        embedding_dim=64,
        rag_k=2,
        rag_threshold=1.9,
        matrix="reference",
        patterns=("opt_output", "device_crash"),
    ),
    "generate": Shape(
        passes=2,
        functions_per_pass=4,
        mutations=2,
        seed_repairs=_profile(3, 1, 1, 3),
        mutant_repairs=_profile(4, 1, 1, 4),
        doc_chunks=1000,
        embedding_dim=1536,
        rag_k=4,
        rag_threshold=1.0,
        matrix="small",
        patterns=("clean", "compiler_output", "device_crash"),
    ),
    "sweep-smoke": Shape(
        passes=1,
        functions_per_pass=1,
        mutations=1,
        seed_repairs=_profile(0, 1, 0, 0),
        mutant_repairs=_profile(1, 0, 0, 0),
        doc_chunks=3,
        embedding_dim=64,
        rag_k=2,
        rag_threshold=1.9,
        matrix="reference",
        patterns=("opt_output", "device_crash"),
    ),
    "generate-smoke": Shape(
        passes=1,
        functions_per_pass=3,
        mutations=1,
        seed_repairs=_profile(1, 1, 0, 1),
        mutant_repairs=_profile(1, 0, 0, 1),
        doc_chunks=40,
        embedding_dim=128,
        rag_k=3,
        rag_threshold=1.0,
        matrix="small",
        patterns=("compiler_output", "device_crash"),
    ),
}


# A divergence overrides the base output on every cell that matches all of
# its coordinates. One override per pattern keeps the mock table's
# most-specific-first matching trivially equal to `_outcome` below.
PATTERNS: dict[str, tuple[dict, dict]] = {
    "clean": ({}, {}),
    "opt_output": ({"compiler": "icpx", "opt": "-O3"}, {"stdout_delta": 1}),
    "compiler_output": ({"compiler": "@second"}, {"stdout_delta": 2}),
    "device_crash": ({"device": "devB"}, {"signal": "SIGABRT"}),
}


@dataclass
class CasePlan:
    case_id: str
    pass_name: str
    drafts: list[str]  # sources in the order the gate sees them
    compiles: bool
    pattern: str = "clean"
    value: int = 0


@dataclass
class Plan:
    cases: list[CasePlan] = field(default_factory=list)
    functions: dict[str, int] = field(default_factory=dict)  # pass -> count


def _toolchains(kind: str) -> list[dict]:
    mock_env = {"RAGFUZZ_MOCK_TABLE": "tools/table.json"}

    def tc(compiler_id, targets, opts):
        return {
            "compiler_id": compiler_id,
            "executable": "tools/mockcc",
            "base_flags": ["--mock-id", compiler_id],
            "targets": [{"name": t, "flags": ["--mock-target", t]} for t in targets],
            "opt_levels": list(opts),
            "env": mock_env,
        }

    if kind == "reference":
        # criterion 6's reference matrix: 4 + 20 = 24 compiles per case
        opts = ("-O0", "-O1", "-O2", "-O3")
        spir = ("spir64", "spir64_x86_64", "spir64-unknown-unknown",
                "spir64_x86_64-unknown-unknown")
        return [
            tc("clang++", ["nvptx64-nvidia-cuda"], opts),
            tc("icpx", ["nvptx64-nvidia-cuda", *spir], opts),
        ]
    return [tc("cc1", ["t0"], ["-O2"]), tc("cc2", ["t0"], ["-O2"])]


def _cells(toolchains: list[dict]) -> list[dict]:
    return [
        {"compiler": tc["compiler_id"], "target": t["name"], "opt": opt, "device": dev}
        for tc in toolchains
        for t in tc["targets"]
        for opt, dev in product(tc["opt_levels"], DEVICES)
    ]


def _override(pattern: str, toolchains: list[dict]) -> tuple[dict, dict]:
    match, effect = PATTERNS[pattern]
    if match.get("compiler") == "@second":
        match = {**match, "compiler": toolchains[1]["compiler_id"]}
    return match, effect


def _outcome(case: CasePlan, toolchains: list[dict], cell: dict) -> tuple[str, str]:
    """(status, stdout) the plan intends for one matrix cell."""
    match, effect = _override(case.pattern, toolchains)
    base = BASE_OUTPUT.format(value=case.value)
    if not match or any(cell[k] != v for k, v in match.items()):
        return "ok", base
    if "signal" in effect:
        return "crash_signal", ""
    return "ok", BASE_OUTPUT.format(value=case.value + effect["stdout_delta"])


def _table_runs(case: CasePlan, toolchains: list[dict]) -> list[dict]:
    match, effect = _override(case.pattern, toolchains)
    base = {"stdout": BASE_OUTPUT.format(value=case.value)}
    if not match:
        return [base]
    if "stdout_delta" in effect:
        override = {"stdout": BASE_OUTPUT.format(value=case.value + effect["stdout_delta"])}
    else:
        override = {"signal": effect["signal"]}
    return [{**match, **override}, base]


def _expected_findings(cases: list[CasePlan], toolchains: list[dict]) -> dict:
    """Single-axis pair comparison over the planned cell outcomes.

    Opt-level pairs share compiler, target and device; device pairs share
    compiler, target and opt level; compiler pairs share target and opt
    level on any devices.
    """
    axes = {
        "cross_opt_level": (("compiler", "target", "device"), "opt"),
        "cross_device": (("compiler", "target", "opt"), "device"),
        "cross_compiler": (("target", "opt"), "compiler"),
    }
    cells = _cells(toolchains)
    per_case: dict[str, list[list[str]]] = {}
    for case in cases:
        if not case.compiles:
            continue
        outcome = {id(c): _outcome(case, toolchains, c) for c in cells}
        found = set()
        for a, b in combinations(cells, 2):
            (sa, oa), (sb, ob) = outcome[id(a)], outcome[id(b)]
            for axis, (same, differ) in axes.items():
                if a[differ] == b[differ] or any(a[k] != b[k] for k in same):
                    continue
                if sa == sb == "ok" and oa != ob:
                    found.add(("output_mismatch", axis))
                if (sa == "crash_signal") != (sb == "crash_signal"):
                    found.add(("crash_on_some", axis))
        if found:
            per_case[case.case_id] = sorted([list(p) for p in found])
    per_axis: dict[str, int] = {}
    for pairs in per_case.values():
        for axis in sorted({axis for _, axis in pairs}):
            per_axis[axis] = per_axis.get(axis, 0) + 1
    return {"per_case": per_case, "per_axis": dict(sorted(per_axis.items()))}


# --------------------------------------------------------------------------
# Synthetic text
# --------------------------------------------------------------------------

_SYLLABLES = ("ka", "ro", "mi", "sen", "tal", "vo", "der", "nu", "pli", "gar",
              "es", "zo", "qui", "bel", "ston", "ra", "lu", "fen", "ox", "dai")


def _words(rng: random.Random, n: int) -> list[str]:
    return ["".join(rng.choices(_SYLLABLES, k=rng.randint(1, 3))) for _ in range(n)]


def _paragraph(rng: random.Random, length: int) -> str:
    text = ""
    while len(text) < length:
        sentence = " ".join(_words(rng, rng.randint(6, 14))).capitalize() + ". "
        text += sentence
    return text[:length - 1] + "."


def _docs(rng: random.Random, chunks: int) -> dict[str, str]:
    """Docs made of fixed-length paragraphs: with max_chars 800 and overlap
    80, every chunk holds one paragraph plus the overlap, so the chunk count
    and every context length are the same for every seed."""
    per_doc = 100
    docs = {}
    for d in range(0, chunks, per_doc):
        paras = [_paragraph(rng, 698) for _ in range(min(per_doc, chunks - d))]
        docs[f"inputs/docs/topic_{d // per_doc:02d}.md"] = "\n\n".join(paras) + "\n"
    return docs


def _pass_function(rng: random.Random, name: str) -> str:
    lines = [f"void {name}(Module &M) {{", "  unsigned Count = 0;"]
    for word in _words(rng, 7):
        lines += [
            "  for (auto &GV : M.globals()) {",
            f"    if (!is{word.capitalize()}Variable(GV))",
            "      continue;",
            f"    Count += {rng.randint(1, 97)};",
            "  }",
        ]
    lines += ["  recordCount(M, Count);", "}"]
    return "\n".join(lines)


def _characteristics(rng: random.Random, fn_name: str) -> str:
    return (
        f"The kernel must exercise {fn_name}: declare device_global variables at "
        f"namespace scope and touch them from device code. "
        + " ".join(_words(rng, 30))
        + "."
    )


def _source(case_id: str, revision: int, value: int, compiles: bool) -> str:
    broken = "" if compiles else f"  int pending = undeclared_r{revision};\n"
    return (
        "#include <sycl/sycl.hpp>\n"
        "#include <iostream>\n"
        "\n"
        "using namespace sycl;\n"
        "\n"
        f"// test case {case_id}, revision {revision}\n"
        "int main() {\n"
        "  queue q;\n"
        "  int out = 0;\n"
        f"{broken}"
        "  {\n"
        "    buffer<int, 1> buf(&out, range<1>(1));\n"
        "    q.submit([&](handler &h) {\n"
        "      auto acc = buf.get_access<access::mode::write>(h);\n"
        f"      h.single_task([=] {{ acc[0] = {value}; }});\n"
        "    }).wait();\n"
        "  }\n"
        '  std::cout << "Output value from device kernel: " << out << std::endl;\n'
        "  return 0;\n"
        "}\n"
    )


def _fenced(source: str) -> str:
    return f"Here is the generated test case.\n\n```cpp\n{source}```\n"


def _compile_error(revision: int) -> str:
    return f"error: use of undeclared identifier 'undeclared_r{revision}'\n"


# --------------------------------------------------------------------------
# Scenario assembly
# --------------------------------------------------------------------------

def _case(case_id: str, pass_name: str, failing: int, value: int) -> CasePlan:
    compiles = failing != EXHAUST
    drafts = [_source(case_id, r, value, compiles=False) for r in range(failing)]
    if compiles:
        drafts.append(_source(case_id, failing, value, compiles=True))
    return CasePlan(case_id, pass_name, drafts, compiles, value=value)


def _repair_entries(case: CasePlan) -> list[ScriptEntry]:
    failing = len(case.drafts) - (1 if case.compiles else 0)
    # a case that exhausts the bound asks for MAX_REPAIRS fixes; the last
    # failing draft is never sent back
    asks = failing if case.compiles else MAX_REPAIRS
    return [
        ScriptEntry(
            "repair",
            {"code": f"sha256:{binding_digest(case.drafts[i])}"},
            [_fenced(case.drafts[i + 1])],
        )
        for i in range(asks)
    ]


def build(workload: str, seed: int) -> tuple[Scenario, Plan]:
    shape = SHAPES[workload]
    catalog = default_catalog()
    rng = random.Random(derive_seed("perfbench", workload, seed))
    # Two mutations of one case whose sampled features coincide would send
    # the same prompt twice; take the first campaign seed without that.
    for attempt in range(1000):
        campaign_seed = derive_seed("campaign", workload, seed, attempt) % 1_000_000
        if _mutation_reqs_distinct(shape, catalog, campaign_seed):
            break
    else:
        raise ValueError(f"{workload}: no campaign seed gives distinct mutation prompts")

    plan = Plan()
    toolchains = _toolchains(shape.matrix)
    entries: list[ScriptEntry] = []
    input_files = _docs(rng, shape.doc_chunks)
    # Profiles are dealt in a fixed order, longest repair chains first: the
    # seed changes the content of every case, never which case position
    # does how much work, so worker load balance is the same for all seeds.
    seed_profile = sorted(shape.seed_repairs)
    mutant_profile = sorted(shape.mutant_repairs)
    patterns = list(shape.patterns)
    rng.shuffle(patterns)
    values = rng.sample(range(100, 10_000), len(seed_profile) + len(mutant_profile))

    seeds: list[CasePlan] = []
    for p in range(shape.passes):
        pass_name = f"BenchPass{p}"
        bodies = []
        for k in range(shape.functions_per_pass):
            fn_name = f"lowerPass{p}Function{k}"
            body = _pass_function(rng, fn_name)
            bodies.append(body)
            ch = _characteristics(rng, fn_name)
            case_id = seed_case_id(pass_name, k, 0)
            selection = sample_features(catalog, selection_seed(campaign_seed, case_id))
            reqs = f"{ch}\n\n{render_feature_requirements(selection)}"
            case = _case(case_id, pass_name, seed_profile.pop(), values.pop())
            seeds.append(case)
            entries += [
                ScriptEntry(
                    "characteristics",
                    {"pass_name": pass_name, "function_code": f"sha256:{binding_digest(body)}"},
                    [ch],
                ),
                ScriptEntry(
                    "codegen",
                    {"pass_name": pass_name, "reqs": f"sha256:{binding_digest(reqs)}"},
                    [_fenced(case.drafts[0])],
                ),
                *_repair_entries(case),
            ]
        input_files[f"inputs/pass{p}.cpp"] = "\n\n".join(bodies) + "\n"
        plan.functions[pass_name] = len(bodies)

    mutants: list[CasePlan] = []
    for parent in seeds:
        if not parent.compiles:
            continue
        for j in range(shape.mutations):
            child_id = f"{parent.case_id}.m{j}"
            child = _case(child_id, parent.pass_name, mutant_profile.pop(), values.pop())
            mutants.append(child)
            mreqs = render_feature_requirements(
                sample_features(catalog, derive_seed(campaign_seed, parent.case_id, j))
            )
            entries += [
                ScriptEntry(
                    "mutation",
                    {
                        "code": f"sha256:{binding_digest(parent.drafts[-1])}",
                        "reqs": f"sha256:{binding_digest(mreqs)}",
                    },
                    [_fenced(child.drafts[0])],
                ),
                *_repair_entries(child),
            ]
    if seed_profile or mutant_profile:
        raise ValueError(f"{workload}: repair profile does not match the case count")

    plan.cases = sorted(seeds + mutants, key=lambda c: c.case_id)
    compiled = [c for c in plan.cases if c.compiles]
    for i, case in enumerate(compiled):
        case.pattern = patterns[i % len(patterns)]

    tool_table = {}
    for case in plan.cases:
        for i, draft in enumerate(case.drafts):
            if case.compiles and i == len(case.drafts) - 1:
                tool_table[source_digest(draft)] = table_entry(runs=_table_runs(case, toolchains))
            else:
                tool_table[source_digest(draft)] = table_entry(
                    compile_exit=1, compile_stderr=_compile_error(i)
                )

    first_tc = toolchains[0]
    config = {
        "campaign": {"seed": campaign_seed, "workers_llm": 2, "workers_tool": 2},
        "passes": [
            {"pass_name": name, "sources": [f"inputs/pass{p}.cpp"], "docs": ["inputs/docs/*.md"]}
            for p, name in enumerate(plan.functions)
        ],
        "extraction": {"min_lines": 1, "name_patterns": []},
        "rag": {
            "max_chars": 800,
            "overlap_chars": 80,
            "threshold": shape.rag_threshold,
            "k": shape.rag_k,
            "embedding_dim": shape.embedding_dim,
        },
        "providers": {"mode": "mock", "scenario": ""},  # set by materialize()
        "generation": {
            "mutations_per_seed": shape.mutations,
            "max_repair_attempts": MAX_REPAIRS,
            "seeds_per_function": 1,
        },
        "gate": {
            "compiler_id": first_tc["compiler_id"],
            "target": first_tc["targets"][0]["name"],
            "opt_level": "-O2",
        },
        "toolchains": toolchains,
        "devices": [{"device_id": d, "env": {"RAGFUZZ_DEVICE": d}} for d in DEVICES],
        "compatibility": {},
        "limits": {"compile_timeout": 60.0, "run_timeout": 30.0},
        "report": {"float_sig_digits": 6},
    }
    scenario = Scenario(
        scenario_id=f"perfbench-{workload}-{seed}",
        input_files=input_files,
        llm_entries=entries,
        tool_table=tool_table,
        config=config,
        expected_report=expected_report(plan, toolchains),
    )
    scenario.validate()
    return scenario, plan


def _mutation_reqs_distinct(shape: Shape, catalog, campaign_seed: int) -> bool:
    for p in range(shape.passes):
        for k in range(shape.functions_per_pass):
            case_id = seed_case_id(f"BenchPass{p}", k, 0)
            reqs = {
                render_feature_requirements(
                    sample_features(catalog, derive_seed(campaign_seed, case_id, j))
                )
                for j in range(shape.mutations)
            }
            if len(reqs) != shape.mutations:
                return False
    return True


def expected_report(plan: Plan, toolchains: list[dict]) -> dict:
    """The report a correct campaign must produce, derived from the plan."""
    per_pass = {}
    for pass_name, functions in plan.functions.items():
        cases = [c for c in plan.cases if c.pass_name == pass_name]
        compiled = sum(1 for c in cases if c.compiles)
        per_pass[pass_name] = {
            "functions": functions,
            "characteristics": functions,
            "generated": len(cases),
            "compiled": compiled,
            "failed": len(cases) - compiled,
            "abandoned": 0,
        }
    return {"per_pass": per_pass, "findings": _expected_findings(plan.cases, toolchains)}


def materialize(scenario: Scenario, workdir: Path) -> Path:
    """Write the scenario's inputs and mock tools; returns the config path.

    ``providers.scenario`` must be absolute: ragfuzz does not resolve it
    against the config directory.
    """
    workdir = Path(workdir).resolve()
    scenario_path = workdir / "scenario.json"
    scenario.config["providers"]["scenario"] = str(scenario_path)
    config_path = materialize_scenario(scenario, workdir)
    # inputs and tool table are already on disk; the campaign reads only the
    # script from this file
    record = dict(scenario_to_dict(scenario), input_files={}, tool_table={})
    scenario_path.write_text(json.dumps(record, sort_keys=True))
    return config_path
