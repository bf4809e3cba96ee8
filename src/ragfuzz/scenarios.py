"""Deterministic scripted scenarios for hermetic end-to-end campaigns.

A scenario bundles everything a mock campaign needs: pass sources and docs,
canned LLM responses keyed by prompt bindings, a mock-toolchain fixture table
keyed by source digest, a campaign config, and the expected report. Scenarios
are closed-world: any LLM prompt or compiled source the script does not cover
is an error, never a silent guess.

Built-in scenarios live in a registry; external ones are JSON records of
``Scenario`` (see scenario_to_dict).

Annotations here are evaluated at import, not postponed: the record codec
reads the scenario's field types as objects when a campaign sets up.
"""
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import OpenWorldKey, RecordError, UnknownScenario
from .mocktool import (
    decode_mock_table,
    source_digest,
    table_entry,
    write_mock_compiler,
    write_mock_table,
)
from .pipeline import (
    default_catalog,
    derive_seed,
    render_feature_requirements,
    sample_features,
)
from .prompts import TEMPLATE_PLACEHOLDERS
from .providers import ScriptEntry, binding_digest
from .records import from_record, to_record


def seed_case_id(pass_name: str, function_index: int, seed_index: int) -> str:
    return f"{pass_name}.f{function_index}.s{seed_index}"


def selection_seed(campaign_seed: int, case_id: str) -> int:
    return derive_seed(campaign_seed, "select", case_id)


def mutant_case_id(parent_id: str, j: int) -> str:
    return f"{parent_id}.m{j}"


def mutation_seed(campaign_seed: int, parent_id: str, j: int) -> int:
    return derive_seed(campaign_seed, parent_id, j)


@dataclass
class Scenario:
    scenario_id: str
    input_files: dict[str, str] = field(default_factory=dict)  # workdir path -> content
    llm_entries: list[ScriptEntry] = field(default_factory=list)
    tool_table: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    expected_report: dict | None = None

    def validate(self) -> None:
        for i, entry in enumerate(self.llm_entries):
            if not entry.responses:
                raise OpenWorldKey(f"scenario {self.scenario_id}: entry #{i} has no responses")
            if entry.template_id not in TEMPLATE_PLACEHOLDERS:
                raise OpenWorldKey(
                    f"scenario {self.scenario_id}: entry #{i} has unknown template "
                    f"{entry.template_id!r}"
                )
        try:
            decode_mock_table(self.tool_table)
        except RecordError as exc:
            raise OpenWorldKey(f"scenario {self.scenario_id}: tool table: {exc}") from None


def scenario_to_dict(scenario: Scenario) -> dict:
    return to_record(scenario)


def load_scenario(scenario_id: str, base_dir: Path | str = ".") -> Scenario:
    """Resolve a built-in scenario by id, or an external one by a JSON path
    relative to base_dir."""
    builder = _REGISTRY.get(scenario_id)
    path = Path(base_dir, scenario_id)
    if builder is not None:
        scenario = builder()
    elif path.suffix == ".json" and path.exists():
        scenario = from_record(Scenario, json.loads(path.read_text()))
    else:
        raise UnknownScenario(f"no built-in scenario or .json file {scenario_id!r}")
    scenario.validate()
    return scenario


def materialize_scenario(scenario: Scenario, workdir: Path) -> Path:
    """Write inputs, mock tooling and config into workdir; returns config path."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for rel_path, content in scenario.input_files.items():
        target = workdir / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
    write_mock_compiler(workdir / "tools" / "mockcc")
    write_mock_table(workdir / "tools" / "table.json", scenario.tool_table)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(scenario.config, indent=2, sort_keys=True))
    return config_path


def _fenced(source: str) -> str:
    return f"Here is the generated test case.\n\n```cpp\n{source}```\n"


_PASS_FN_COLLECT = """DeviceGlobalPropertyMapTy collectDeviceGlobalProperties(const Module &M) {
  DeviceGlobalPropertyMapTy DGM;
  auto DevGlobalNum = count_if(M.globals(), isDeviceGlobalVariable);
  if (DevGlobalNum == 0)
    return DGM;

  DGM.reserve(DevGlobalNum);

  for (auto &GV : M.globals()) {
    if (!isDeviceGlobalVariable(GV))
      continue;

    DGM[getGlobalVariableUniqueId(GV)] = {
        {{getUnderlyingTypeSize(GV), hasDeviceImageScopeProperty(GV)}}};
  }

  return DGM;
}"""

_PASS_FN_LOWER = """void lowerDeviceGlobalVars(Module &M) {
  for (auto &GV : M.globals()) {
    if (!isDeviceGlobalVariable(GV))
      continue;
    rewriteDeviceGlobalUses(GV);
  }
}"""

_DOC_TEXT = """# Device global variables

The device_global extension lets a program declare variables at namespace
scope that are visible to every device kernel and to the host. Each variable
is uniquely identified so the compiler can collect its properties, including
the size of the underlying type.

A device_global may optionally carry the device_image_scope property. With
that property the variable belongs to a single device image, otherwise it is
shared across all images on the device.

Kernels read and write device_global variables directly; the host accesses
them through queue copies. Initialization must happen before the first kernel
that uses the variable is submitted.
"""

_SRC_A = """#include <sycl/sycl.hpp>
#include <iostream>

using namespace sycl;
using namespace sycl::ext::oneapi::experimental;

device_global<int> counterVar;

int main() {
  queue q;
  q.submit([&](handler &h) {
    h.single_task([=] { counterVar = 41 + 1; });
  }).wait();
  int out = 0;
  q.copy(counterVar, &out).wait();
  std::cout << "Output value from device kernel: " << out << std::endl;
  return 0;
}
"""

_SRC_B0 = """#include <sycl/sycl.hpp>
#include <iostream>

using namespace sycl;

int main() {
  queue q;
  q.submit([&](handler &h) {
    h.single_task([=] { gv = 7; });
  }).wait();
  std::cout << "Output value from device kernel: " << gv << std::endl;
  return 0;
}
"""

_SRC_B1 = """#include <sycl/sycl.hpp>
#include <iostream>

using namespace sycl;
using namespace sycl::ext::oneapi::experimental;

device_global<int> gv;

int main() {
  queue q;
  q.submit([&](handler &h) {
    h.single_task([=] { gv = 7; });
  }).wait();
  int out = 0;
  q.copy(gv, &out).wait();
  std::cout << "Output value from device kernel: " << out << std::endl;
  return 0;
}
"""

_SRC_AM = """#include <sycl/sycl.hpp>
#include <iostream>

using namespace sycl;
using namespace sycl::ext::oneapi::experimental;

device_global<int> counterVar;
device_global<int> mirrorVar;

int main() {
  queue q;
  q.submit([&](handler &h) {
    h.single_task([=] { counterVar = 50; mirrorVar = counterVar + 50; });
  }).wait();
  int out = 0;
  q.copy(mirrorVar, &out).wait();
  std::cout << "Output value from device kernel: " << out << std::endl;
  return 0;
}
"""

_SRC_BM = """#include <sycl/sycl.hpp>
#include <iostream>

using namespace sycl;

struct Widget;

int main() {
  Widget w;
  std::cout << "Output value from device kernel: 0" << std::endl;
  return 0;
}
"""


def build_tiny() -> Scenario:
    """1 pass, 2 functions, X=1, 2 mock compilers, 2 devices, seeded faults.

    Case A diverges by compiler and by opt level (cc2 at -O2 prints 43, all
    else 42); case B crashes on devB only; A's mutant is consistent; B's
    mutant never compiles and exhausts the repair budget.
    """
    campaign_seed = 1234
    pass_name = "DeviceGlobals"
    catalog = default_catalog()

    pass_source = f"{_PASS_FN_COLLECT}\n\n{_PASS_FN_LOWER}\n"
    ch_a = (
        "The kernel must declare a device_global<int> variable at namespace scope, "
        "write it from a single_task kernel, and copy the value back to the host."
    )
    ch_b = (
        "The kernel must lower a device_global variable use: declare it, assign it "
        "inside a kernel, and read it back on the host after the kernel completes."
    )

    a_id = seed_case_id(pass_name, 0, 0)
    b_id = seed_case_id(pass_name, 1, 0)
    sel_a = sample_features(catalog, selection_seed(campaign_seed, a_id))
    sel_b = sample_features(catalog, selection_seed(campaign_seed, b_id))
    reqs_a = f"{ch_a}\n\n{render_feature_requirements(sel_a)}"
    reqs_b = f"{ch_b}\n\n{render_feature_requirements(sel_b)}"

    sel_am = sample_features(catalog, mutation_seed(campaign_seed, a_id, 0))
    sel_bm = sample_features(catalog, mutation_seed(campaign_seed, b_id, 0))
    mreqs_am = render_feature_requirements(sel_am)
    mreqs_bm = render_feature_requirements(sel_bm)

    sha = binding_digest
    llm_entries = [
        ScriptEntry(
            "characteristics",
            {"pass_name": pass_name, "function_code": f"sha256:{sha(_PASS_FN_COLLECT)}"},
            [ch_a],
        ),
        ScriptEntry(
            "characteristics",
            {"pass_name": pass_name, "function_code": f"sha256:{sha(_PASS_FN_LOWER)}"},
            [ch_b],
        ),
        ScriptEntry(
            "codegen",
            {"pass_name": pass_name, "reqs": f"sha256:{sha(reqs_a)}"},
            [_fenced(_SRC_A)],
        ),
        ScriptEntry(
            "codegen",
            {"pass_name": pass_name, "reqs": f"sha256:{sha(reqs_b)}"},
            [_fenced(_SRC_B0)],
        ),
        ScriptEntry("repair", {"code": f"sha256:{sha(_SRC_B0)}"}, [_fenced(_SRC_B1)]),
        ScriptEntry("repair", {"code": f"sha256:{sha(_SRC_BM)}"}, [_fenced(_SRC_BM)]),
        ScriptEntry(
            "mutation",
            {"code": f"sha256:{sha(_SRC_A)}", "reqs": f"sha256:{sha(mreqs_am)}"},
            [_fenced(_SRC_AM)],
        ),
        ScriptEntry(
            "mutation",
            {"code": f"sha256:{sha(_SRC_B1)}", "reqs": f"sha256:{sha(mreqs_bm)}"},
            [_fenced(_SRC_BM)],
        ),
    ]

    value_42 = "Output value from device kernel: 42\n"
    value_43 = "Output value from device kernel: 43\n"
    tool_table = {
        source_digest(_SRC_A): table_entry(
            runs=[
                {"compiler": "cc2", "opt": "-O2", "stdout": value_43},
                {"stdout": value_42},
            ]
        ),
        source_digest(_SRC_B0): table_entry(
            compile_exit=1,
            compile_stderr="error: use of undeclared identifier 'gv'\n",
        ),
        source_digest(_SRC_B1): table_entry(
            runs=[
                {"device": "devB", "signal": "SIGABRT"},
                {"stdout": "Output value from device kernel: 7\n"},
            ]
        ),
        source_digest(_SRC_AM): table_entry(
            runs=[{"stdout": "Output value from device kernel: 100\n"}]
        ),
        source_digest(_SRC_BM): table_entry(
            compile_exit=1,
            compile_stderr="error: variable has incomplete type 'Widget'\n",
        ),
    }

    mock_env = {"RAGFUZZ_MOCK_TABLE": "tools/table.json"}
    config = {
        "campaign": {"seed": campaign_seed, "workers_llm": 1, "workers_tool": 1},
        "passes": [
            {
                "pass_name": pass_name,
                "sources": ["inputs/device_globals_pass.cpp"],
                "docs": ["inputs/docs/*.md"],
            }
        ],
        "extraction": {"min_lines": 1, "name_patterns": []},
        "rag": {
            "max_chars": 800,
            "overlap_chars": 80,
            "threshold": 1.9,
            "k": 2,
            "embedding_dim": 64,
        },
        "providers": {"mode": "mock", "scenario": "tiny"},
        "generation": {
            "mutations_per_seed": 1,
            "max_repair_attempts": 5,
            "seeds_per_function": 1,
        },
        "gate": {"compiler_id": "cc1", "target": "mock-spir", "opt_level": "-O2"},
        "toolchains": [
            {
                "compiler_id": "cc1",
                "executable": "tools/mockcc",
                "base_flags": ["--mock-id", "cc1"],
                "targets": [{"name": "mock-spir", "flags": ["--mock-target", "mock-spir"]}],
                "opt_levels": ["-O0", "-O2"],
                "env": mock_env,
            },
            {
                "compiler_id": "cc2",
                "executable": "tools/mockcc",
                "base_flags": ["--mock-id", "cc2"],
                "targets": [{"name": "mock-spir", "flags": ["--mock-target", "mock-spir"]}],
                "opt_levels": ["-O0", "-O2"],
                "env": mock_env,
            },
        ],
        "devices": [
            {"device_id": "devA", "env": {"RAGFUZZ_DEVICE": "devA"}},
            {"device_id": "devB", "env": {"RAGFUZZ_DEVICE": "devB"}},
        ],
        "compatibility": {},
        "limits": {"compile_timeout": 30.0, "run_timeout": 10.0},
        "report": {"float_sig_digits": 6},
    }

    expected_report = {
        "per_pass": {
            pass_name: {
                "functions": 2,
                "characteristics": 2,
                "generated": 4,
                "compiled": 3,
                "failed": 1,
                "abandoned": 0,
            }
        },
        "findings": {
            "total_flagged": 2,
            "per_case": {
                a_id: [
                    ["output_mismatch", "cross_compiler"],
                    ["output_mismatch", "cross_opt_level"],
                ],
                b_id: [
                    ["crash_on_some", "cross_compiler"],
                    ["crash_on_some", "cross_device"],
                ],
            },
            "per_axis": {"cross_compiler": 2, "cross_device": 1, "cross_opt_level": 1},
        },
    }

    return Scenario(
        scenario_id="tiny",
        input_files={
            "inputs/device_globals_pass.cpp": pass_source,
            "inputs/docs/device_global.md": _DOC_TEXT,
        },
        llm_entries=llm_entries,
        tool_table=tool_table,
        config=config,
        expected_report=expected_report,
    )


_REGISTRY = {
    "tiny": build_tiny,
}
