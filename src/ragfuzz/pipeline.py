"""Two-stage test-case generation with a bounded repair loop and mutation.

Stage 1 asks the model to describe what source-level characteristics trigger
the pass function; stage 2 turns those characteristics plus a random feature
selection into a compilable program. Compile failures feed a repair prompt at
most ``max_attempts`` times; compiling cases are then mutated X times with
freshly sampled features. The campaign decides each case's id and features
and hands them in as a stub case, whose source generation and mutation fill in.

Annotations here are evaluated at import, not postponed: the record codec
reads the catalog's field types as objects when a campaign sets up.
"""
import hashlib
import json
import random
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache
from importlib.resources import files
from typing import Callable

from .errors import EmptyCatalog, EmptyResponse, NoCodeBlock
from .extraction import PassFunction
from .prompts import PromptFactory
from .providers import LLMService
from .rag import RetrievedChunk, VectorIndex
from .records import from_record
from .toolchain import CompileResult

SYCL_PREAMBLE = """#include <sycl/sycl.hpp>
#include <array>
#include <iostream>
#include <string>
#if FPGA_HARDWARE || FPGA_EMULATOR || FPGA_SIMULATOR
#include <sycl/ext/intel/fpga_extensions.hpp>
#endif

using namespace sycl;
"""


class CaseStatus(str, Enum):
    DRAFT = "draft"
    COMPILES = "compiles"
    ABANDONED = "abandoned"


@dataclass(frozen=True)
class Characteristics:
    pass_name: str
    function_key: str
    text: str


@dataclass(frozen=True)
class FeatureSelection:
    optimization_feature: str
    memory_access: str
    data_structure: str
    kernel_count: int
    seed: int


@dataclass(frozen=True)
class FeatureCatalog:
    """The axis values sampled into generation prompts; every axis must be
    non-empty, and kernel_count_range is an inclusive (lo, hi), 1 <= lo <= hi."""

    optimization_features: tuple[str, ...]
    memory_access: tuple[str, ...]
    data_structures: tuple[str, ...]
    kernel_count_range: tuple[int, int] = (1, 4)

    def __post_init__(self) -> None:
        for axis in ("optimization_features", "memory_access", "data_structures"):
            if not getattr(self, axis):
                raise EmptyCatalog(f"{axis}: must be non-empty")
        if len(self.kernel_count_range) != 2:
            raise EmptyCatalog("kernel_count_range: must be [lo, hi]")
        lo, hi = self.kernel_count_range
        if lo < 1 or hi < lo:
            raise EmptyCatalog(f"kernel_count_range: bad range {list(self.kernel_count_range)}")


@cache  # frozen, so one shared instance serves every caller
def default_catalog() -> FeatureCatalog:
    return from_record(
        FeatureCatalog, json.loads(files("ragfuzz").joinpath("data/catalogs.json").read_text())
    )


@dataclass
class RepairAttempt:
    error: str
    fix_source: str


@dataclass
class TestCase:
    __test__ = False  # domain type, not a pytest class

    case_id: str
    pass_name: str
    source: str
    status: CaseStatus = CaseStatus.DRAFT
    characteristics_key: str = ""
    selection: FeatureSelection | None = None
    parent_id: str | None = None
    repair_transcript: list[RepairAttempt] = field(default_factory=list)
    abandon_reason: str = ""


@dataclass(frozen=True)
class RepairOutcome:
    case: TestCase
    attempts: int
    succeeded: bool


def derive_seed(*parts: object) -> int:
    """Stable sub-seed from arbitrary labels; independent of process hashing."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample_features(catalog: FeatureCatalog, rng_seed: int) -> FeatureSelection:
    """Uniform independent draw per catalog axis, reproducible from the seed."""
    rng = random.Random(rng_seed)
    lo, hi = catalog.kernel_count_range
    return FeatureSelection(
        optimization_feature=rng.choice(catalog.optimization_features),
        memory_access=rng.choice(catalog.memory_access),
        data_structure=rng.choice(catalog.data_structures),
        kernel_count=rng.randint(lo, hi),
        seed=rng_seed,
    )


def render_feature_requirements(selection: FeatureSelection) -> str:
    kernels = "kernel" if selection.kernel_count == 1 else "kernels"
    return (
        "Additional requirements:\n"
        f"- Use the SYCL optimization feature: {selection.optimization_feature}.\n"
        f"- Use the memory access technique: {selection.memory_access}.\n"
        f"- Use the data structure: {selection.data_structure}.\n"
        f"- The code must contain exactly {selection.kernel_count} device {kernels}."
    )


_FENCE_RE = re.compile(
    r"^```[ \t]*[A-Za-z0-9_+-]*[ \t]*\n(.*?)^```[ \t]*$", re.DOTALL | re.MULTILINE
)

_CODE_LINE_PREFIXES = (
    "#include", "#if", "#ifdef", "#ifndef", "#else", "#endif", "#define",
    "//", "/*", "*", "}", "using ", "template", "namespace", "class ",
    "struct ", "return", "int ", "void ", "auto ", "const ", "static ",
)


def _line_is_code(line: str) -> bool:
    s = line.strip()
    if not s:
        return True  # blank lines do not break a code region
    if s.startswith(_CODE_LINE_PREFIXES):
        return True
    return s.endswith((";", "{", "}", ":", ","))


def extract_code_block(response: str) -> str:
    """Contents of the last fenced code block in an LLM response.

    Without a fence, falls back to the longest contiguous region of
    code-looking lines, accepted only when it spans at least three non-blank
    lines and mentions ``#include`` or ``int main``.
    """
    if not response.strip():
        raise NoCodeBlock("empty response")
    blocks = _FENCE_RE.findall(response)
    if blocks:
        return blocks[-1]

    lines = response.split("\n")
    regions: list[tuple[int, int]] = []
    start = None
    for i, line in enumerate(lines + [""]):
        if i < len(lines) and _line_is_code(line):
            if start is None:
                start = i
        else:
            if start is not None:
                regions.append((start, i))
                start = None
    best = ""
    for lo, hi in regions:
        text = "\n".join(lines[lo:hi]).strip("\n")
        non_blank = sum(1 for l in text.split("\n") if l.strip())
        if non_blank >= 3 and ("#include" in text or "int main" in text):
            if len(text) > len(best):
                best = text
    if not best:
        raise NoCodeBlock("no fenced block and no plausible code region")
    return best


def ensure_sycl_preamble(source: str) -> str:
    """Prepend the mandatory header block when the model dropped it."""
    if "#include <sycl/sycl.hpp>" in source:
        return source
    return SYCL_PREAMBLE + "\n" + source


class GenerationPipeline:
    """Wires prompts, retrieval and the LLM into the generation stages."""

    def __init__(
        self,
        prompts: PromptFactory,
        llm: LLMService,
        index: VectorIndex | None = None,
        embedder=None,
        retrieval_threshold: float = 0.5,
        retrieval_k: int = 4,
    ):
        self.prompts = prompts
        self.llm = llm
        self.index = index
        self.embedder = embedder
        self.retrieval_threshold = retrieval_threshold
        self.retrieval_k = retrieval_k

    def _context(self, prompt) -> list[RetrievedChunk]:
        if self.index is None or self.embedder is None or len(self.index) == 0:
            return []
        return self.index.retrieve(
            prompt.text, self.retrieval_threshold, self.retrieval_k, self.embedder
        )

    def generate_characteristics(self, fn: PassFunction) -> Characteristics:
        """Stage 1; the campaign calls it once per function, for a function
        with no characteristics file."""
        prompt = self.prompts.characteristics_prompt(fn.pass_name, fn.body)
        completion = self.llm.llm_complete(prompt, self._context(prompt), "characteristics")
        if not completion.text.strip():
            raise EmptyResponse(f"blank characteristics for {fn.qualified_name}")
        return Characteristics(
            pass_name=fn.pass_name, function_key=fn.qualified_name, text=completion.text
        )

    def _draft(self, stub: TestCase, prompt, stage: str) -> TestCase:
        """The stub with the source the model wrote for the prompt."""
        completion = self.llm.llm_complete(prompt, self._context(prompt), stage)
        return replace(stub, source=ensure_sycl_preamble(extract_code_block(completion.text)))

    def generate_testcase(self, ch: Characteristics, stub: TestCase) -> TestCase:
        """Stage 2: characteristics plus the stub's feature requirements -> draft."""
        reqs = f"{ch.text}\n\n{render_feature_requirements(stub.selection)}"
        return self._draft(stub, self.prompts.codegen_prompt(ch.pass_name, reqs), "codegen")

    def repair_loop(
        self,
        case: TestCase,
        gate_compile: Callable[[str], CompileResult],
        max_attempts: int = 5,
        on_attempt: Callable[[RepairAttempt], None] = lambda attempt: None,
    ) -> RepairOutcome:
        """Compile; on failure ask for a fix and retry, at most max_attempts.

        The gate is one configured (compiler, target, opt level) triple; the
        full matrix only sees cases that pass it. on_attempt(attempt) follows
        each transcript entry (the campaign appends it to the case's repair
        log), and the attempts a resumed case's transcript holds count
        against max_attempts.
        """
        transcript = case.repair_transcript
        result = gate_compile(case.source)
        while not result.ok and len(transcript) < max_attempts:
            prompt = self.prompts.repair_prompt(case.source, result.stderr)
            completion = self.llm.llm_complete(prompt, self._context(prompt), "repair")
            try:
                fixed = ensure_sycl_preamble(extract_code_block(completion.text))
            except NoCodeBlock:
                transcript.append(RepairAttempt(result.stderr, ""))
                on_attempt(transcript[-1])
                continue  # burn the attempt; the old error is asked about again
            transcript.append(RepairAttempt(result.stderr, fixed))
            case.source = fixed
            on_attempt(transcript[-1])
            result = gate_compile(case.source)
        if result.ok:
            case.status = CaseStatus.COMPILES
        else:
            case.status = CaseStatus.ABANDONED
            case.abandon_reason = "compile_failed"
        return RepairOutcome(case, len(transcript), result.ok)

    def mutate_one(self, parent: TestCase, stub: TestCase) -> TestCase:
        """A mutation draft of a compiling case, with the stub's features."""
        reqs = render_feature_requirements(stub.selection)
        return self._draft(stub, self.prompts.mutation_prompt(parent.source, reqs), "mutation")
