"""Shared test helpers: synthetic results matrices for classifier checks and
a provider backend that fails on cue."""
from __future__ import annotations

import random

from ragfuzz.difftest import ResultsMatrix
from ragfuzz.errors import TransportError
from ragfuzz.providers import Completion, approx_tokens
from ragfuzz.toolchain import CellKey, RunResult, RunStatus

STATUS_POOL = [
    RunStatus.OK,
    RunStatus.OK,
    RunStatus.OK,
    RunStatus.OK,
    RunStatus.NONZERO_EXIT,
    RunStatus.CRASH_SIGNAL,
    RunStatus.TIMEOUT,
    RunStatus.LAUNCH_ERROR,
]

STDOUT_POOL = [
    "Output value from device kernel: 1\n",
    "Output value from device kernel: 2\n",
    "x=0.333333334\n",
    "x=0.333333341\n",
    "",
]

STDERR_POOL = [
    "",
    "",
    "warning: something benign\n",
    "error: feature not supported on this device\n",
    "PI_ERROR_UNSUPPORTED_FEATURE\n",
]


def make_cell(
    case_id: str,
    compiler: str,
    target: str,
    opt: str,
    device: str,
    status: RunStatus = RunStatus.OK,
    stdout: str = "",
    stderr: str = "",
) -> RunResult:
    key = CellKey(compiler, target, opt, device)
    exit_code = {
        RunStatus.OK: 0,
        RunStatus.NONZERO_EXIT: 1,
        RunStatus.CRASH_SIGNAL: -6,
        RunStatus.TIMEOUT: None,
        RunStatus.LAUNCH_ERROR: None,
    }[status]
    return RunResult(case_id, key, status, exit_code, stdout, stderr, 0.01)


def random_matrix(rng: random.Random, case_id: str = "case") -> ResultsMatrix:
    """Sparse random matrix up to 2 compilers x 3 targets x 4 opts x 2 devices."""
    while True:
        compilers = [f"cc{i}" for i in range(rng.randint(1, 2))]
        targets = [f"t{i}" for i in range(rng.randint(1, 3))]
        opts = ["-O0", "-O1", "-O2", "-O3"][: rng.randint(1, 4)]
        devices = ["devA", "devB"][: rng.randint(1, 2)]
        cells = {}
        for c in compilers:
            for t in targets:
                for o in opts:
                    for d in devices:
                        if rng.random() < 0.15:
                            continue  # missing cell (compile failed / skipped)
                        result = make_cell(
                            case_id,
                            c,
                            t,
                            o,
                            d,
                            status=rng.choice(STATUS_POOL),
                            stdout=rng.choice(STDOUT_POOL),
                            stderr=rng.choice(STDERR_POOL),
                        )
                        cells[result.cell] = result
        if len(cells) >= 2:
            return ResultsMatrix(case_id=case_id, cells=cells)


class FlakyBackend:
    """Test helper: raises scripted transport errors before succeeding."""

    model_id = "mock-llm"

    def __init__(self, failures: int, response: str = "ok"):
        self.failures = failures
        self.response = response
        self.calls = 0

    def complete(self, text: str) -> Completion:
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError(f"scripted transport failure #{self.calls}")
        return Completion(
            text=self.response,
            input_tokens=approx_tokens(text),
            output_tokens=approx_tokens(self.response),
            model_id=self.model_id,
            approximate_usage=True,
        )
