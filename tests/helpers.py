"""Shared test helpers: synthetic results matrices for classifier checks, a
provider backend that fails on cue, the Python mock compiler and mock
binary that the sh ones replaced, and the check that a table is refused."""
from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ragfuzz.difftest import ResultsMatrix
from ragfuzz.errors import RecordError, TransportError
from ragfuzz.mocktool import DEVICE_ENV, TABLE_ENV, translate_mock_table, write_mock_table
from ragfuzz.providers import Completion, approx_tokens
from ragfuzz.toolchain import CellKey, RunJob, RunLimits, RunResult, RunStatus, run_job

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
    return RunResult(case_id, key, status, exit_code, stdout, stderr)


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

    def complete(self, prompt, text: str) -> Completion:
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


FIXTURES = Path(__file__).parent / "fixtures"
MOCK_COORDS = ("cc1", "mock-spir", "-O2")


def _fill(template: str, path: Path, fills: dict) -> Path:
    parts = (FIXTURES / template).read_text(encoding="utf-8").split("@@")
    parts[1::2] = [fills[name] for name in parts[1::2]]
    path.write_text("".join(parts), encoding="utf-8")
    path.chmod(0o755)
    return path


def write_python_binary(path: Path, runs, coords=MOCK_COORDS) -> Path:
    """The binary the mock compiler wrote before it wrote sh scripts: a Python
    script holding ``runs`` as a literal and its (compiler, target, opt)."""
    fills = {"PY": sys.executable, "DE": repr(DEVICE_ENV), "RUNS": repr(runs)}
    fills.update(zip("CTO", map(repr, coords)))
    return _fill("python_mock_binary.tmpl", path, fills)


def write_python_compiler(path: Path) -> Path:
    """The mock compiler before it was a sh script: a Python script that
    decodes the JSON table at every compile and writes sh binaries naming
    ``sleep`` and ``kill`` by the paths this PATH finds."""
    sleep, kill = shutil.which("sleep"), shutil.which("kill")
    fills = {
        "PY": sys.executable,
        "TABLE_ENV": repr(TABLE_ENV),
        "DEVICE_ENV": repr(DEVICE_ENV),
        "SLEEP": repr(os.path.abspath(sleep)),
        "KILL": repr(kill and os.path.abspath(kill)),
    }
    return _fill("python_mock_compiler.tmpl", path, fills)


def compile_outcome(argv, env: dict, cwd: Path, out: Path) -> tuple:
    """(exit, stdout, stderr, binary bytes or None) of one mock compile to ``out``."""
    if out.exists():
        out.unlink()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, timeout=30)
    return proc.returncode, proc.stdout, proc.stderr, out.read_bytes() if out.exists() else None


def assert_same_compile(got, want, context) -> None:
    """Compile outcomes (exit, stdout, stderr, binary bytes or None) of the
    sh compiler and of the Python one match."""
    assert got == want, context


def assert_refused(table: dict, field_path: str, workdir: Path) -> None:
    """write_mock_table, and translate_mock_table on the JSON of ``table``,
    refuse it with a RecordError naming ``field_path``, and write no sh form."""
    written, translated = workdir / "written.json", workdir / "translated.json"
    with pytest.raises(RecordError) as info:
        write_mock_table(written, table)
    assert info.value.field_path == field_path
    assert not written.exists() and not written.with_name("written.json.sh").exists()
    translated.write_text(json.dumps(table))
    with pytest.raises(RecordError) as info:
        translate_mock_table(translated)
    assert info.value.field_path == field_path
    assert not translated.with_name("translated.json.sh").exists()


def mock_devices(runs) -> list[str | None]:
    """Every device name ``runs`` names, one it does not name, and None for
    the device variable unset."""
    named = [r["device"] for r in runs if r.get("device", "*") != "*"]
    return [*dict.fromkeys(named), "devZ", None]


def run_mock(binary: Path, device: str | None, limits: RunLimits | None = None,
             timeout: float = 30.0) -> RunResult:
    """Run a mock binary on ``device`` (None: the variable unset)."""
    env = {"LC_ALL": "C"}  # the Python binary's stdout took surrogate escapes in C
    if device is not None:
        env[DEVICE_ENV] = device
    job = RunJob("c", CellKey(*MOCK_COORDS, device or ""), str(binary), env=env, timeout=timeout)
    return run_job(job, limits)
