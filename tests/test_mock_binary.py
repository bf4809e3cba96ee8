"""Mock binaries are POSIX sh scripts. Each case below is compiled by the mock
compiler and checked against the Python binary the compiler wrote before
(``tests/fixtures/python_mock_binary.tmpl``, filled with the same record),
run by ``run_job`` with and without limits, and across the installed shells.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest
from helpers import MOCK_COORDS, mock_devices, run_mock, write_python_binary

from ragfuzz.campaign import CampaignStore, load_config_file, resume, run_campaign
from ragfuzz.mocktool import DEVICE_ENV, TABLE_ENV, source_digest, write_mock_compiler
from ragfuzz.scenarios import build_tiny, materialize_scenario
from ragfuzz.toolchain import (
    CellKey,
    RunJob,
    RunLimits,
    RunStatus,
    TargetSpec,
    ToolchainConfig,
    build_matrix,
    compile_job,
    run_job,
)

TEXT = (
    "@@DE@@ @@RUNS@@ $HOME `id` $(id) ${x-y} \"double\" 'single' back\\slash "
    "%d %s %% %b \\c \\n \\0 \\x41 \\101\nsecond line\n"
)

CASES = {
    # text
    "markers_and_quotes": [{"stdout": TEXT, "stderr": TEXT[::-1]}],
    "leading_dash": [{"stdout": "-n -e x", "stderr": "--"}],
    "nul_and_controls": [{"stdout": "a\x00b\x01\x1b[0m\x7f\t\r\nz", "stderr": "\x00\n"}],
    "non_ascii": [{"stdout": "grüße 中文 ☃ \U0001F600\n", "stderr": "é\n"}],
    "lone_surrogate": [{"stdout": "a\udc80b", "stderr": "c\udc80d \ud800\n"}],
    "unencodable_stdout": [{"stdout": "a\ud800b", "stderr": "never written\n"}],
    "empty_entry": [{}],
    "no_runs": [],
    # exit codes
    **{f"exit_{value!r}": [{"exit": value}]
       for value in (-1, 0, 3, 255, 256, "3", 3.7, None, True, "x", 2**63)},
    # signals
    "SIGABRT": [{"stdout": "before\n", "stderr": "err\n", "signal": "SIGABRT", "exit": 5}],
    "SIGTERM": [{"signal": "SIGTERM"}],
    "SIGQUIT": [{"signal": "SIGQUIT", "exit": 3}],
    "SIGINT": [{"signal": "SIGINT"}],
    "SIGCHLD": [{"signal": "SIGCHLD", "exit": 4}],
    "SIGPIPE": [{"signal": "SIGPIPE", "exit": 5}],
    "SIGXFSZ": [{"signal": "SIGXFSZ", "exit": 6}],
    "SIG_IGN": [{"signal": "SIG_IGN", "exit": 7}],
    "SIG_DFL": [{"signal": "SIG_DFL", "exit": 8}],
    "unknown_signal": [{"stdout": "out\n", "stderr": "err\n", "signal": "SIGFOO", "exit": 9}],
    "NSIG": [{"signal": "NSIG"}],
    "signal_number": [{"signal": 6}],
    "signal_empty": [{"signal": "", "exit": 2}],
    # matching
    "most_specific": [
        {"stdout": "any\n"},
        {"compiler": "cc1", "stdout": "cc1\n"},
        {"compiler": "cc1", "opt": "-O2", "device": "devA", "stdout": "cc1 -O2 devA\n"},
        {"compiler": "cc2", "device": "devA", "stdout": "cc2 devA\n"},
        {"compiler": "*", "target": "*", "opt": "*", "device": "devB", "stdout": "devB\n"},
        {"device": "devB", "opt": "-O3", "stdout": "devB -O3\n"},
        {"device": "devC", "target": "mock-spir", "stdout": "devC spir\n"},
        {"device": "devC", "compiler": "cc1", "stdout": "devC cc1, same score\n"},
    ],
    "odd_device_names": [
        {"device": "it's a *", "stdout": "quoted\n"},
        {"device": "dev*", "stdout": "no glob\n"},
        {"device": "", "stdout": "empty name\n"},
        {"device": "grüße", "stdout": "umlaut\n"},
        {"device": "a\x00b", "stdout": "NUL, never in an environment\n"},
        {"device": "\ud800", "stdout": "no bytes decode to it\n"},
        {"device": None, "stdout": "null matches no device\n"},
        {"device": 1, "stdout": "a number matches no device\n"},
    ],
    # entries the Python binary failed on
    "runs_text": "abc",
    "runs_null": None,
    "runs_object": {"device": "devA"},
    "runs_empty_object": {},
    "entry_not_an_object": [{"device": "devA", "stdout": "x"}, 1],
    "stdout_not_text": [{"stdout": 5}],
    "stderr_not_text": [{"stdout": "out\n", "stderr": ["err"]}],
    # sleep
    "short_sleep": [{"stdout": "a", "stderr": "b", "sleep": "0.05", "exit": 2}],
    "negative_sleep": [{"stdout": "a", "sleep": -1}],
    "nan_sleep": [{"stdout": "a", "sleep": float("nan")}],
    "sleep_text": [{"stdout": "a", "sleep": "soon"}],
    "sleep_past_timeout": [{"device": "devA", "stdout": "partial", "stderr": "err", "sleep": 30}],
}
TIMEOUT_S = {"sleep_past_timeout": 0.5}

# outcomes of the Python binary itself, so the oracle cannot drift unseen
PINNED = {
    ("lone_surrogate", "devZ"): (RunStatus.OK, 0, "a\ufffdb"),
    ("exit_-1", "devZ"): (RunStatus.NONZERO_EXIT, 255, ""),
    ("exit_0", "devZ"): (RunStatus.OK, 0, ""),
    ("exit_3", "devZ"): (RunStatus.NONZERO_EXIT, 3, ""),
    ("exit_255", "devZ"): (RunStatus.NONZERO_EXIT, 255, ""),
    ("exit_256", "devZ"): (RunStatus.OK, 0, ""),
    ("exit_'3'", "devZ"): (RunStatus.NONZERO_EXIT, 3, ""),
    ("exit_3.7", "devZ"): (RunStatus.NONZERO_EXIT, 3, ""),
    ("exit_None", "devZ"): (RunStatus.NONZERO_EXIT, 1, ""),
    ("SIGABRT", "devZ"): (RunStatus.CRASH_SIGNAL, -6, "before\n"),
    ("SIGCHLD", "devZ"): (RunStatus.NONZERO_EXIT, 4, ""),
    ("SIGPIPE", "devZ"): (RunStatus.NONZERO_EXIT, 5, ""),
    ("SIGXFSZ", "devZ"): (RunStatus.NONZERO_EXIT, 6, ""),
    ("SIG_IGN", "devZ"): (RunStatus.CRASH_SIGNAL, -1, ""),
    ("unknown_signal", "devZ"): (RunStatus.NONZERO_EXIT, 1, "out\n"),
    ("sleep_past_timeout", "devA"): (RunStatus.TIMEOUT, -9, "partial"),
}

TRACEBACK = "Traceback (most recent call last):\n"


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """name -> (sh binary from the mock compiler, Python binary from the oracle)."""
    tmp = tmp_path_factory.mktemp("mock_binaries")
    cc = write_mock_compiler(tmp / "mockcc")
    sources = {name: f"int main() {{ /* {name} */ }}\n" for name in CASES}
    table = {
        source_digest(text): {"compile": {"exit": 0}, "runs": CASES[name]}
        for name, text in sources.items()
    }
    table_path = tmp / "table.json"
    table_path.write_text(json.dumps(table, indent=2, sort_keys=True))
    compiler, target, opt = MOCK_COORDS
    toolchain = ToolchainConfig(
        compiler, str(cc), ("--mock-id", compiler),
        (TargetSpec(target, ("--mock-target", target)),), (opt,),
        env={TABLE_ENV: str(table_path)},
    )
    binaries = {}
    for i, (name, text) in enumerate(sources.items()):
        workdir = tmp / f"case{i}"
        workdir.mkdir()
        source = workdir / "case.cpp"
        source.write_text(text)
        result = compile_job(build_matrix(f"case{i}", source, [toolchain], workdir)[0])
        assert result.ok, (name, result.stderr)
        python = write_python_binary(workdir / "python.bin", CASES[name])
        binaries[name] = (Path(result.binary_path), python)
    return binaries


@pytest.mark.parametrize("limits", [RunLimits(), None], ids=["limits", "no_limits"])
@pytest.mark.parametrize("name", list(CASES))
def test_sh_binary_runs_as_the_python_binary_did(built, monkeypatch, name, limits):
    monkeypatch.delenv(DEVICE_ENV, raising=False)
    sh_binary, python_binary = built[name]
    timeout = TIMEOUT_S.get(name, 30.0)
    for device in mock_devices(CASES[name]):
        got = run_mock(sh_binary, device, limits, timeout)
        want = run_mock(python_binary, device, limits, timeout)
        assert (got.status, got.exit_code, got.stdout) == (
            want.status, want.exit_code, want.stdout
        ), (name, device, want.stderr)
        if TRACEBACK in want.stderr:
            # what Python wrote before it raised, then (sh) one error line
            written = want.stderr.partition(TRACEBACK)[0]
            assert got.stderr.startswith(written), (name, device)
            assert got.stderr.count("\n") <= written.count("\n") + 1, (name, device)
        else:
            assert got.stderr == want.stderr, (name, device)
        if (name, device) in PINNED:
            assert (want.status, want.exit_code, want.stdout) == PINNED[name, device]


SHELLS = [
    argv
    for argv in (["dash"], ["bash"], ["bash", "--posix"], ["busybox", "sh"])
    if shutil.which(argv[0])
]


@pytest.mark.parametrize("name", [n for n in CASES if n not in TIMEOUT_S])
def test_sh_binary_writes_the_same_bytes_under_every_shell(built, name):
    if len(SHELLS) < 2:
        pytest.skip("fewer than two POSIX shells installed")
    sh_binary, _ = built[name]
    base = {k: v for k, v in os.environ.items() if k not in (DEVICE_ENV, "BASH_VERSION")}
    for device in mock_devices(CASES[name]):
        env = base if device is None else {**base, DEVICE_ENV: device}
        outcomes = {}
        for shell in SHELLS:
            proc = subprocess.run(
                [*shell, str(sh_binary)], env=env, cwd=sh_binary.parent,
                capture_output=True, timeout=30, start_new_session=True,
            )
            outcomes[" ".join(shell)] = (proc.returncode, proc.stdout, proc.stderr)
        assert len(set(outcomes.values())) == 1, (name, device, outcomes)


def test_resume_runs_binaries_left_in_the_python_format(tmp_path, fixtures_dir):
    """A campaign built by the Python-binary compiler resumes to the same report."""
    config_path = materialize_scenario(build_tiny(), tmp_path / "work")
    campaign_dir = tmp_path / "campaign"
    run_campaign(load_config_file(config_path), campaign_dir, halt_after="matrix")
    store = CampaignStore(campaign_dir)
    table = json.loads((tmp_path / "work" / "tools" / "table.json").read_text())
    replaced = 0
    for path in sorted(campaign_dir.glob("cases/*/results/compile_*.json")):
        result = json.loads(path.read_text())
        if result["status"] != "ok":
            continue
        source = store.source_path(result["case_id"]).read_text()
        record = table.get(source_digest(source)) or table["*"]
        coords = (result["compiler_id"], result["target"], result["opt_level"])
        write_python_binary(Path(result["binary_path"]), record.get("runs", []), coords)
        replaced += 1
    runs = sorted(campaign_dir.glob("cases/*/results/run_*.json"))
    assert replaced and runs
    for path in runs:
        path.unlink()
    resume(campaign_dir)
    assert sorted(campaign_dir.glob("cases/*/results/run_*.json")) == runs
    assert (campaign_dir / "report.json").read_bytes() == (
        fixtures_dir / "golden" / "tiny.report.json"
    ).read_bytes()
