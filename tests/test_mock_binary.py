"""Mock binaries are POSIX sh scripts. Each case below is compiled by the mock
compiler and checked against the Python binary the compiler wrote before
(``tests/fixtures/python_mock_binary.tmpl``, filled with the same record),
run by ``run_job`` with and without limits, and across the installed shells.
Each entry the Python binary failed on is refused where the table is written.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest
from helpers import MOCK_COORDS, assert_refused, mock_devices, run_mock, write_python_binary

from ragfuzz.campaign import CampaignStore, load_config_file, resume, run_campaign
from ragfuzz.mocktool import (
    DEVICE_ENV,
    TABLE_ENV,
    source_digest,
    write_mock_compiler,
    write_mock_table,
)
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
    "empty_entry": [{}],
    "no_runs": [],
    # exit codes
    **{f"exit_{value!r}": [{"exit": value}] for value in (0, 3, 255, "3", 3.7, True)},
    # signals
    "SIGABRT": [{"stdout": "before\n", "stderr": "err\n", "signal": "SIGABRT", "exit": 5}],
    "SIGTERM": [{"signal": "SIGTERM"}],
    "SIGQUIT": [{"signal": "SIGQUIT", "exit": 3}],
    "SIGINT": [{"signal": "SIGINT"}],
    "SIGCHLD": [{"signal": "SIGCHLD", "exit": 4}],
    "SIGPIPE": [{"signal": "SIGPIPE", "exit": 5}],
    "SIGXFSZ": [{"signal": "SIGXFSZ", "exit": 6}],
    "signal_null": [{"signal": None, "exit": 2}],
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
        {"device": "ctl\x01\x02\x1b", "stdout": "control characters\n"},
    ],
    # sleep
    "short_sleep": [{"stdout": "a", "stderr": "b", "sleep": "0.05", "exit": 2}],
    "sleep_past_timeout": [{"device": "devA", "stdout": "partial", "stderr": "err", "sleep": 30}],
}
# entries the Python binary failed on: the table refuses each where it is
# written, naming the field under the record's digest
REFUSED = {
    "unencodable_stdout": ([{"stdout": "a\ud800b", "stderr": "never written\n"}],
                           "runs[0].stdout"),
    **{f"exit_{value!r}": ([{"exit": value}], "runs[0].exit")
       for value in (-1, 256, None, "x", 2**63)},
    "SIG_IGN": ([{"signal": "SIG_IGN", "exit": 7}], "runs[0].signal"),
    "SIG_DFL": ([{"signal": "SIG_DFL", "exit": 8}], "runs[0].signal"),
    "unknown_signal": ([{"stdout": "out\n", "stderr": "err\n", "signal": "SIGFOO", "exit": 9}],
                       "runs[0].signal"),
    "NSIG": ([{"signal": "NSIG"}], "runs[0].signal"),
    "signal_number": ([{"signal": 6}], "runs[0].signal"),
    "signal_empty": ([{"signal": "", "exit": 2}], "runs[0].signal"),
    "runs_text": ("abc", "runs"),
    "runs_null": (None, "runs"),
    "runs_object": ({"device": "devA"}, "runs"),
    "runs_empty_object": ({}, "runs"),
    "entry_not_an_object": ([{"device": "devA", "stdout": "x"}, 1], "runs[1]"),
    "stdout_not_text": ([{"stdout": 5}], "runs[0].stdout"),
    "stderr_not_text": ([{"stdout": "out\n", "stderr": ["err"]}], "runs[0].stderr"),
    "negative_sleep": ([{"stdout": "a", "sleep": -1}], "runs[0].sleep"),
    "nan_sleep": ([{"stdout": "a", "sleep": float("nan")}], "runs[0].sleep"),
    "sleep_text": ([{"stdout": "a", "sleep": "soon"}], "runs[0].sleep"),
}
TIMEOUT_S = {"sleep_past_timeout": 0.5}

# outcomes of the Python binary itself, so the oracle cannot drift unseen
PINNED = {
    ("lone_surrogate", "devZ"): (RunStatus.OK, 0, "a\ufffdb"),
    ("exit_0", "devZ"): (RunStatus.OK, 0, ""),
    ("exit_3", "devZ"): (RunStatus.NONZERO_EXIT, 3, ""),
    ("exit_255", "devZ"): (RunStatus.NONZERO_EXIT, 255, ""),
    ("exit_'3'", "devZ"): (RunStatus.NONZERO_EXIT, 3, ""),
    ("exit_3.7", "devZ"): (RunStatus.NONZERO_EXIT, 3, ""),
    ("SIGABRT", "devZ"): (RunStatus.CRASH_SIGNAL, -6, "before\n"),
    ("SIGCHLD", "devZ"): (RunStatus.NONZERO_EXIT, 4, ""),
    ("SIGPIPE", "devZ"): (RunStatus.NONZERO_EXIT, 5, ""),
    ("SIGXFSZ", "devZ"): (RunStatus.NONZERO_EXIT, 6, ""),
    ("sleep_past_timeout", "devA"): (RunStatus.TIMEOUT, -9, "partial"),
}


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
    table_path = write_mock_table(tmp / "table.json", table)
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
        job = build_matrix(f"case{i}", source, [toolchain], workdir)[0]
        result = compile_job(job)
        assert result.ok, (name, result.stderr)
        python = write_python_binary(workdir / "python.bin", CASES[name])
        binaries[name] = (job.output_path, python)
    return binaries


def refused_table(name: str) -> tuple[dict, str]:
    """A table holding REFUSED[name]'s runs, and the field path it is refused at."""
    runs, field_path = REFUSED[name]
    digest = source_digest(name)
    return {digest: {"compile": {"exit": 0}, "runs": runs}}, f"{digest}.{field_path}"


@pytest.mark.parametrize("limits", [RunLimits(), None], ids=["limits", "no_limits"])
@pytest.mark.parametrize("name", [*CASES, *REFUSED])
def test_sh_binary_runs_as_the_python_binary_did(built, monkeypatch, tmp_path, name, limits):
    if name in REFUSED:  # no binary is built from it
        assert_refused(*refused_table(name), tmp_path)
        return
    monkeypatch.delenv(DEVICE_ENV, raising=False)
    sh_binary, python_binary = built[name]
    timeout = TIMEOUT_S.get(name, 30.0)
    for device in mock_devices(CASES[name]):
        got = run_mock(sh_binary, device, limits, timeout)
        want = run_mock(python_binary, device, limits, timeout)
        want_stderr = want.stderr
        if name == "SIGINT":  # Python wrote a KeyboardInterrupt traceback, then died of SIGINT
            assert want_stderr.endswith("\nKeyboardInterrupt\n")
            want_stderr = ""
        assert (got.status, got.exit_code, got.stdout, got.stderr) == (
            want.status, want.exit_code, want.stdout, want_stderr
        ), (name, device)
        if (name, device) in PINNED:
            assert (want.status, want.exit_code, want.stdout) == PINNED[name, device]


SHELLS = [
    argv
    for argv in (["dash"], ["bash"], ["bash", "--posix"], ["busybox", "sh"])
    if shutil.which(argv[0])
]


@pytest.mark.parametrize("name", [*(n for n in CASES if n not in TIMEOUT_S), *REFUSED])
def test_sh_binary_writes_the_same_bytes_under_every_shell(built, tmp_path, name):
    if name in REFUSED:  # no binary is built from it
        assert_refused(*refused_table(name), tmp_path)
        return
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
    config = load_config_file(materialize_scenario(build_tiny(), tmp_path / "work"))
    campaign_dir = tmp_path / "campaign"
    run_campaign(config, campaign_dir, halt_after="matrix")
    store = CampaignStore(campaign_dir)
    table = json.loads((tmp_path / "work" / "tools" / "table.json").read_text())
    # each cell's binary, where the campaign layout puts it
    binaries = {
        (job.case_id, job.compiler_id, job.target, job.opt_level): job.output_path
        for case in store.all_cases()
        for job in build_matrix(
            case.case_id, store.source_path(case.case_id), config.toolchains,
            store.case_dir(case.case_id) / "build",
        )
    }

    def logged(log: Path, kind: str) -> list[dict]:
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        return [line[kind] for line in lines if kind in line]

    replaced = 0
    logs = sorted(campaign_dir.glob("cases/*/results.jsonl"))
    runs = {log: [run["cell"] for run in logged(log, "run")] for log in logs}
    for log in logs:
        compiles = logged(log, "compile")
        for result in compiles:
            if result["status"] != "ok":
                continue
            source = store.source_path(result["case_id"]).read_text()
            record = table.get(source_digest(source)) or table["*"]
            coords = (result["compiler_id"], result["target"], result["opt_level"])
            binary = binaries[(result["case_id"], *coords)]
            write_python_binary(binary, record.get("runs", []), coords)
            replaced += 1
        # keep the compile lines only, so the resume runs every binary again
        log.write_text("".join(json.dumps({"compile": r}, sort_keys=True) + "\n" for r in compiles))
    assert replaced and any(runs.values())
    resume(campaign_dir)
    assert {log: [run["cell"] for run in logged(log, "run")] for log in logs} == runs
    assert (campaign_dir / "report.json").read_bytes() == (
        fixtures_dir / "golden" / "tiny.report.json"
    ).read_bytes()
