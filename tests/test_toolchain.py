from __future__ import annotations

import dataclasses
import errno
import importlib.util
import json
import os
import random
import runpy
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import mock_devices, run_mock, write_python_binary

from ragfuzz.errors import InvalidInterpreter, ToolNotFound
from ragfuzz.mocktool import (
    DEVICE_ENV,
    TABLE_ENV,
    source_digest,
    table_entry,
    write_mock_compiler,
    write_mock_table,
)
from ragfuzz.toolchain import (
    CellKey,
    CompileStatus,
    DeviceConfig,
    RunJob,
    RunLimits,
    RunStatus,
    TargetSpec,
    ToolchainConfig,
    build_matrix,
    compile_job,
    expand_run_jobs,
    run_job,
)


@pytest.fixture()
def mock_env(tmp_path):
    """A mock compiler plus a one-source fixture table."""
    cc = write_mock_compiler(tmp_path / "bin" / "mockcc")
    source_text = "int main() { return 0; }\n"
    source = tmp_path / "case.cpp"
    source.write_text(source_text)
    table = {
        source_digest(source_text): table_entry(
            runs=[
                {"device": "devA", "stdout": "Output value from device kernel: 1\n"},
                {"device": "devB", "stdout": "Output value from device kernel: 1\n"},
            ]
        )
    }
    table_path = write_mock_table(tmp_path / "table.json", table)
    toolchain = ToolchainConfig(
        compiler_id="cc1",
        executable=str(cc),
        base_flags=("--mock-id", "cc1"),
        targets=(TargetSpec("mock-spir", ("--mock-target", "mock-spir")),),
        opt_levels=("-O0", "-O2"),
        env={TABLE_ENV: str(table_path)},
    )
    return tmp_path, source, source_text, table_path, toolchain


def paper_shaped_toolchains() -> list[ToolchainConfig]:
    """clang++ with one CUDA target; icpx with one CUDA and four SPIR targets."""
    cuda = TargetSpec(
        "nvptx64-nvidia-cuda", ("-fsycl", "-fsycl-targets=nvptx64-nvidia-cuda")
    )
    spir_names = (
        "spir64",
        "spir64_x86_64",
        "spir64-unknown-unknown",
        "spir64_x86_64-unknown-unknown",
    )
    opts = ("-O0", "-O1", "-O2", "-O3")
    clangxx = ToolchainConfig(
        "clang++", "/usr/bin/clang++", ("-fsycl",), (cuda,), opts
    )
    icpx = ToolchainConfig(
        "icpx",
        "/opt/intel/bin/icpx",
        ("-fsycl",),
        (cuda, *(TargetSpec(n, (f"-fsycl-targets={n}",)) for n in spir_names)),
        opts,
    )
    return [clangxx, icpx]


def test_paper_shaped_matrix_has_24_compile_jobs(tmp_path):
    jobs = build_matrix("case0", tmp_path / "case.cpp", paper_shaped_toolchains(), tmp_path)
    assert len(jobs) == 24
    by_compiler = {}
    for job in jobs:
        by_compiler.setdefault(job.compiler_id, []).append(job)
    assert len(by_compiler["clang++"]) == 4
    assert len(by_compiler["icpx"]) == 20


def test_matrix_cardinality_is_product_of_config():
    tc1 = ToolchainConfig("a", "/bin/true", (), (TargetSpec("t1"),), ("-O0", "-O1", "-O2", "-O3"))
    tc2 = ToolchainConfig("b", "/bin/true", (), (TargetSpec("t2"),), ("-O0", "-O1", "-O2", "-O3"))
    jobs = build_matrix("c", Path("s.cpp"), [tc1, tc2], Path("/tmp/x"))
    assert len(jobs) == 8


def test_matrix_ordering_is_deterministic(tmp_path):
    a = build_matrix("c", tmp_path / "s.cpp", paper_shaped_toolchains(), tmp_path)
    b = build_matrix("c", tmp_path / "s.cpp", paper_shaped_toolchains(), tmp_path)
    assert a == b


def test_empty_compatibility_yields_no_run_jobs(mock_env):
    tmp_path, source, _, _, toolchain = mock_env
    job = build_matrix("case0", source, [toolchain], tmp_path / "out")[0]
    result = compile_job(job)
    assert result.ok
    devices = [DeviceConfig("devA", {DEVICE_ENV: "devA"})]
    assert expand_run_jobs(result, devices, {"mock-spir": []}) == []
    assert len(expand_run_jobs(result, devices, {"mock-spir": ["devA"]})) == 1
    assert len(expand_run_jobs(result, devices, None)) == 1


def test_mock_compile_ok(mock_env):
    tmp_path, source, _, _, toolchain = mock_env
    jobs = build_matrix("case0", source, [toolchain], tmp_path / "out")
    result = compile_job(jobs[0])
    assert result.status == CompileStatus.OK
    assert result.binary_path is not None
    assert Path(result.binary_path).exists()


def test_mock_compile_error_captures_stderr(mock_env, tmp_path):
    _, _, _, _, toolchain = mock_env
    bad_text = "int broken( {\n"
    bad = tmp_path / "bad.cpp"
    bad.write_text(bad_text)
    table_path = write_mock_table(
        tmp_path / "bad_table.json",
        {
            source_digest(bad_text): table_entry(
                compile_exit=1,
                compile_stderr="error: use of undeclared identifier 'foo'\n",
            )
        },
    )
    tc = ToolchainConfig(
        toolchain.compiler_id,
        toolchain.executable,
        toolchain.base_flags,
        toolchain.targets,
        toolchain.opt_levels,
        env={TABLE_ENV: str(table_path)},
    )
    job = build_matrix("bad", bad, [tc], tmp_path / "out2")[0]
    result = compile_job(job)
    assert result.status == CompileStatus.ERROR
    assert "error: use of undeclared identifier" in result.stderr
    assert result.binary_path is None


def test_run_captures_stdout(mock_env):
    tmp_path, source, _, _, toolchain = mock_env
    job = build_matrix("case0", source, [toolchain], tmp_path / "out")[0]
    result = compile_job(job)
    run_jobs = expand_run_jobs(result, [DeviceConfig("devA", {DEVICE_ENV: "devA"})], None)
    rr = run_job(run_jobs[0])
    assert rr.status == RunStatus.OK
    assert rr.stdout == "Output value from device kernel: 1\n"
    assert rr.exit_code == 0


def test_run_crash_signal(mock_env, tmp_path):
    _, _, _, _, toolchain = mock_env
    text = "int main() { /* crash fixture */ }\n"
    source = tmp_path / "crash.cpp"
    source.write_text(text)
    table_path = write_mock_table(
        tmp_path / "crash_table.json",
        {source_digest(text): table_entry(runs=[{"signal": "SIGABRT"}])},
    )
    tc = ToolchainConfig(
        "cc1", toolchain.executable, toolchain.base_flags, toolchain.targets,
        ("-O0",), env={TABLE_ENV: str(table_path)},
    )
    job = build_matrix("crash", source, [tc], tmp_path / "out3")[0]
    result = compile_job(job)
    rr = run_job(expand_run_jobs(result, [DeviceConfig("devA")], None)[0])
    assert rr.status == RunStatus.CRASH_SIGNAL
    assert rr.exit_code is not None and rr.exit_code < 0


def test_run_timeout_retains_partial_output(mock_env, tmp_path):
    _, _, _, _, toolchain = mock_env
    text = "int main() { /* sleep fixture */ }\n"
    source = tmp_path / "slow.cpp"
    source.write_text(text)
    table_path = write_mock_table(
        tmp_path / "slow_table.json",
        {source_digest(text): table_entry(runs=[{"stdout": "partial", "sleep": 5.0}])},
    )
    tc = ToolchainConfig(
        "cc1", toolchain.executable, toolchain.base_flags, toolchain.targets,
        ("-O0",), env={TABLE_ENV: str(table_path)},
    )
    job = build_matrix("slow", source, [tc], tmp_path / "out4")[0]
    result = compile_job(job)
    rj = expand_run_jobs(result, [DeviceConfig("devA")], None, timeout=0.8)[0]
    rr = run_job(rj)
    assert rr.status == RunStatus.TIMEOUT
    assert rr.duration >= 0.8
    assert rr.stdout == "partial"


def test_launch_error_for_missing_binary(tmp_path):
    from ragfuzz.toolchain import CellKey, RunJob

    job = RunJob("c", CellKey("cc", "t", "-O0", "d"), str(tmp_path / "missing.bin"))
    rr = run_job(job)
    assert rr.status == RunStatus.LAUNCH_ERROR


def test_probe_rejects_missing_executable(tmp_path):
    tc = ToolchainConfig("ghost", str(tmp_path / "nope"), (), (TargetSpec("t"),))
    with pytest.raises(ToolNotFound):
        tc.probe()


def test_compile_raises_tool_not_found(tmp_path):
    tc = ToolchainConfig("ghost", str(tmp_path / "nope"), (), (TargetSpec("t"),), ("-O0",))
    job = build_matrix("c", tmp_path / "s.cpp", [tc], tmp_path)[0]
    with pytest.raises(ToolNotFound):
        compile_job(job)


def test_compiler_that_cannot_start_raises_tool_not_found(tmp_path):
    cc = tmp_path / "cc"
    cc.write_text("#!/nonexistent/python3\n")
    cc.chmod(0o755)
    tc = ToolchainConfig("ghost", str(cc), (), (TargetSpec("t"),), ("-O0",))
    tc.probe()  # the file exists and is executable: only starting it fails
    job = build_matrix("c", tmp_path / "s.cpp", [tc], tmp_path / "out")[0]
    with pytest.raises(ToolNotFound) as info:
        compile_job(job)
    assert str(info.value) == f"ghost: cannot start {cc}: {info.value.__cause__}"
    assert isinstance(info.value.__cause__, FileNotFoundError)


def test_jobs_use_isolated_workdirs(mock_env):
    tmp_path, source, _, _, toolchain = mock_env
    jobs = build_matrix("case0", source, [toolchain], tmp_path / "out")
    assert len({j.workdir for j in jobs}) == len(jobs)


@pytest.mark.skipif(shutil.which("c++") is None, reason="no live C++ toolchain")
def test_live_toolchain_smoke_all_opt_levels(tmp_path):
    """Plain C++ program against the system compiler at every opt level."""
    source = tmp_path / "hello.cpp"
    source.write_text(
        '#include <iostream>\nint main() { std::cout << "Output value from device '
        'kernel: 1" << std::endl; return 0; }\n'
    )
    tc = ToolchainConfig(
        "systemcxx",
        shutil.which("c++"),
        (),
        (TargetSpec("native"),),
        ("-O0", "-O1", "-O2", "-O3"),
    )
    tc.probe()
    for job in build_matrix("hello", source, [tc], tmp_path / "out"):
        result = compile_job(job)
        assert result.status == CompileStatus.OK, result.stderr
        rr = run_job(expand_run_jobs(result, [DeviceConfig("host")], None)[0])
        assert rr.status == RunStatus.OK
        assert "Output value from device kernel: 1" in rr.stdout


def test_non_utf8_program_output_is_replaced_not_raised(tmp_path):
    from ragfuzz.toolchain import CellKey, RunJob

    binary = tmp_path / "binary.sh"
    binary.write_text("#!/bin/sh\nprintf 'bad \\377 out'\nprintf '\\376' >&2\n")
    binary.chmod(0o755)
    rr = run_job(RunJob("c", CellKey("cc", "t", "-O0", "d"), str(binary)))
    assert rr.status == RunStatus.OK
    assert rr.stdout == "bad \ufffd out"
    assert rr.stderr == "\ufffd"


# --- the run sandbox ----------------------------------------------------------


def _run_file(path: Path, content: bytes, limits: RunLimits | None, timeout: float = 30.0):
    """Run an executable file holding ``content`` as a run job."""
    path.write_bytes(content)
    path.chmod(0o755)
    return run_job(RunJob("c", CellKey("cc", "t", "-O0", "d"), str(path), timeout=timeout), limits)


def test_run_binary_gets_the_configured_limits_in_its_own_session(tmp_path):
    reader = (
        f"#!{sys.executable} -IS\n"
        "import os\n"
        "with open('/proc/self/limits') as fh:\n"
        "    for line in fh:\n"
        "        if line.startswith(('Max address space', 'Max file size')):\n"
        "            print(*line.split()[-3:-1])\n"
        "print(os.getsid(0) == os.getpid(), os.getppid())\n"
    )
    rr = _run_file(
        tmp_path / "limits.bin", reader.encode(),
        RunLimits(address_space_mb=1536, file_size_mb=3),
    )
    assert rr.status == RunStatus.OK, rr.stderr
    as_bytes, fs_bytes = 1536 * 1024 * 1024, 3 * 1024 * 1024
    assert rr.stdout == (
        f"{fs_bytes} {fs_bytes}\n{as_bytes} {as_bytes}\nTrue {os.getpid()}\n"
    )


def test_file_size_flood_ends_as_crash_signal(tmp_path):
    # exec: the binary's own process writes, so SIGXFSZ ends the run itself
    flood = b"#!/bin/sh\nexec head -c 3145728 /dev/zero > flood.out\n"
    rr = _run_file(tmp_path / "flood.bin", flood, RunLimits(file_size_mb=1))
    assert rr.status == RunStatus.CRASH_SIGNAL, rr
    assert rr.exit_code == -signal.SIGXFSZ
    assert (tmp_path / "flood.out").stat().st_size == 1024 * 1024


def test_timeout_under_limits_kills_the_binary_and_its_children(tmp_path):
    # the background sleep holds the pipes open: only a group kill ends the run
    slow = b"#!/bin/sh\necho partial\nsleep 30 &\nexec sleep 30\n"
    rr = _run_file(tmp_path / "slow.bin", slow, RunLimits(), timeout=0.5)
    assert rr.status == RunStatus.TIMEOUT
    assert rr.exit_code == -signal.SIGKILL
    assert rr.stdout == "partial\n"
    assert 0.5 <= rr.duration < 10


def test_exit_127_of_the_binary_itself_stays_nonzero_exit(tmp_path):
    lookalike = (
        b"#!/bin/sh\necho 'prlimit: failed to execute elsewhere: "
        b"No such file or directory' >&2\nexit 127\n"
    )
    rr = _run_file(tmp_path / "lookalike.bin", lookalike, RunLimits())
    assert (rr.status, rr.exit_code) == (RunStatus.NONZERO_EXIT, 127)


def test_native_elf_binary_runs_under_limits():
    true = shutil.which("true")
    rr = run_job(RunJob("c", CellKey("cc", "t", "-O0", "d"), true), RunLimits())
    assert (rr.status, rr.exit_code) == (RunStatus.OK, 0)


with open("/proc/self/exe", "rb") as _fh:
    _HOST_ELF_HEADER = _fh.read(64)
_PHNUM = 56 if _HOST_ELF_HEADER[4] == 2 else 44  # offset of e_phnum

# each file also holds "echo pwned", which a shell would print
_UNLAUNCHABLE = {
    "missing_interpreter": (b"#!/nonexistent/interpreter\necho pwned\n", errno.ENOENT),
    "interpreter_not_executable": (b"#!/proc/self/status\necho pwned\n", errno.EACCES),
    "no_interpreter_name": (b"#! \t\necho pwned\n", errno.ENOEXEC),
    # the interpreter is the no_shebang file next to it
    "interpreter_without_format": (b"#!./no_shebang.bin\necho pwned\n", errno.ENOEXEC),
    "elf_junk": (b"\x7fELFjunk\necho pwned\n", errno.ENOEXEC),
    "foreign_elf": (
        _HOST_ELF_HEADER[:18] + b"\xfe\xfe" + _HOST_ELF_HEADER[20:] + b"\necho pwned\n",
        errno.ENOEXEC,
    ),
    "no_shebang": (b"echo pwned\n", errno.ENOEXEC),
    # the kernel reads the host header, then finds no program headers
    "elf_without_program_headers": (
        _HOST_ELF_HEADER[:_PHNUM] + b"\0\0" + _HOST_ELF_HEADER[_PHNUM + 2 :] + b"\necho pwned\n",
        errno.ENOEXEC,
    ),
}


@pytest.mark.parametrize("limits", [RunLimits(), None], ids=["limits", "no_limits"])
@pytest.mark.parametrize("name", sorted(_UNLAUNCHABLE))
def test_unlaunchable_binary_is_a_launch_error_and_never_shell_run(tmp_path, name, limits):
    content, code = _UNLAUNCHABLE[name]
    interpreter = tmp_path / "no_shebang.bin"
    interpreter.write_bytes(_UNLAUNCHABLE["no_shebang"][0])
    interpreter.chmod(0o755)
    path = tmp_path / f"{name}.bin"
    rr = _run_file(path, content, limits)
    assert rr.status == RunStatus.LAUNCH_ERROR, rr
    assert (rr.exit_code, rr.stdout, rr.duration) == (None, "", 0.0)
    assert rr.stderr == str(OSError(code, os.strerror(code), str(path)))


def test_run_with_limits_needs_prlimit_on_the_harness_path(tmp_path, monkeypatch):
    import ragfuzz.toolchain as toolchain

    monkeypatch.setattr(shutil, "which", lambda name: None)
    toolchain.prlimit_path.cache_clear()
    try:
        with pytest.raises(ToolNotFound, match="prlimit"):
            _run_file(tmp_path / "ok.bin", b"#!/bin/sh\necho ok\n", RunLimits())
    finally:
        toolchain.prlimit_path.cache_clear()


def _compile_and_run(source, toolchain, out_dir, env):
    """Compile with the toolchain and run on devA, both with ``env`` added."""
    toolchain = dataclasses.replace(toolchain, env={**toolchain.env, **env})
    result = compile_job(build_matrix("case0", source, [toolchain], out_dir)[0])
    assert result.status == CompileStatus.OK, result.stderr
    device = DeviceConfig("devA", {DEVICE_ENV: "devA", **env})
    return result, run_job(expand_run_jobs(result, [device], None)[0])


def test_mock_compiler_starts_under_this_interpreter_isolated(mock_env):
    tmp_path, source, _, _, toolchain = mock_env
    with open(toolchain.executable) as fh:
        assert fh.readline() == f"#!{sys.executable} -IS\n"
    result, rr = _compile_and_run(source, toolchain, tmp_path / "out", {})
    with open(result.binary_path) as fh:
        assert fh.readline() == "#!/bin/sh\n"
    assert rr.stdout == "Output value from device kernel: 1\n"


def test_mock_toolchain_needs_no_python3_on_path(mock_env):
    tmp_path, source, _, _, toolchain = mock_env
    empty_bin = tmp_path / "empty_bin"
    empty_bin.mkdir()
    _, rr = _compile_and_run(source, toolchain, tmp_path / "out", {"PATH": str(empty_bin)})
    assert rr.status == RunStatus.OK
    assert rr.stdout == "Output value from device kernel: 1\n"


def test_mock_toolchain_ignores_pythonpath(mock_env):
    tmp_path, source, _, _, toolchain = mock_env
    poisoned = tmp_path / "poisoned"
    poisoned.mkdir()
    (poisoned / "json.py").write_text("raise ImportError('poisoned json')\n")
    _, rr = _compile_and_run(
        source, toolchain, tmp_path / "out", {"PYTHONPATH": str(poisoned)}
    )
    assert rr.status == RunStatus.OK
    assert rr.stdout == "Output value from device kernel: 1\n"


@pytest.mark.parametrize(
    "interpreter",
    ["python3", "/opt/my python/bin/python3", "/" + "p" * 255, "/" + "p" * 250],
)
def test_unusable_interpreter_path_is_rejected(tmp_path, monkeypatch, interpreter):
    monkeypatch.setattr(sys, "executable", interpreter)
    with pytest.raises(InvalidInterpreter, match="shebang"):
        write_mock_compiler(tmp_path / "mockcc")
    assert not (tmp_path / "mockcc").exists()


def _compile_with_table(tmp_path, toolchain, name, runs):
    """Compile a fresh source whose table record holds ``runs``."""
    text = f"int main() {{ /* {name} */ }}\n"
    source = tmp_path / f"{name}.cpp"
    source.write_text(text)
    table_path = write_mock_table(
        tmp_path / f"{name}_table.json", {source_digest(text): table_entry(runs=runs)}
    )
    toolchain = dataclasses.replace(
        toolchain, opt_levels=("-O0",), env={TABLE_ENV: str(table_path)}
    )
    result = compile_job(build_matrix(name, source, [toolchain], tmp_path / name)[0])
    assert result.status == CompileStatus.OK, result.stderr
    return result, table_path


def _run_on(result, device_id):
    device = DeviceConfig(device_id, {DEVICE_ENV: device_id})
    return run_job(expand_run_jobs(result, [device], None)[0])


def test_baked_run_entry_text_comes_back_byte_exact(mock_env, tmp_path):
    _, _, _, _, toolchain = mock_env
    text = (
        "@@DE@@ @@RUNS@@ @@PY@@ @@C@@ \"double\" 'single' '''triple\"\"\" "
        "back\\slash \\n \\\\ \\x00 grüße 中文 ☃\nsecond line\n"
    )
    result, _ = _compile_with_table(
        tmp_path, toolchain, "verbatim",
        [{"device": "devA", "stdout": text, "stderr": text[::-1], "exit": 3}],
    )
    rr = _run_on(result, "devA")
    assert rr.status == RunStatus.NONZERO_EXIT and rr.exit_code == 3
    assert rr.stdout == text
    assert rr.stderr == text[::-1]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_baked_run_entry_may_hold_nan_and_infinity(mock_env, tmp_path, constant):
    _, _, _, _, toolchain = mock_env
    value = float(constant.replace("Infinity", "inf"))
    result, table_path = _compile_with_table(
        tmp_path, toolchain, "constants", [{"stdout": "hi\n", "extra": value}]
    )
    assert f'"extra": {constant}' in table_path.read_text()
    rr = _run_on(result, "devA")
    assert (rr.status, rr.stdout, rr.stderr) == (RunStatus.OK, "hi\n", "")


def test_binary_keeps_its_compile_time_run_entries(mock_env, tmp_path):
    _, _, _, _, toolchain = mock_env
    result, table_path = _compile_with_table(
        tmp_path, toolchain, "baked",
        [
            {"device": "devA", "stdout": "Output value from device kernel: 1\n"},
            {"device": "devB", "stdout": "Output value from device kernel: 2\n"},
        ],
    )
    write_mock_table(table_path, {})
    assert _run_on(result, "devA").stdout == "Output value from device kernel: 1\n"
    assert _run_on(result, "devB").stdout == "Output value from device kernel: 2\n"
    assert _run_on(result, "devC").stdout == "mock run ok\n"


def test_binaries_run_with_an_empty_path(mock_env, tmp_path):
    _, _, _, _, toolchain = mock_env
    result, _ = _compile_with_table(
        tmp_path, toolchain, "no_path",
        [
            {"device": "devA", "stdout": "Output value from device kernel: 1\n"},
            {"device": "devB", "stdout": "slept\n", "sleep": 0.05, "exit": 3},
            {"device": "devC", "signal": "SIGQUIT"},
        ],
    )
    empty_bin = tmp_path / "empty_bin"
    empty_bin.mkdir()
    outcomes = []
    for device in ("devA", "devB", "devC"):
        env = {DEVICE_ENV: device, "PATH": str(empty_bin)}
        rr = run_job(expand_run_jobs(result, [DeviceConfig(device, env)], None)[0])
        outcomes.append((rr.status, rr.exit_code, rr.stdout, rr.stderr))
    assert outcomes == [
        (RunStatus.OK, 0, "Output value from device kernel: 1\n", ""),
        (RunStatus.NONZERO_EXIT, 3, "slept\n", ""),  # by the path of sleep baked in
        (RunStatus.CRASH_SIGNAL, -signal.SIGQUIT, "", ""),
    ]


def _imported(importtime_log: str) -> set[str]:
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_log.splitlines()
        if line.startswith("import time:")
    }


# --- the mock compiler's table decode --------------------------------------


def _load_compiler(path) -> dict:
    """The compiler script's functions, without running its main()."""
    return runpy.run_path(str(path), run_name="mockcc")


# runs the compiler script with its table decode swapped for json.loads, the
# decode it used before it read the table with _json's scanner
_JSON_LOADS_PRELUDE = (
    "import json, sys; sys.argv = sys.argv[1:]; g = {'__name__': 'mockcc'}; "
    "exec(compile(open(sys.argv[0]).read(), sys.argv[0], 'exec'), g); "
    "g['load_table'] = json.loads; g['main']()"
)


def _drive(cc, table_text, source_text, workdir, json_loads=False):
    """Compile one source against a table given as text: (exit, stdout, stderr, binary)."""
    workdir.mkdir(parents=True)
    source = workdir / "case.cpp"
    source.write_text(source_text)
    table = workdir / "table.json"
    table.write_text(table_text)
    out = workdir / "case.bin"
    launch = [sys.executable, "-IS", "-c", _JSON_LOADS_PRELUDE] if json_loads else []
    proc = subprocess.run(
        [*launch, str(cc), "--mock-id", "cc1", "--mock-target", "mock-spir", "-O2",
         str(source), "-o", str(out)],
        env={**os.environ, TABLE_ENV: str(table)},
        capture_output=True,
        timeout=30,
    )
    binary = out.read_bytes() if out.exists() else None
    return proc.returncode, proc.stdout, proc.stderr, binary


def _splice_duplicate(text: str, key: str, record) -> str:
    """Append a second top-level ``key`` to an indent=2 table text, by hand."""
    member = json.dumps({key: record}, indent=2)[1:-2]  # '\n  "key": ...'
    return text[:-2] + "," + member + "\n}"


_TRICKY_SOURCES = {
    name: f"int main() {{ /* {name} */ }}\n"
    for name in ("pair", "lone", "markers", "empty", "constants", "dup", "absent")
}


def _tricky_tables() -> dict[str, str]:
    """Tables whose strings, numbers and keys stress the compiler's decode."""
    d = {name: source_digest(text) for name, text in _TRICKY_SOURCES.items()}
    records = {
        d["pair"]: {
            "compile": {"stdout": "pair \U0001F600\n", "stderr": "\U0001F600\n"},
            "runs": [{"device": "devA", "\U0001F600 key": "\U0001F600", "stdout": "\U0001F600"}],
        },
        "\U0001F600": {"compile": {"exit": 7}},
        d["lone"]: {
            "compile": {"stderr": "lone \ud800 \udfff\n"},
            "runs": [{"stdout": "\udc80", "stderr": "\ud83d"}],
        },
        d["markers"]: {
            "compile": {
                "stdout": '\n  "' + d["pair"] + '": {}\n}',
                "stderr": "@@DE@@ @@RUNS@@ @@PY@@\n",
            },
            "runs": [{"stdout": ',\n  "x": @@DE@@\n}', "device": "@@C@@"}],
        },
        d["empty"]: {},
        d["constants"]: {
            "compile": {"exit": 0},
            "runs": [{"stdout": "ok", "extra": [float("inf"), float("-inf"), float("nan"),
                                                123456789012345678901234567890, 1e-310]}],
        },
        d["dup"]: {"compile": {"stdout": "first, overridden\n"}},
    }
    star = {"*": {"compile": {"stdout": "star\n", "stderr": ""}, "runs": [{"stdout": "*"}]}}
    tables = {}
    for label, table in (("star", {**records, **star}), ("nostar", records)):
        text = json.dumps(table, indent=2, sort_keys=True)
        tables[label] = _splice_duplicate(
            text, d["dup"], {"compile": {"stdout": "last one wins\n"}, "runs": [{"stdout": "2"}]}
        )
    # the last duplicate is falsy: json.loads keeps {} and falls to "*"
    tables["dup_falsy"] = _splice_duplicate(tables["star"], d["dup"], {})
    tables["compact"] = json.dumps(json.loads(tables["star"]))
    return tables


def _outcome(binary: Path, device) -> tuple:
    rr = run_mock(binary, device)
    return rr.status, rr.exit_code, rr.stdout, rr.stderr


def _oracle_outcome(oracle: Path, runs, device, cache: dict) -> tuple:
    key = (repr(runs), device)
    if key not in cache:
        cache[key] = _outcome(oracle, device)
    return cache[key]


def test_compiler_decodes_tables_exactly_as_json_loads(mock_env, tmp_path):
    _, _, _, _, toolchain = mock_env
    cc = toolchain.executable
    oracles = {}
    load_table = _load_compiler(cc)["load_table"]
    for label, text in _tricky_tables().items():
        table = json.loads(text)
        assert repr(load_table(text)) == repr(table), label
        for name, source_text in _TRICKY_SOURCES.items():
            digest = source_digest(source_text)
            expected = table.get(digest) or table.get("*")
            got = _drive(cc, text, source_text, tmp_path / label / name)
            want = _drive(cc, text, source_text, tmp_path / label / f"{name}_ref", json_loads=True)
            assert got == want, (label, name)
            code, _stdout, stderr, binary = got
            if expected is None:
                assert code == 90 and binary is None, (label, name)
                assert stderr == b"mockcc: no fixture entry for source %s\n" % digest[:12].encode()
                continue
            assert code == 0, (label, name, stderr)
            # the binary runs as pick() over the json.loads record did in
            # the Python binary, on each device the record names and others
            runs = expected.get("runs", [])
            workdir = tmp_path / label / name
            oracle = write_python_binary(workdir / "python.bin", runs)
            for device in mock_devices(runs):
                assert _outcome(workdir / "case.bin", device) == _oracle_outcome(
                    oracle, runs, device, oracles
                ), (label, name, device)


def test_compiler_decodes_the_table_without_json(mock_env, monkeypatch):
    _, _, _, _, toolchain = mock_env
    load_table = _load_compiler(toolchain.executable)["load_table"]
    tables = _tricky_tables()
    expected = {label: repr(json.loads(text)) for label, text in tables.items()}
    monkeypatch.setitem(sys.modules, "json", None)  # any json.loads fallback now raises
    for label, text in tables.items():
        assert repr(load_table(text)) == expected[label], label
    for bad in (tables["star"][:-1], tables["star"] + "{}", "[]", ""):
        with pytest.raises(ImportError):  # json.loads gets what the scanner will not take
            load_table(bad)


def _fuzz_value(rng: random.Random, depth: int):
    strings = ["", "a", '"', "\\", "\n", "\t", "\x00", "\U0001F600", "\ud800", "@@DE@@",
               '\n  "', ',\n  "', "\n}", "*", "compile"]
    kind = rng.randrange(9 if depth < 3 else 6)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([0, -1, 7, 10**30, -(10**25)])
    if kind == 2:
        return rng.choice([0.5, -2.25, 1e300, float("inf"), float("-inf"), float("nan")])
    if kind in (3, 4, 5):
        return "".join(rng.choice(strings) for _ in range(rng.randrange(4)))
    if kind in (6, 7):
        return [_fuzz_value(rng, depth + 1) for _ in range(rng.randrange(3))]
    keys = strings + [source_digest(str(rng.randrange(4)))]
    return {rng.choice(keys): _fuzz_value(rng, depth + 1) for _ in range(rng.randrange(3))}


def _outcome(decode, text: str) -> str:
    try:
        return repr(decode(text))
    except Exception as exc:  # noqa: BLE001 - the error is part of the outcome
        return f"{type(exc).__name__}: {exc}"


def test_compiler_decode_matches_json_loads_on_fuzzed_tables(mock_env):
    _, _, _, _, toolchain = mock_env
    load_table = _load_compiler(toolchain.executable)["load_table"]
    rng = random.Random(20260417)
    digests = [source_digest(str(i)) for i in range(5)]
    for _ in range(300):
        table = {}
        for key in rng.sample(digests + ["*"], rng.randrange(1, 6)):
            table[key] = rng.choice(
                [{}, None, 0, [], "", table_entry(), _fuzz_value(rng, 0), _fuzz_value(rng, 0)]
            )
        text = rng.choice([
            json.dumps(table, indent=2, sort_keys=True),
            json.dumps(table, indent=4),
            json.dumps(table),
        ])
        if text.startswith('{\n  "') and rng.random() < 0.3:
            text = _splice_duplicate(text, rng.choice(digests), _fuzz_value(rng, 0))
        edit = rng.randrange(6)
        if edit == 0:  # cut short, as by an interrupted write
            text = text[: rng.randrange(len(text))]
        elif edit == 1:
            text = rng.choice([" \n", "\t", "﻿", "\x0c"]) + text + rng.choice(["", "\r\n", " x"])
        elif edit == 2:
            text = json.dumps(_fuzz_value(rng, 0))  # a top level that may not be an object
        assert _outcome(load_table, text) == _outcome(json.loads, text), text


def test_cut_short_table_fails_as_with_json_loads(mock_env, tmp_path):
    _, _, source_text, _, toolchain = mock_env
    text = json.dumps({source_digest(source_text): table_entry()}, indent=2)
    cut = text[: len(text) // 2]
    got = _drive(toolchain.executable, cut, source_text, tmp_path / "got")
    want = _drive(toolchain.executable, cut, source_text, tmp_path / "want", json_loads=True)
    assert got[0] == want[0] == 1 and got[3] is None
    last_line = [proc[2].decode().splitlines()[-1] for proc in (got, want)]
    assert last_line[0] == last_line[1]
    assert last_line[0].startswith("json.decoder.JSONDecodeError: ")


@pytest.mark.parametrize("layout", ["compact", "indent4", "star_only"])
def test_compact_indented_and_star_only_tables_compile(mock_env, tmp_path, layout):
    _, source, source_text, _, toolchain = mock_env
    record = table_entry(runs=[{"device": "devA", "stdout": f"{layout}\n"}])
    if layout == "star_only":
        table = {"*": record}
    else:
        table = {source_digest(source_text): record, source_digest("other"): table_entry(1)}
    table_path = tmp_path / f"{layout}.json"
    table_path.write_text(json.dumps(table, indent=4 if layout == "indent4" else None))
    toolchain = dataclasses.replace(toolchain, env={TABLE_ENV: str(table_path)})
    result, rr = _compile_and_run(source, toolchain, tmp_path / "out", {})
    assert result.status == CompileStatus.OK
    assert rr.stdout == f"{layout}\n"


def test_compiler_exit_codes_91_and_90(mock_env, tmp_path):
    _, source, _, table_path, toolchain = mock_env
    cc = toolchain.executable
    out = str(tmp_path / "a.out")
    env = {k: v for k, v in os.environ.items() if k != TABLE_ENV}
    no_table = subprocess.run([cc, str(source), "-o", out], env=env, capture_output=True,
                              text=True, timeout=30)
    no_source = subprocess.run([cc, "-o", out], env={**env, TABLE_ENV: str(table_path)},
                               capture_output=True, text=True, timeout=30)
    for proc in (no_table, no_source):
        assert proc.returncode == 91
        assert proc.stderr == "mockcc: missing fixture table or source file\n"
    stranger = tmp_path / "stranger.cpp"
    stranger.write_text("int stranger;\n")
    no_record = subprocess.run([cc, str(stranger), "-o", out],
                               env={**env, TABLE_ENV: str(table_path)},
                               capture_output=True, text=True, timeout=30)
    assert no_record.returncode == 90
    digest = source_digest("int stranger;\n")
    assert no_record.stderr == f"mockcc: no fixture entry for source {digest[:12]}\n"
    assert not os.path.exists(out)


def test_compile_entry_that_sleeps_times_out(mock_env, tmp_path):
    _, source, source_text, _, toolchain = mock_env
    record = table_entry()
    record["compile"]["sleep"] = 5
    table_path = write_mock_table(tmp_path / "slow.json", {source_digest(source_text): record})
    toolchain = dataclasses.replace(toolchain, env={TABLE_ENV: str(table_path)})
    job = build_matrix("slow", source, [toolchain], tmp_path / "slow", timeout=0.5)[0]
    result = compile_job(job)
    assert result.status == CompileStatus.TIMEOUT
    assert result.binary_path is None
    assert result.duration < 4


def _compiler_imports(cc, source, table_path, tmp_path) -> set[str]:
    """Modules the compiler imports, ``time`` included although start-up loads it."""
    # the interpreter's own start-up imports time (zipimport), so the log
    # cannot show the script's import of it; drop it and log from a marker on
    prelude = (
        "import sys; sys.modules.pop('time', None); sys.argv = sys.argv[1:]; "
        "sys.stderr.write('-- mockcc --\\n'); sys.stderr.flush(); "
        "exec(compile(open(sys.argv[0]).read(), sys.argv[0], 'exec'), {'__name__': '__main__'})"
    )
    proc = subprocess.run(
        [sys.executable, "-IS", "-X", "importtime", "-c", prelude, str(cc), str(source),
         "-o", str(tmp_path / "a.out")],
        env={**os.environ, TABLE_ENV: str(table_path)},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    return _imported(proc.stderr.split("-- mockcc --\n", 1)[1])


def test_compiler_imports_no_json_re_enum_or_time_at_2000_entries(mock_env, tmp_path):
    _, source, source_text, _, toolchain = mock_env
    table = {source_digest(f"filler {i}"): table_entry(runs=[{"stdout": f"{i}\n"}])
             for i in range(1999)}
    table[source_digest(source_text)] = table_entry(runs=[{"device": "devA", "stdout": "1\n"}])
    table_path = write_mock_table(tmp_path / "big.json", table)
    imported = _compiler_imports(toolchain.executable, source, table_path, tmp_path)
    assert imported.isdisjoint({"json", "re", "enum", "time"}), sorted(imported)
    private_sha = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))
    assert ("hashlib" in imported) == (not private_sha), sorted(imported)
    assert "_json" in imported  # the C scanner decoded the table

    # the log does show time when the compile entry sleeps
    record = table_entry()
    record["compile"]["sleep"] = 0.01
    slow = write_mock_table(tmp_path / "slow.json", {source_digest(source_text): record})
    assert "time" in _compiler_imports(toolchain.executable, source, slow, tmp_path)
