from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from helpers import (
    assert_same_compile,
    compile_outcome,
    mock_devices,
    run_mock,
    write_python_binary,
    write_python_compiler,
)

from ragfuzz.errors import ToolNotFound
from ragfuzz.mocktool import (
    DEVICE_ENV,
    TABLE_ENV,
    source_digest,
    table_entry,
    translate_mock_table,
    write_mock_compiler,
    write_mock_table,
)
from ragfuzz.toolchain import (
    OUTPUT_CAP,
    CellKey,
    CompileStatus,
    DeviceConfig,
    JobLauncher,
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
    with pytest.raises(ToolNotFound, match="'/nonexistent/python3'"):
        tc.probe()  # the file exists and is executable; its interpreter does not
    job = build_matrix("c", tmp_path / "s.cpp", [tc], tmp_path / "out")[0]
    with pytest.raises(ToolNotFound) as info:
        compile_job(job)
    assert str(info.value) == f"ghost: cannot start {cc}: {info.value.__cause__}"
    assert isinstance(info.value.__cause__, FileNotFoundError)


def test_probe_follows_the_interpreter_chain(tmp_path):
    def script(name, interpreter, mode=0o755):
        path = tmp_path / name
        path.write_text(f"#!{interpreter} -x\n")
        path.chmod(mode)
        return path

    def probe(executable):
        ToolchainConfig("cc", str(executable), (), (TargetSpec("t"),), ("-O0",)).probe()

    # a script run by a script run by sh starts, as the kernel starts it
    probe(script("outer", script("inner", "/bin/sh")))
    not_executable = script("not_executable", "/bin/sh", mode=0o644)
    for name, interpreter in (("deep", not_executable), ("bare", "")):
        cc = script(name, script(f"{name}_via", interpreter))
        with pytest.raises(ToolNotFound, match=f"cannot start {cc}: the interpreter"):
            probe(cc)


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


# --- how a job starts: output capture, deadline, environment, launch check ---


def test_flood_on_both_streams_is_capped_drained_and_hashed(tmp_path):
    # one child writes 3 MB to each stream, alternating 64 KB blocks; the
    # two floods share their first OUTPUT_CAP bytes and differ in the last
    size, block = 3 * 1024 * 1024, 65536

    def flooder(last: bytes) -> bytes:
        return (
            f"#!{sys.executable} -IS\n"
            "import os\n"
            f"for start in range(0, {size}, {block}):\n"
            "    for fd, fill in ((1, b'o'), (2, b'e')):\n"
            f"        data = fill * {block}\n"
            f"        if start + {block} == {size}:\n"
            f"            data = data[:-1] + {last!r}\n"
            "        view = memoryview(data)\n"
            "        while view:\n"
            "            view = view[os.write(fd, view):]\n"
        ).encode()

    results = [
        _run_file(tmp_path / f"flood{tag}.bin", flooder(tag.encode()), None) for tag in "AB"
    ]
    for tag, rr in zip("AB", results):
        assert (rr.status, rr.exit_code) == (RunStatus.OK, 0)
        for name, fill, text in (("stdout", b"o", rr.stdout), ("stderr", b"e", rr.stderr)):
            whole = fill * (size - 1) + tag.encode()
            assert text == (
                fill.decode() * OUTPUT_CAP
                + f"\n[harness] {name} truncated: kept the first {OUTPUT_CAP} of {size} "
                f"bytes, sha256 {hashlib.sha256(whole).hexdigest()}\n"
            )
    assert results[0].stdout != results[1].stdout
    assert results[0].stderr != results[1].stderr


def test_output_up_to_the_cap_is_kept_whole(tmp_path):
    script = f"#!/bin/sh\nexec head -c {OUTPUT_CAP} /dev/zero\n".encode()
    rr = _run_file(tmp_path / "at_cap.bin", script, None)
    assert rr.status == RunStatus.OK
    assert rr.stdout == "\0" * OUTPUT_CAP


def test_program_that_writes_without_pause_still_times_out(tmp_path, monkeypatch):
    import select

    make_poll, started = select.poll, time.monotonic()

    class NeverSilent:
        """A poll that waits on through silence, as if the program never
        paused: the deadline must be checked at wakeups that bring data."""

        def __init__(self):
            self._poll = make_poll()
            self.register, self.unregister = self._poll.register, self._poll.unregister

        def poll(self, timeout_ms=None):
            assert time.monotonic() - started < 10, "the deadline went unchecked"
            while not (events := self._poll.poll(timeout_ms)):
                pass
            return events

    monkeypatch.setattr(select, "poll", NeverSilent)
    chatter = b"#!/bin/sh\nwhile :; do echo x; done\n"
    for limits in (RunLimits(), None):
        rr = _run_file(tmp_path / "chatter.bin", chatter, limits, timeout=0.5)
        assert rr.status == RunStatus.TIMEOUT, rr.status
        assert rr.exit_code == -signal.SIGKILL
        assert 0.5 <= rr.duration < 5
        assert rr.stdout.startswith("x\nx\n")


def test_interleaved_streams_past_a_pipe_buffer_come_back_byte_exact(tmp_path):
    lines = 25000  # ~240 KB a stream, near four times a pipe's 64 KB
    writer = (
        "#!/bin/sh\ni=0\n"
        f"while [ $i -lt {lines} ]; do\n"
        "  echo \"out $i\"\n  echo \"err $i\" >&2\n  i=$((i + 1))\n"
        "done\nprintf 'a\\r\\nb\\rc'\n"
    ).encode()
    rr = _run_file(tmp_path / "interleaved.bin", writer, None)
    assert rr.status == RunStatus.OK
    assert rr.stdout == "".join(f"out {i}\n" for i in range(lines)) + "a\nb\nc"
    assert rr.stderr == "".join(f"err {i}\n" for i in range(lines))
    assert len(rr.stderr) > 200_000


def _env_binary(tmp_path) -> Path:
    """A run binary that prints, in hex, the environment it was started with."""
    binary = tmp_path / "env.bin"
    binary.write_text(
        f"#!{sys.executable} -IS\n"
        "with open('/proc/self/environ', 'rb') as fh:\n"
        "    print(fh.read().hex())\n"
    )
    binary.chmod(0o755)
    return binary


def _printed_env(rr) -> dict[bytes, bytes]:
    assert rr.status == RunStatus.OK, rr
    entries = bytes.fromhex(rr.stdout).split(b"\0")[:-1]
    return dict(entry.split(b"=", 1) for entry in entries)


def test_job_sees_the_harness_environment_overlaid_with_its_env(tmp_path, monkeypatch):
    monkeypatch.setenv("RAGFUZZ_TEST_HARNESS", "harness")
    monkeypatch.setenv(DEVICE_ENV, "from the harness")
    binary, launcher = _env_binary(tmp_path), JobLauncher()
    cell = CellKey("cc", "t", "-O0", "devA")
    seen = {}
    for device in ("devA", "devB"):
        env = {DEVICE_ENV: device, "RAGFUZZ_TEST_JOB": device}
        rr = run_job(RunJob("c", cell, str(binary), env=env), RunLimits(), launcher)
        seen[device] = _printed_env(rr)
        assert seen[device] == {**os.environb, **{k.encode(): v.encode() for k, v in env.items()}}
        assert seen[device][b"RAGFUZZ_TEST_HARNESS"] == b"harness"
    assert seen["devA"][DEVICE_ENV.encode()] == b"devA"
    assert seen["devB"][DEVICE_ENV.encode()] == b"devB"
    # one encoding per distinct job env
    env = {DEVICE_ENV: "devA"}
    assert launcher.environ(env) is launcher.environ(dict(env))
    assert launcher.environ(env) != launcher.environ({DEVICE_ENV: "devB"})
    assert launcher.environ(env)[DEVICE_ENV.encode()] == b"devA"


def test_launcher_reads_the_harness_environment_when_it_is_made(tmp_path, monkeypatch):
    binary = _env_binary(tmp_path)
    job = RunJob("c", CellKey("cc", "t", "-O0", "d"), str(binary))
    monkeypatch.setenv("RAGFUZZ_TEST_STAGE", "before")
    launcher = JobLauncher()
    monkeypatch.setenv("RAGFUZZ_TEST_STAGE", "after")
    assert _printed_env(run_job(job, None, launcher))[b"RAGFUZZ_TEST_STAGE"] == b"before"
    assert _printed_env(run_job(job, None, JobLauncher()))[b"RAGFUZZ_TEST_STAGE"] == b"after"


def test_direct_calls_see_os_environ_as_it_is_at_the_call(tmp_path, monkeypatch):
    binary = _env_binary(tmp_path)
    job = RunJob("c", CellKey("cc", "t", "-O0", "d"), str(binary))
    cc = tmp_path / "cc"
    cc.write_text('#!/bin/sh\necho "$RAGFUZZ_TEST_CALL" >&2\nexit 1\n')
    cc.chmod(0o755)
    tc = ToolchainConfig("cc", str(cc), (), (TargetSpec("t"),), ("-O0",))
    cjob = build_matrix("c", tmp_path / "s.cpp", [tc], tmp_path / "out")[0]
    for value in ("first", "second"):
        monkeypatch.setenv("RAGFUZZ_TEST_CALL", value)
        assert _printed_env(run_job(job))[b"RAGFUZZ_TEST_CALL"] == value.encode()
        assert compile_job(cjob).stderr == f"{value}\n"


def test_binary_rewritten_in_place_is_checked_again(tmp_path, monkeypatch):
    import ragfuzz.toolchain as toolchain

    checks = []
    check = toolchain._exec_format_error

    def counting(path, cwd, depth=0):
        if depth == 0:
            checks.append(path)
        return check(path, cwd, depth)

    monkeypatch.setattr(toolchain, "_exec_format_error", counting)
    path = tmp_path / "rewritten.bin"
    job = RunJob("c", CellKey("cc", "t", "-O0", "d"), str(path))
    launcher = JobLauncher()
    path.write_bytes(b"#!/bin/sh\necho ok\n")
    path.chmod(0o755)
    inode = path.stat().st_ino
    for _ in range(3):
        rr = run_job(job, RunLimits(), launcher)
        assert (rr.status, rr.stdout) == (RunStatus.OK, "ok\n")
    assert checks == [str(path)]  # once per file, not once per run
    elf32 = _HOST_ELF_HEADER[:4] + b"\x01" + _HOST_ELF_HEADER[5:] + b"\necho pwned\n"
    path.write_bytes(elf32)
    assert path.stat().st_ino == inode
    rr = run_job(job, RunLimits(), launcher)
    assert rr.status == RunStatus.LAUNCH_ERROR, rr
    assert rr.stderr == str(OSError(errno.ENOEXEC, os.strerror(errno.ENOEXEC), str(path)))
    assert checks == [str(path)] * 2


def _compile_and_run(source, toolchain, out_dir, env):
    """Compile with the toolchain and run on devA, both with ``env`` added."""
    toolchain = dataclasses.replace(toolchain, env={**toolchain.env, **env})
    result = compile_job(build_matrix("case0", source, [toolchain], out_dir)[0])
    assert result.status == CompileStatus.OK, result.stderr
    device = DeviceConfig("devA", {DEVICE_ENV: "devA", **env})
    return result, run_job(expand_run_jobs(result, [device], None)[0])


def test_mock_compiler_and_its_binaries_are_sh_scripts(mock_env):
    tmp_path, source, _, _, toolchain = mock_env
    with open(toolchain.executable) as fh:
        assert fh.readline() == "#!/bin/sh\n"
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


# --- the mock compiler's table: as json.loads reads it ------------------------


def _drive(cc, table, source_text, workdir):
    """Compile one source against a table: (exit, stdout, stderr, binary)."""
    workdir.mkdir(parents=True)
    source = workdir / "case.cpp"
    source.write_text(source_text)
    out = workdir / "case.bin"
    return compile_outcome(
        [str(cc), "--mock-id", "cc1", "--mock-target", "mock-spir", "-O2",
         str(source), "-o", str(out)],
        {**os.environ, TABLE_ENV: str(table), "LC_ALL": "C"}, workdir, out,
    )


def _table_file(workdir: Path, text: str) -> Path:
    workdir.mkdir(parents=True)
    table = workdir / "table.json"
    table.write_text(text)
    translate_mock_table(table)
    return table


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
    python_cc = write_python_compiler(tmp_path / "python_mockcc")
    oracles = {}
    for label, text in _tricky_tables().items():
        table = json.loads(text)
        table_path = _table_file(tmp_path / label, text)
        for name, source_text in _TRICKY_SOURCES.items():
            digest = source_digest(source_text)
            expected = table.get(digest) or table.get("*")
            got = _drive(cc, table_path, source_text, tmp_path / label / name)
            want = _drive(python_cc, table_path, source_text, tmp_path / label / f"{name}_ref")
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


def _decoded(decode, text: str) -> str:
    try:
        return repr(decode(text))
    except Exception as exc:  # noqa: BLE001 - the error is part of the outcome
        return f"{type(exc).__name__}: {exc}"


def test_compiler_decode_matches_json_loads_on_fuzzed_tables(mock_env, tmp_path):
    _, _, _, _, toolchain = mock_env
    python_cc = write_python_compiler(tmp_path / "python_mockcc")
    rng = random.Random(20260417)
    digests = [source_digest(str(i)) for i in range(5)]
    compiled = 0
    for n in range(300):
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
        workdir = tmp_path / str(n)
        workdir.mkdir()
        table_path = workdir / "table.json"
        table_path.write_text(text)
        decoded = _decoded(json.loads, text)
        if not decoded.startswith("{"):
            # refused where it is written: with json.loads's error, or as no object
            with pytest.raises(ValueError) as info:
                translate_mock_table(table_path)
            if isinstance(info.value, json.JSONDecodeError):
                assert decoded == f"JSONDecodeError: {info.value}", text
            else:
                assert str(info.value) == f"{table_path}: a mock fixture table is a JSON object"
            assert not table_path.with_name("table.json.sh").exists()
            continue
        translate_mock_table(table_path)
        if compiled < 40:  # each compile starts a process: compare a sample
            source_text = str(rng.randrange(5))
            got = _drive(toolchain.executable, table_path, source_text, workdir / "sh")
            want = _drive(python_cc, table_path, source_text, workdir / "python")
            assert_same_compile(got, want, text)
            compiled += 1
    assert compiled == 40


def test_cut_short_table_fails_as_with_json_loads(mock_env, tmp_path):
    _, _, source_text, _, toolchain = mock_env
    table_path = write_mock_table(tmp_path / "table.json", {source_digest(source_text): table_entry()})
    text = table_path.read_text()
    cut = text[: len(text) // 2]
    table_path.write_text(cut)
    os.utime(table_path, ns=(0, table_path.with_name("table.json.sh").stat().st_mtime_ns + 10**9))
    with pytest.raises(json.JSONDecodeError) as info:
        translate_mock_table(table_path)
    assert _decoded(json.loads, cut) == f"JSONDecodeError: {info.value}"
    # the sh form left from before is stale: the compile refuses it
    code, stdout, stderr, binary = _drive(toolchain.executable, table_path, source_text, tmp_path / "got")
    assert (code, stdout, binary) == (91, b"", None)
    assert stderr == (
        f"mockcc: fixture table {table_path} is newer than its sh form; translate it "
        "again with ragfuzz.mocktool.translate_mock_table\n"
    ).encode()


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
    translate_mock_table(table_path)
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
