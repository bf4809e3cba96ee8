from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import pytest

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
    CompileStatus,
    DeviceConfig,
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


def _compile_and_run(source, toolchain, out_dir, env):
    """Compile with the toolchain and run on devA, both with ``env`` added."""
    toolchain = dataclasses.replace(toolchain, env={**toolchain.env, **env})
    result = compile_job(build_matrix("case0", source, [toolchain], out_dir)[0])
    assert result.status == CompileStatus.OK, result.stderr
    device = DeviceConfig("devA", {DEVICE_ENV: "devA", **env})
    return result, run_job(expand_run_jobs(result, [device], None)[0])


def test_mock_scripts_start_under_this_interpreter_isolated(mock_env):
    tmp_path, source, _, _, toolchain = mock_env
    shebang = f"#!{sys.executable} -IS\n"
    with open(toolchain.executable) as fh:
        assert fh.readline() == shebang
    result, rr = _compile_and_run(source, toolchain, tmp_path / "out", {})
    with open(result.binary_path) as fh:
        assert fh.readline() == shebang
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
