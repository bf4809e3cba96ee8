"""Compile/run job expansion and sandboxed subprocess execution.

Every job runs in its own working directory with a wall-clock timeout; the
whole process group is killed on expiry so compilers and generated binaries
never leak children. Run jobs get address-space and file-size limits because
LLM-generated programs can loop or allocate without bound.
"""
from __future__ import annotations

import os
import signal
import subprocess
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import ToolNotFound


class CompileStatus(str, Enum):
    OK = "ok"
    ERROR = "error"
    TIMEOUT = "timeout"


class RunStatus(str, Enum):
    OK = "ok"
    NONZERO_EXIT = "nonzero_exit"
    CRASH_SIGNAL = "crash_signal"
    TIMEOUT = "timeout"
    LAUNCH_ERROR = "launch_error"


@dataclass(frozen=True)
class TargetSpec:
    name: str
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ToolchainConfig:
    compiler_id: str
    executable: str
    base_flags: tuple[str, ...] = ()
    targets: tuple[TargetSpec, ...] = ()
    opt_levels: tuple[str, ...] = ("-O0", "-O1", "-O2", "-O3")
    env: dict = field(default_factory=dict)

    def probe(self) -> None:
        """Campaign-start check that the executable exists and is runnable."""
        path = Path(self.executable)
        if not path.exists() or not os.access(path, os.X_OK):
            raise ToolNotFound(f"{self.compiler_id}: {self.executable} is not an executable")
        if not self.opt_levels:
            raise ToolNotFound(f"{self.compiler_id}: no optimization levels configured")


@dataclass(frozen=True)
class DeviceConfig:
    device_id: str
    env: dict = field(default_factory=dict)
    description: str = ""


@dataclass(frozen=True, order=True)
class CellKey:
    compiler_id: str
    target: str
    opt_level: str
    device_id: str = ""

    def label(self) -> str:
        parts = [self.compiler_id, self.target, self.opt_level.lstrip("-")]
        if self.device_id:
            parts.append(self.device_id)
        return "_".join(p.replace("/", "-") for p in parts)


@dataclass(frozen=True)
class CompileJob:
    case_id: str
    compiler_id: str
    target: str
    opt_level: str
    argv: tuple[str, ...]
    workdir: Path
    output_path: Path
    env: dict = field(default_factory=dict)
    timeout: float = 120.0


@dataclass(frozen=True)
class CompileResult:
    case_id: str
    compiler_id: str
    target: str
    opt_level: str
    status: CompileStatus
    stderr: str
    binary_path: str | None
    duration: float

    @property
    def ok(self) -> bool:
        return self.status == CompileStatus.OK


@dataclass(frozen=True)
class RunJob:
    case_id: str
    cell: CellKey
    binary_path: str
    env: dict = field(default_factory=dict)
    timeout: float = 30.0


@dataclass(frozen=True)
class RunResult:
    case_id: str
    cell: CellKey
    status: RunStatus
    exit_code: int | None
    stdout: str
    stderr: str
    duration: float


@dataclass(frozen=True)
class RunLimits:
    timeout: float = 30.0
    address_space_mb: int = 2048
    file_size_mb: int = 64


def build_matrix(
    case_id: str,
    source_path: Path,
    toolchains: list[ToolchainConfig],
    out_root: Path,
    timeout: float = 120.0,
) -> list[CompileJob]:
    """Cartesian product compilers x their targets x opt levels, in config order."""
    jobs: list[CompileJob] = []
    for tc in toolchains:
        for target in tc.targets:
            for opt in tc.opt_levels:
                key = CellKey(tc.compiler_id, target.name, opt)
                workdir = Path(out_root) / key.label()
                output = workdir / f"{case_id}.bin"
                argv = (
                    str(tc.executable),
                    *tc.base_flags,
                    *target.flags,
                    opt,
                    str(source_path),
                    "-o",
                    str(output),
                )
                jobs.append(
                    CompileJob(
                        case_id=case_id,
                        compiler_id=tc.compiler_id,
                        target=target.name,
                        opt_level=opt,
                        argv=argv,
                        workdir=workdir,
                        output_path=output,
                        env=dict(tc.env),
                        timeout=timeout,
                    )
                )
    return jobs


def expand_run_jobs(
    result: CompileResult,
    devices: list[DeviceConfig],
    compatibility: dict[str, list[str]] | None = None,
    timeout: float = 30.0,
) -> list[RunJob]:
    """Run jobs for one successful compile: one per compatible device.

    The compatibility map restricts targets to device ids; a missing entry
    means every configured device is eligible.
    """
    if not result.ok or result.binary_path is None:
        return []
    allowed = None
    if compatibility is not None and result.target in compatibility:
        allowed = set(compatibility[result.target])
    jobs = []
    for device in devices:
        if allowed is not None and device.device_id not in allowed:
            continue
        cell = CellKey(result.compiler_id, result.target, result.opt_level, device.device_id)
        jobs.append(
            RunJob(
                case_id=result.case_id,
                cell=cell,
                binary_path=result.binary_path,
                env=dict(device.env),
                timeout=timeout,
            )
        )
    return jobs


def _execute(
    argv: tuple[str, ...],
    cwd: Path,
    env: dict,
    timeout: float,
    limits: RunLimits | None = None,
) -> tuple[int | None, str, str, float, bool]:
    """(returncode, stdout, stderr, duration, timed_out); kills the group on expiry."""
    preexec = None
    if limits is not None:
        import resource

        def preexec():  # noqa: ANN001 - runs in the child
            as_bytes = limits.address_space_mb * 1024 * 1024
            fs_bytes = limits.file_size_mb * 1024 * 1024
            resource.setrlimit(resource.RLIMIT_AS, (as_bytes, as_bytes))
            resource.setrlimit(resource.RLIMIT_FSIZE, (fs_bytes, fs_bytes))

    start = time.monotonic()
    proc = subprocess.Popen(
        argv,
        cwd=str(cwd),
        env={**os.environ, **env},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        encoding="utf-8",
        errors="replace",  # a program's bytes are untrusted; never abort on them
        start_new_session=True,
        preexec_fn=preexec,
    )
    timed_out = False
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        timed_out = True
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        stdout, stderr = proc.communicate()
    duration = time.monotonic() - start
    return proc.returncode, stdout or "", stderr or "", duration, timed_out


def compile_job(job: CompileJob) -> CompileResult:
    """Invoke the compiler in an isolated working directory."""
    executable = Path(job.argv[0])
    if not executable.exists():
        raise ToolNotFound(f"compiler executable not found: {executable}")
    job.workdir.mkdir(parents=True, exist_ok=True)
    rc, _stdout, stderr, duration, timed_out = _execute(
        job.argv, job.workdir, job.env, job.timeout
    )
    if timed_out:
        return CompileResult(
            job.case_id, job.compiler_id, job.target, job.opt_level,
            CompileStatus.TIMEOUT, stderr, None, duration,
        )
    if rc == 0 and job.output_path.exists():
        return CompileResult(
            job.case_id, job.compiler_id, job.target, job.opt_level,
            CompileStatus.OK, stderr, str(job.output_path), duration,
        )
    if rc == 0:
        stderr = stderr + "\n[harness] compiler exited 0 without producing output\n"
    return CompileResult(
        job.case_id, job.compiler_id, job.target, job.opt_level,
        CompileStatus.ERROR, stderr, None, duration,
    )


def run_job(job: RunJob, limits: RunLimits | None = None) -> RunResult:
    """Execute one binary under one device configuration."""
    binary = Path(job.binary_path)
    if not binary.exists() or not os.access(binary, os.X_OK):
        return RunResult(
            job.case_id, job.cell, RunStatus.LAUNCH_ERROR, None,
            "", f"binary missing or not executable: {binary}", 0.0,
        )
    try:
        rc, stdout, stderr, duration, timed_out = _execute(
            (str(binary),), binary.parent, job.env, job.timeout, limits=limits
        )
    except OSError as exc:
        return RunResult(
            job.case_id, job.cell, RunStatus.LAUNCH_ERROR, None, "", str(exc), 0.0
        )
    if timed_out:
        status = RunStatus.TIMEOUT
    elif rc is not None and rc < 0:
        status = RunStatus.CRASH_SIGNAL
    elif rc == 0:
        status = RunStatus.OK
    else:
        status = RunStatus.NONZERO_EXIT
    return RunResult(job.case_id, job.cell, status, rc, stdout, stderr, duration)
