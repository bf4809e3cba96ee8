"""Compile/run job expansion and sandboxed subprocess execution.

Every job runs in its own working directory with a wall-clock timeout; the
whole process group is killed on expiry so compilers and generated binaries
never leak children. Run jobs get address-space and file-size limits because
LLM-generated programs can loop or allocate without bound.

The limits are set by util-linux ``prlimit(1)``, not by a Python
``preexec_fn``: with a ``preexec_fn``, CPython ``fork()``s the whole harness
(numpy, the index, worker threads) for every run and runs Python code in the
child; without one it starts the job with ``vfork``. ``prlimit`` sets each
limit's soft and hard value to the configured bytes and ``execvp``s the
binary in place, so the pid, the session, the exit code and any signal stay
the binary's own. A binary that cannot start stays ``LAUNCH_ERROR``, with
the text a direct start gives: ``prlimit``'s "failed to execute" exit
(126/127) maps back to that ``OSError``, and a file that ``execve`` refuses
as ``ENOEXEC``, which ``execvp`` would hand to ``/bin/sh`` as a script, is
refused before it starts (see ``_exec_format_error``).

Annotations here are evaluated at import, not postponed: the record codec
reads the toolchain and device field types as objects when a config loads.
"""
import errno
import functools
import os
import shutil
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
    """Resource limits of a run job; its timeout is the job's own."""

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
    argv: tuple[str, ...], cwd: Path, env: dict, timeout: float
) -> tuple[int | None, str, str, float, bool]:
    """(returncode, stdout, stderr, duration, timed_out); kills the group on expiry."""
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


@functools.cache
def prlimit_path() -> str:
    """util-linux ``prlimit``, looked up once on the harness's own PATH: a
    device's env may set PATH to anything."""
    path = shutil.which("prlimit")
    if path is None:
        raise ToolNotFound("prlimit (util-linux) is not on PATH; run jobs need it for their limits")
    return path


def _elf_machine(head: bytes) -> bytes | None:
    """Class, byte order, machine and program-header entry size of an
    executable or shared-object ELF header whose program-header table
    binfmt_elf's ``elf_read_phdrs`` accepts by size:
    ``0 < e_phnum * e_phentsize <= min(65536, page size)``."""
    if head[:4] != b"\x7fELF" or len(head) < (52 if head[4] == 1 else 64):
        return None
    order = "little" if head[5] == 1 else "big"
    e_type = int.from_bytes(head[16:18], order)
    ph = 42 if head[4] == 1 else 54  # offset of e_phentsize; e_phnum follows
    phentsize, phnum = (int.from_bytes(head[i : i + 2], order) for i in (ph, ph + 2))
    table = phentsize * phnum
    if e_type not in (2, 3) or not 0 < table <= min(65536, os.sysconf("SC_PAGE_SIZE")):
        return None  # not ET_EXEC or ET_DYN, or no loadable program-header table
    return head[4:6] + head[18:20] + head[ph : ph + 2]


@functools.cache
def _host_elf_machine() -> bytes | None:
    with open("/proc/self/exe", "rb") as fh:
        return _elf_machine(fh.read(64))


def _exec_format_error(path: str, cwd: Path, depth: int = 0) -> bool:
    """Whether the file at ``path`` (relative to ``cwd``) is no executable
    format, which execve(2) refuses with ENOEXEC and prlimit's execvp(3) then
    hands to /bin/sh as a script.

    A file passes as a script whose "#!" line names an interpreter that
    passes in turn, or as an ELF executable of this host's class, byte order,
    machine and program-header entry size, with a program-header table the
    kernel accepts by size. So three kinds of file that a direct launch may
    run are refused: a 32-bit ELF on a 64-bit host, a format a binfmt_misc
    handler runs, and an ELF whose program headers fill more than a page,
    which kernels that still bound the table by the page size refuse.
    """
    try:
        with open(os.path.join(cwd, path), "rb") as fh:
            head = fh.read(256)  # all of a "#!" line the kernel reads
    except OSError:
        return False  # unreadable: neither can /bin/sh read it; let execve decide
    if head[:2] == b"#!":
        line = head[2:].split(b"\n", 1)[0].strip(b" \t")
        if not line:
            return True
        name = os.fsdecode(line.replace(b"\t", b" ").split(b" ", 1)[0])
        # the kernel starts the interpreter the same way, at most 4 deep;
        # a missing or non-executable one fails with its own errno
        return (
            depth < 4
            and os.access(os.path.join(cwd, name), os.X_OK)
            and _exec_format_error(name, cwd, depth + 1)
        )
    machine = _elf_machine(head)
    return machine is None or machine != _host_elf_machine()


def _prlimit_exec_error(rc: int | None, stderr: str, binary: str) -> OSError | None:
    """The OSError a direct launch raises, when prlimit failed to execute the
    binary: it then prints one line and exits 127 for ENOENT, 126 otherwise."""
    prefix = f"prlimit: failed to execute {binary}: "
    if rc in (126, 127) and stderr.startswith(prefix):
        for code in errno.errorcode:
            if stderr == f"{prefix}{os.strerror(code)}\n":
                return OSError(code, os.strerror(code), binary)
    return None


def compile_job(job: CompileJob) -> CompileResult:
    """Invoke the compiler in an isolated working directory."""
    executable = Path(job.argv[0])
    if not executable.exists():
        raise ToolNotFound(f"compiler executable not found: {executable}")
    job.workdir.mkdir(parents=True, exist_ok=True)
    try:
        rc, _stdout, stderr, duration, timed_out = _execute(
            job.argv, job.workdir, job.env, job.timeout
        )
    except OSError as exc:  # e.g. a "#!" interpreter that is missing
        raise ToolNotFound(f"{job.compiler_id}: cannot start {executable}: {exc}") from exc
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

    def launch_error(message: str) -> RunResult:
        return RunResult(job.case_id, job.cell, RunStatus.LAUNCH_ERROR, None, "", message, 0.0)

    if not binary.exists() or not os.access(binary, os.X_OK):
        return launch_error(f"binary missing or not executable: {binary}")
    argv: tuple[str, ...] = (str(binary),)
    if limits is not None:
        if _exec_format_error(argv[0], binary.parent):
            return launch_error(str(OSError(errno.ENOEXEC, os.strerror(errno.ENOEXEC), argv[0])))
        argv = (
            prlimit_path(),
            f"--as={limits.address_space_mb * 1024 * 1024}",
            f"--fsize={limits.file_size_mb * 1024 * 1024}",
            "--",
            *argv,
        )
    try:
        rc, stdout, stderr, duration, timed_out = _execute(
            argv, binary.parent, job.env, job.timeout
        )
    except OSError as exc:
        return launch_error(str(exc))
    exec_error = _prlimit_exec_error(rc, stderr, argv[-1]) if limits is not None else None
    if exec_error is not None:
        return launch_error(str(exec_error))
    if timed_out:
        status = RunStatus.TIMEOUT
    elif rc is not None and rc < 0:
        status = RunStatus.CRASH_SIGNAL
    elif rc == 0:
        status = RunStatus.OK
    else:
        status = RunStatus.NONZERO_EXIT
    return RunResult(job.case_id, job.cell, status, rc, stdout, stderr, duration)
