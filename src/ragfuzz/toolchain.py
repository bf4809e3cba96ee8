"""Compile/run job expansion and sandboxed subprocess execution.

Every job runs in its own working directory with a wall-clock timeout; the
whole process group is killed on expiry so compilers and generated binaries
never leak children. Run jobs get address-space and file-size limits because
LLM-generated programs can loop or allocate without bound.

A job costs the harness one ``subprocess.Popen`` and little else. Its
environment comes from a ``JobLauncher``, which a stage makes once: it reads
the harness's environment when it is made and overlays each distinct job
``env`` on it once, already encoded as the bytes ``execve`` takes. One
``select.poll`` loop reads both pipes as raw bytes and checks the deadline
at every wakeup, so a program that writes without pause still times out.
It keeps at most ``OUTPUT_CAP`` bytes of each stream and drains the rest,
so a flood can neither block the program nor fill the harness's memory; a
cut stream ends with a ``[harness]`` line that gives its size and sha256.
The bytes are then decoded as a text-mode pipe would: UTF-8 with
``errors="replace"``, ``\r\n`` and ``\r`` made ``\n``.

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
refused before it starts (see ``_exec_format_error``). A launcher makes that
check once per binary file, not once per run.

Annotations here are evaluated at import, not postponed: the record codec
reads the toolchain and device field types as objects when a config loads.
"""
import errno
import functools
import hashlib
import math
import os
import select
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
        """Campaign-start check that the executable exists and can start:
        each interpreter its "#!" chain names, as deep as the kernel follows
        one, must be executable (a relative name resolves against the
        current directory)."""
        path = Path(self.executable)
        if not path.exists() or not os.access(path, os.X_OK):
            raise ToolNotFound(f"{self.compiler_id}: {self.executable} is not an executable")
        program = self.executable
        for _ in range(_SHEBANG_DEPTH):
            interpreter = _shebang_interpreter(_head(program) or b"")
            if interpreter is None:
                break
            if not os.access(interpreter, os.X_OK):
                raise ToolNotFound(
                    f"{self.compiler_id}: cannot start {self.executable}: the interpreter "
                    f"{interpreter!r} that {program} names is missing or not executable"
                )
            program = interpreter
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

    @property
    def cell(self) -> CellKey:
        return CellKey(self.compiler_id, self.target, self.opt_level)


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


# bytes kept of each stream a job writes; the rest is drained, counted and hashed
OUTPUT_CAP = 1024 * 1024
_READ_SIZE = 65536  # a Linux pipe's default capacity


class JobLauncher:
    """What one stage's jobs share, so that starting a job costs the harness
    one ``Popen`` and little else.

    The harness's environment is read once, when the launcher is made. Each
    distinct job ``env`` is overlaid on it once, encoded as the bytes
    ``Popen`` hands to ``execve``: reading ``os.environ`` decodes every
    variable, which ``Popen`` then encodes again. The launch check of a
    binary is made once per file, keyed by its path and identity (device,
    inode, size, mtime), so a file rewritten in place is checked again. A
    job started without a launcher gets a new one, and so sees
    ``os.environ`` as it is at the call. Worker threads may share a
    launcher: two that race on one key compute the same value.
    """

    def __init__(self) -> None:
        self._environ = dict(os.environb)
        self._envs: dict[tuple, dict[bytes, bytes]] = {}
        self._refused: dict[tuple, bool] = {}

    def environ(self, env: dict) -> dict[bytes, bytes]:
        """The harness's environment overlaid with ``env``, as bytes."""
        key = tuple(env.items())
        encoded = self._envs.get(key)
        if encoded is None:
            overlay = {os.fsencode(name): os.fsencode(value) for name, value in key}
            encoded = self._envs[key] = {**self._environ, **overlay}
        return encoded

    def exec_format_error(self, path: str, cwd: Path) -> bool:
        """``_exec_format_error``, made once per file identity."""
        try:
            st = os.stat(os.path.join(cwd, path))
        except OSError:
            return _exec_format_error(path, cwd)
        key = (path, cwd, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
        refused = self._refused.get(key)
        if refused is None:
            refused = self._refused[key] = _exec_format_error(path, cwd)
        return refused


class _Capture:
    """The bytes one pipe carried: the first ``OUTPUT_CAP`` kept, all of
    them counted, and all of them hashed once the cap is passed, so two
    floods that differ only past the cap still read unequal."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.kept = bytearray()
        self.size = 0
        self.sha256 = None

    def add(self, chunk: bytes) -> None:
        self.size += len(chunk)
        if self.sha256 is None:
            if self.size <= OUTPUT_CAP:
                self.kept += chunk
                return
            self.sha256 = hashlib.sha256(self.kept)
            self.kept += chunk[: OUTPUT_CAP - len(self.kept)]
        self.sha256.update(chunk)

    def text(self) -> str:
        """The kept bytes decoded as ``text=True`` decodes a pipe."""
        text = self.kept.decode("utf-8", "replace")  # a program's bytes are untrusted
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        if self.sha256 is not None:
            text += (
                f"\n[harness] {self.name} truncated: kept the first {OUTPUT_CAP} of "
                f"{self.size} bytes, sha256 {self.sha256.hexdigest()}\n"
            )
        return text


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _execute(
    argv: tuple[str, ...], cwd: Path, env: dict[bytes, bytes], timeout: float
) -> tuple[int | None, str, str, float, bool]:
    """(returncode, stdout, stderr, duration, timed_out); kills the group on expiry.

    ``env`` is the child's whole environment (see ``JobLauncher.environ``).
    """
    start = time.monotonic()
    deadline = start + timeout
    proc = subprocess.Popen(
        argv,
        bufsize=0,
        cwd=str(cwd),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    out, err = _Capture("stdout"), _Capture("stderr")
    captures = {proc.stdout.fileno(): out, proc.stderr.fileno(): err}
    poller = select.poll()
    for fd in captures:
        poller.register(fd, select.POLLIN)
    timed_out = False
    try:
        while captures:
            wait_ms = None
            if not timed_out:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # after the kill, read on to EOF as communicate() did
                    timed_out = True
                    _kill_group(proc)
                else:
                    wait_ms = math.ceil(remaining * 1000)
            for fd, _event in poller.poll(wait_ms):
                chunk = os.read(fd, _READ_SIZE)
                if chunk:
                    captures[fd].add(chunk)
                else:
                    poller.unregister(fd)
                    del captures[fd]
        if not timed_out:
            try:
                proc.wait(deadline - time.monotonic())
            except subprocess.TimeoutExpired:  # it closed both pipes but runs on
                timed_out = True
                _kill_group(proc)
        proc.wait()
    finally:
        proc.stdout.close()
        proc.stderr.close()
    duration = time.monotonic() - start
    return proc.returncode, out.text(), err.text(), duration, timed_out


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


# the kernel starts the interpreter a "#!" line names the same way, at most
# this many deep
_SHEBANG_DEPTH = 4


def _head(path: str) -> bytes | None:
    """All of a "#!" line the kernel reads (None for an unreadable file)."""
    try:
        with open(path, "rb") as fh:
            return fh.read(256)
    except OSError:
        return None


def _shebang_interpreter(head: bytes) -> str | None:
    """The interpreter a "#!" line names ("" for none), or None for a file
    without one."""
    if head[:2] != b"#!":
        return None
    line = head[2:].split(b"\n", 1)[0].strip(b" \t")
    return os.fsdecode(line.replace(b"\t", b" ").split(b" ", 1)[0])


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
    head = _head(os.path.join(cwd, path))
    if head is None:
        return False  # unreadable: neither can /bin/sh read it; let execve decide
    name = _shebang_interpreter(head)
    if name is not None:
        # a missing or non-executable interpreter fails with its own errno
        return not name or (
            depth < _SHEBANG_DEPTH
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


def compile_job(job: CompileJob, launcher: JobLauncher | None = None) -> CompileResult:
    """Invoke the compiler in an isolated working directory."""
    executable = Path(job.argv[0])
    if not executable.exists():
        raise ToolNotFound(f"compiler executable not found: {executable}")
    job.workdir.mkdir(parents=True, exist_ok=True)
    env = (launcher or JobLauncher()).environ(job.env)
    try:
        rc, _stdout, stderr, duration, timed_out = _execute(job.argv, job.workdir, env, job.timeout)
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


def run_job(
    job: RunJob, limits: RunLimits | None = None, launcher: JobLauncher | None = None
) -> RunResult:
    """Execute one binary under one device configuration."""
    binary = Path(job.binary_path)

    def launch_error(message: str) -> RunResult:
        return RunResult(job.case_id, job.cell, RunStatus.LAUNCH_ERROR, None, "", message, 0.0)

    if not binary.exists() or not os.access(binary, os.X_OK):
        return launch_error(f"binary missing or not executable: {binary}")
    launcher = launcher or JobLauncher()
    argv: tuple[str, ...] = (str(binary),)
    if limits is not None:
        if launcher.exec_format_error(argv[0], binary.parent):
            return launch_error(str(OSError(errno.ENOEXEC, os.strerror(errno.ENOEXEC), argv[0])))
        argv = (
            prlimit_path(),
            f"--as={limits.address_space_mb * 1024 * 1024}",
            f"--fsize={limits.file_size_mb * 1024 * 1024}",
            "--",
            *argv,
        )
    env = launcher.environ(job.env)
    try:
        rc, stdout, stderr, duration, timed_out = _execute(argv, binary.parent, env, job.timeout)
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
