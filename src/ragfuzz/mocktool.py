"""Scripted mock toolchain: a real executable honoring a fixture table.

The table is JSON keyed by the sha256 hex digest of the source file bytes,
one record per source hash, with an optional ``"*"`` fallback:

    {
      "<sha256 of source>": {
        "compile": {"exit": 0, "stdout": "", "stderr": ""},
        "runs": [
          {"compiler": "cc1", "target": "*", "opt": "-O2", "device": "devB",
           "stdout": "...", "stderr": "", "exit": 0, "signal": null, "sleep": 0}
        ]
      }
    }

On a successful compile the mock compiler writes a runnable script as the
output binary, so the full subprocess path (including signals and timeouts)
is exercised without any real compiler. A binary is a POSIX ``#!/bin/sh``
script whose run entries are fixed at compile time, so editing the table
afterwards does not change binaries already built. The compiler knows the
binary's compiler, target and opt level, so it picks the entry for each
device the record's ``runs`` name, and for any other device, most specific
first: ``"*"`` (or an omitted field) matches anything, and when nothing
matches the binary prints ``mock run ok``. Each pick becomes one arm of
``case "${RAGFUZZ_DEVICE-}"``, built from shell builtins and ``sleep``:
``printf`` with every byte but safe printable ASCII as an octal escape
(stdout encoded as UTF-8 with surrogate escapes, stderr with backslash
escapes), ``kill -N $$`` and ``exit N``. A run thus starts no Python, and
most of a campaign's jobs are runs.

The arms keep what the Python binaries that sh binaries replaced did: exit
codes go through ``int()`` and keep their low byte (-1 exits 255, 256 exits
0, ``"3"`` and 3.7 exit 3, beyond a C long 255); a signal name resolves
through ``_signal`` when the binary is written (``"SIG_IGN"`` is signal 1);
SIGPIPE and SIGXFSZ, which CPython ignores, and signal 0 send nothing, so
the run exits with the entry's code; and an entry Python failed on (an
unknown signal name, an ``exit`` of null, a negative ``sleep``, text that
is no string) writes what Python wrote before the error, then the error in
one line, and exits 1. ``sleep`` is no sh builtin, so the binary names it
by the absolute path ``write_mock_compiler`` found; bash ignores SIGQUIT,
so under bash a SIGQUIT arm execs the ``kill`` found the same way. Binaries
that older campaigns left behind, Python scripts, keep running: a run job
starts any executable.

The compiler imports only ``os`` and ``sys`` eagerly, since every gate and
matrix compile is one start of it: it decodes the table with ``_json``'s C
scanner (the one ``json.loads`` runs) instead of importing ``json``, and
hashes with ``_sha2``/``_sha256`` instead of ``hashlib``; and it keeps the
binary writer as text that only a compile writing a binary compiles.
README's "Mock toolchain fixture format" gives the details and the
fallbacks.

The compiler starts as ``#!<interpreter> -IS``, where the interpreter is the
``sys.executable`` that wrote it: a compile runs under the harness's own
Python whatever ``PATH`` its env sets, ``-I`` keeps ``PYTHON*`` variables
and the script's directory out of its imports, and ``-S`` skips
site-packages (the mock needs only the stdlib, and ``.pth`` hooks there can
cost several times the mock's own start-up).
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

from .errors import InvalidInterpreter, ToolNotFound

TABLE_ENV = "RAGFUZZ_MOCK_TABLE"
DEVICE_ENV = "RAGFUZZ_DEVICE"

_COMPILER_SCRIPT = r"""#!@@PY@@ -IS
# Mock compiler: behavior scripted by a JSON table keyed by source sha256.
# Every compile starts this script, so it imports only os and sys eagerly.
import os, sys

TABLE_ENV = @@TABLE_ENV@@
DEVICE_ENV = @@DEVICE_ENV@@
SLEEP = @@SLEEP@@
KILL = @@KILL@@


def sha256_hex(data):
    # _sha2 (3.12+) and _sha256 (3.11) are private CPython modules; hashlib
    # wraps them but costs more to import.
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


class Decoding:
    # the settings json.loads gives the scanner (json.decoder.JSONDecoder)
    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {"-Infinity": float("-inf"), "Infinity": float("inf"),
                      "NaN": float("nan")}.__getitem__


def load_table(text):
    # json.loads(text) without importing json (and re): _json is CPython's
    # private C scanner, the one json.loads runs. Text it does not take as
    # one whole object, or a Python without it, goes to json.loads itself,
    # which raises the error: with json.decoder not loaded, the scanner's
    # own error is a SystemError.
    ws = " \t\n\r"
    try:
        from _json import make_scanner
        table, end = make_scanner(Decoding)(text, len(text) - len(text.lstrip(ws)))
    except Exception:
        table = None
    if isinstance(table, dict) and not text[end:].strip(ws):
        return table
    import json
    return json.loads(text)


# Python compiles a script's whole source at every start (a script gets no
# .pyc), so the binary writer is text that only a compile that writes a
# binary compiles: most of a campaign's gate compiles fail and write none.
WRITER = r'''
def pick(runs, coords):
    # the most specific entry matching (compiler, target, opt, device)
    best, best_score = None, -1
    for r in runs:
        score, ok = 0, True
        for field, value in zip(("compiler", "target", "opt", "device"), coords):
            want = r.get(field, "*")
            if want == "*":
                continue
            if want != value:
                ok = False
                break
            score += 1
        if ok and score > best_score:
            best, best_score = r, score
    return best


def word(text):
    # text as one single-quoted sh word
    return "'" + text.replace("'", "'\\''") + "'"


def printf(data, redirect=""):
    # sh lines writing exactly these bytes: printf's format holds safe
    # printable ASCII as itself, % as %%, any other byte as a \ooo escape
    fmt = "".join("%%" if b == 37 else chr(b) if 32 <= b < 127 and b not in (39, 92)
                  else "\\%03o" % b for b in data)
    if fmt.startswith("-"):  # would read as an option
        fmt = "\\055" + fmt[1:]
    return ["printf '%s'%s" % (fmt, redirect)] if data else []


def arm(runs, coords):
    # sh lines doing what the Python binary this replaces did on one device:
    # write stdout, then stderr, sleep, raise the signal, exit; where Python
    # raised, the arm writes the error and exits 1, as an uncaught one did
    lines = []
    try:
        r = pick(runs, coords)
        if r is None:
            r = {"stdout": "mock run ok\n"}
        # encoded as Python's streams did under the C locale
        lines += printf(r.get("stdout", "").encode("utf-8", "surrogateescape"))
        lines += printf(r.get("stderr", "").encode("utf-8", "backslashreplace"), " >&2")
        if r.get("sleep"):
            secs = float(r["sleep"])
            if not 0 <= secs < 9e9:  # time.sleep refuses NaN, < 0 and overflow
                raise ValueError("invalid sleep length: %r" % secs)
            lines.append("%s %.9f" % (word(SLEEP), secs))
        sig = r.get("signal")
        if sig:
            import _signal  # signal itself imports enum
            num = getattr(_signal, sig)
            if type(num) is not int or not 0 <= num < _signal.NSIG:
                raise ValueError("not a signal: %r" % sig)
            # 0 sends nothing, and CPython ignores SIGPIPE and SIGXFSZ
            if num not in (0, _signal.SIGPIPE, _signal.SIGXFSZ):
                lines.append("kill -%d $$" % num)
                if num == _signal.SIGQUIT and KILL:
                    # bash ignores SIGQUIT; its exec restores what it inherited
                    lines.append('[ -z "${BASH_VERSION-}" ] || exec %s -%d $$' % (word(KILL), num))
        code = int(r.get("exit", 0))
        # sys.exit keeps the low byte of a C long, and exits 255 beyond one
        lines.append("exit %d" % (code & 255 if -(1 << 63) <= code < 1 << 63 else 255))
    except Exception as exc:
        error = "%s: %s\n" % (type(exc).__name__, exc)
        lines += printf(error.encode("utf-8", "backslashreplace"), " >&2") + ["exit 1"]
    return lines


def binary(runs, coords):
    # one case arm per device the entries name, "*)" for any other device
    devices = {}
    for r in runs if isinstance(runs, list) else ():
        device = r.get("device") if isinstance(r, dict) else None
        try:  # no environment holds a NUL or a surrogate no byte decodes to
            if isinstance(device, str) and device != "*" and b"\0" not in device.encode(
                    "utf-8", "surrogateescape"):
                devices[device] = None
        except UnicodeEncodeError:
            pass
    lines = ["#!/bin/sh", "# Mock binary: run entries fixed at compile time, one arm per device.",
             'case "${%s-}" in' % DEVICE_ENV]
    for device in devices:
        lines += [word(device) + ")", *arm(runs, (*coords, device)), ";;"]
    lines += ["*)", *arm(runs, (*coords, object())), ";;", "esac", ""]
    return "\n".join(lines).encode("utf-8", "surrogateescape")
'''


def main():
    args = sys.argv[1:]
    out, source = None, None
    compiler_id, target, opt = "mockcc", "mock", "-O0"
    i = 0
    while i < len(args):
        a = args[i]
        if a == "-o":
            out = args[i + 1]
            i += 2
            continue
        if a == "--mock-id":
            compiler_id = args[i + 1]
            i += 2
            continue
        if a == "--mock-target":
            target = args[i + 1]
            i += 2
            continue
        if a.startswith("-O"):
            opt = a
        elif not a.startswith("-"):
            source = a
        i += 1
    table_path = os.environ.get(TABLE_ENV, "")
    if not table_path or source is None:
        sys.stderr.write("mockcc: missing fixture table or source file\n")
        sys.exit(91)
    with open(source, "rb") as fh:
        digest = sha256_hex(fh.read())
    with open(table_path) as fh:
        table = load_table(fh.read())
    entry = table.get(digest) or table.get("*")
    if entry is None:
        sys.stderr.write("mockcc: no fixture entry for source %s\n" % digest[:12])
        sys.exit(90)
    comp = entry.get("compile", {})
    if comp.get("sleep"):
        import time
        time.sleep(float(comp["sleep"]))
    sys.stdout.write(comp.get("stdout", ""))
    sys.stderr.write(comp.get("stderr", ""))
    code = int(comp.get("exit", 0))
    if code == 0 and out:
        exec(WRITER, globals())
        with open(out, "wb") as fh:
            fh.write(binary(entry.get("runs", []), (compiler_id, target, opt)))
        os.chmod(out, 0o755)
    sys.exit(code)


if __name__ == "__main__":
    main()
"""


def source_digest(source_text: str) -> str:
    return hashlib.sha256(source_text.encode("utf-8")).hexdigest()


# the kernel reads at most this many bytes of a "#!" line (BINPRM_BUF_SIZE)
_SHEBANG_MAX = 256


def write_mock_compiler(path: Path) -> Path:
    """Write the mock compiler, to run under this process's interpreter."""
    interpreter = sys.executable
    shebang = f"#!{interpreter} -IS\n"
    if (
        not os.path.isabs(interpreter)
        or any(ch.isspace() for ch in interpreter)
        or len(shebang.encode("utf-8")) > _SHEBANG_MAX
    ):
        raise InvalidInterpreter(
            f"cannot start the mock toolchain with {interpreter!r}: a shebang "
            f"needs an absolute path without whitespace, and the line "
            f"{shebang.strip()!r} must fit in {_SHEBANG_MAX} bytes"
        )
    # binaries name these by the paths this PATH finds: sleep is no sh
    # builtin, and kill(1) is how bash raises SIGQUIT on itself
    sleep, kill = shutil.which("sleep"), shutil.which("kill")
    if sleep is None:
        raise ToolNotFound("sleep is not on PATH; mock binaries need it for an entry that sleeps")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fills = {
        "PY": interpreter,
        "TABLE_ENV": repr(TABLE_ENV),
        "DEVICE_ENV": repr(DEVICE_ENV),
        "SLEEP": repr(os.path.abspath(sleep)),
        "KILL": repr(kill and os.path.abspath(kill)),
    }
    # one pass over the template, so a value's own text is kept
    parts = _COMPILER_SCRIPT.split("@@")
    parts[1::2] = [fills[name] for name in parts[1::2]]
    path.write_text("".join(parts), encoding="utf-8")
    os.chmod(path, 0o755)
    return path


def write_mock_table(path: Path, table: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(table, indent=2, sort_keys=True))
    return path


def table_entry(
    compile_exit: int = 0,
    compile_stderr: str = "",
    compile_stdout: str = "",
    runs: list[dict] | None = None,
) -> dict:
    return {
        "compile": {
            "exit": compile_exit,
            "stderr": compile_stderr,
            "stdout": compile_stdout,
        },
        "runs": runs or [],
    }
