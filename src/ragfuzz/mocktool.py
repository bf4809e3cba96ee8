"""Scripted mock toolchain: real executables honoring a fixture table.

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

Every gate and matrix compile is one start of the mock compiler, so it is a
POSIX ``#!/bin/sh`` script, and the table is translated to sh once, when it
is written: ``write_mock_table`` writes ``table.json`` and then, beside it,
its sh form ``table.json.sh`` (``translate_mock_table`` writes the sh form
of a ``table.json`` written some other way). The sh form defines one
function, ``mock_compile``, holding a ``case`` with one arm per record,
keyed by the quoted digest or a literal ``'*'``. A compile hashes the source
with ``sha256sum``, sources the sh form and calls ``mock_compile`` with the
digest and then with ``*``, so the lookup stays ``table.get(digest) or
table.get("*")``: a falsy digest record gets no arm, nor does a null
``"*"``. A compile thus starts no Python. The compiler names ``sha256sum``,
``chmod`` and ``sleep`` by the absolute paths ``write_mock_compiler`` found
on its ``PATH``, and exits 91 when the sh form is missing or older than
``table.json``.

Each arm does what the Python compiler that read the JSON at every compile
did with the record (``tests/fixtures/python_mock_compiler.tmpl`` keeps it):
sleep, write the compile's stdout and stderr, exit with its code; where
Python raised on the record, the arm writes the error in one line and exits
1. On exit 0 with ``-o`` it writes the output binary and makes it
executable, so the full subprocess path (including signals and timeouts)
is exercised without any real compiler.

A binary is a POSIX ``#!/bin/sh`` script whose run entries are fixed at
compile time, so editing the table afterwards does not change binaries
already built. The compiler knows the binary's compiler, target and opt
level, so it picks the entry for each device the record's ``runs`` name,
and for any other device, most specific first: ``"*"`` (or an omitted
field) matches anything, and when nothing matches the binary prints ``mock
run ok``. Each pick becomes one arm of ``case "${RAGFUZZ_DEVICE-}"``, built
from shell builtins and ``sleep``: ``printf`` with every byte but safe
printable ASCII as an octal escape (stdout encoded as UTF-8 with surrogate
escapes, stderr with backslash escapes), ``kill -N $$`` and ``exit N``. The
sh form holds, for each such arm, the arm texts of the entries the pick may
choose, in its order (score descending, then list order), each guarded by
``[ "$compiler" = '...' ]`` tests on its compiler, target and opt fields,
so the compiler writes the same bytes the Python compiler wrote.

The arms keep what the Python binaries that sh binaries replaced did: exit
codes go through ``int()`` and keep their low byte (-1 exits 255, 256 exits
0, ``"3"`` and 3.7 exit 3, beyond a C long 255); a signal name resolves
through ``_signal`` when the table is translated (``"SIG_IGN"`` is signal
1); SIGPIPE and SIGXFSZ, which CPython ignores, and signal 0 send nothing,
so the run exits with the entry's code; and an entry Python failed on (an
unknown signal name, an ``exit`` of null, a negative ``sleep``, text that
is no string) writes what Python wrote before the error, then the error in
one line, and exits 1. ``sleep`` is no sh builtin, so the binary names it
by the absolute path ``write_mock_compiler`` found; bash ignores SIGQUIT,
so under bash a SIGQUIT arm execs the ``kill`` found the same way. Binaries
that older campaigns left behind, Python scripts, keep running: a run job
starts any executable.
"""
from __future__ import annotations

import _signal  # signal itself maps the constants to enums
import hashlib
import io
import json
import os
import shutil
import time
from pathlib import Path

from .errors import ToolNotFound

TABLE_ENV = "RAGFUZZ_MOCK_TABLE"
DEVICE_ENV = "RAGFUZZ_DEVICE"

# The sh form of a table is code the compiler sources: it reads the
# compiler's $out, $compiler, $target, $opt, $SLEEP, $CHMOD, $SLEEP_WORD
# and $KILL_WORD, and defines mock_compile.
_COMPILER_SCRIPT = r"""#!/bin/sh
# Mock compiler: does what the fixture table's record for the sha256 of the
# source says. The table's sh form, written beside it when the table was
# written, holds the records.
SHA256SUM=@@SHA256SUM@@
CHMOD=@@CHMOD@@
SLEEP=@@SLEEP@@
# how binaries name sleep and kill(1), as sh words (empty: no kill found)
SLEEP_WORD=@@SLEEP_WORD@@
KILL_WORD=@@KILL_WORD@@

out= source= have_source= compiler=mockcc target=mock opt=-O0
while [ "$#" -gt 0 ]; do
    case $1 in
    -o | --mock-id | --mock-target)
        if [ "$#" -lt 2 ]; then
            # as the Python compiler failed on a flag without its value
            printf 'IndexError: list index out of range\n' >&2
            exit 1
        fi
        case $1 in
        -o) out=$2 ;;
        --mock-id) compiler=$2 ;;
        *) target=$2 ;;
        esac
        shift ;;
    -O*) opt=$1 ;;
    -*) ;;
    *) source=$1 have_source=1 ;;
    esac
    shift
done
table=${@@TABLE_ENV@@-}
if [ -z "$table" ] || [ -z "$have_source" ]; then
    printf 'mockcc: missing fixture table or source file\n' >&2
    exit 91
fi
digest=$("$SHA256SUM" < "$source") || exit 1
digest=${digest%% *}
case $table in
*/*) ;;
*) table=./$table ;;  # "." searches PATH for a name without a slash
esac
if [ ! -r "$table.sh" ]; then
    printf 'mockcc: fixture table %s has no sh form; write it with ragfuzz.mocktool.write_mock_table\n' "$table" >&2
    exit 91
fi
if [ "$table" -nt "$table.sh" ]; then
    printf 'mockcc: fixture table %s is newer than its sh form; translate it again with ragfuzz.mocktool.translate_mock_table\n' "$table" >&2
    exit 91
fi
. "$table.sh"
mock_compile "$digest"
mock_compile '*'
printf 'mockcc: no fixture entry for source %.12s\n' "$digest" >&2
exit 90
"""

_FIELDS = ("compiler", "target", "opt", "device")
# where a binary names sleep and kill(1), for the compiler to fill in its
# words: no text a binary holds has a NUL
_SLEEP, _KILL = "\0S", "\0K"
_HEX = frozenset("0123456789abcdef")


def source_digest(source_text: str) -> str:
    return hashlib.sha256(source_text.encode("utf-8")).hexdigest()


def write_mock_compiler(path: Path) -> Path:
    """Write the mock compiler, naming the tools it runs by the absolute
    paths this process's PATH finds, so a compile runs with any PATH."""
    tools = {}
    for name in ("sha256sum", "chmod", "sleep"):
        found = shutil.which(name)
        if found is None:
            raise ToolNotFound(f"{name} is not on PATH; the mock compiler needs it")
        tools[name] = os.path.abspath(found)
    kill = shutil.which("kill")  # how bash raises SIGQUIT on itself
    fills = {
        "SHA256SUM": _word(tools["sha256sum"]),
        "CHMOD": _word(tools["chmod"]),
        "SLEEP": _word(tools["sleep"]),
        "SLEEP_WORD": _word(_word(tools["sleep"])),
        "KILL_WORD": _word(_word(os.path.abspath(kill)) if kill else ""),
        "TABLE_ENV": TABLE_ENV,
    }
    # one pass over the template, so a value's own text is kept
    parts = _COMPILER_SCRIPT.split("@@")
    parts[1::2] = [fills[name] for name in parts[1::2]]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes("".join(parts).encode("utf-8", "surrogateescape"))
    os.chmod(path, 0o755)
    return path


def write_mock_table(path: Path, table: dict) -> Path:
    """Write the fixture table as JSON, then its sh form beside it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(table, indent=2, sort_keys=True))
    return translate_mock_table(path)


def translate_mock_table(path: Path) -> Path:
    """Write ``<path>.sh``, the sh form of the JSON fixture table at
    ``path``, from the table as ``json.loads`` reads it; returns ``path``."""
    path = Path(path)
    table = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(table, dict):
        raise ValueError(f"{path}: a mock fixture table is a JSON object")
    lines = ["# Mock fixture table: the JSON table beside this file, as sh.",
             "mock_compile() {", "case $1 in"]
    for key, record in table.items():
        # only a digest or "*" is ever looked up; a falsy digest record falls
        # to "*", and any "*" record but null is the entry
        if key == "*" and record is not None or record and _HEX.issuperset(key) and len(key) == 64:
            lines += [_word(key) + ")", *_record(record), ";;"]
    lines += ["esac", "}", ""]
    sh_path = path.with_name(path.name + ".sh")
    tmp = path.with_name(f"{path.name}.sh.{os.getpid()}.tmp")
    tmp.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
    os.replace(tmp, sh_path)
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


# --- the translation: sh lines doing what the Python compiler did ----------


def _record(record) -> list[str]:
    """sh lines doing what the Python compiler did with one table record:
    sleep, write stdout and stderr, and on exit 0 with -o write the binary;
    where Python raised, the error in one line and exit 1."""
    lines = []
    try:
        comp = record.get("compile", {})
        if comp.get("sleep"):
            secs = float(comp["sleep"])
            if not 0 <= secs < 1e10:
                time.sleep(secs)  # raises on NaN, < 0 and overflow, as in the Python compiler
            lines.append('"$SLEEP" %.9f' % secs)
        # the bytes sys.stdout and sys.stderr wrote under the C locale, and
        # the error they raise on what they cannot write
        for name, errors, redirect in (
            ("stdout", "surrogateescape", ""), ("stderr", "backslashreplace", " >&2")
        ):
            stream = io.TextIOWrapper(io.BytesIO(), "utf-8", errors, write_through=True)
            stream.write(comp.get(name, ""))
            lines += _printf(stream.buffer.getvalue(), redirect)
        code = int(comp.get("exit", 0))
    except Exception as exc:
        return lines + _raised(exc)
    if code == 0:
        lines += [
            'if [ -n "$out" ]; then',
            "{",
            *_binary(record.get("runs", [])),
            '} > "$out" && "$CHMOD" 755 "$out" || exit 1',
            "fi",
        ]
    return lines + [_exit(code)]


def _binary(runs) -> list[str]:
    """sh lines writing to stdout the binary the Python compiler wrote for
    ``runs`` at the coordinates in $compiler, $target and $opt: one case arm
    per device the entries name, "*)" for any other device."""
    devices = {}
    for r in runs if isinstance(runs, list) else ():
        device = r.get("device") if isinstance(r, dict) else None
        if device != "*" and _in_environ(device):
            devices[device] = None
    try:
        entries = [(r, [r.get(field, "*") for field in _FIELDS]) for r in runs]
        raised = None
    except Exception as exc:  # so pick() raised, whatever the coordinates
        entries, raised = [], _raised(exc)
    text = ["#!/bin/sh", "# Mock binary: run entries fixed at compile time, one arm per device.",
            'case "${%s-}" in' % DEVICE_ENV]
    lines = []
    for device in [*devices, None]:
        text.append("*)" if device is None else _word(device) + ")")
        branches = [([], raised)] if raised else _branches(entries, device)
        if len(branches) == 1:
            text += branches[0][1]
        else:
            lines += _writes(text)
            text = []
            for i, (guards, arm) in enumerate(branches):
                test = " && ".join(guards)
                lines.append("else" if not guards else f"if {test}; then" if i == 0
                             else f"elif {test}; then")
                lines += _writes(arm)
            lines.append("fi")
        text.append(";;")
    return lines + _writes([*text, "esac"])


def _branches(entries, device) -> list[tuple[list[str], list[str]]]:
    """(tests, arm) for each entry pick() may choose on ``device`` (None: a
    device no entry names), in its order: score descending, then list order.
    Each holds the tests the compile's coordinates must pass; the last has
    none, and is "no match" unless an entry matches any coordinates."""
    picks = []
    for i, (r, (*coords, want_device)) in enumerate(entries):
        if want_device != "*" and (device is None or want_device != device):
            continue
        tests = []
        for var, want in zip(("compiler", "target", "opt"), coords):
            if want == "*":
                continue
            if not _in_environ(want):
                break  # no argument holds it: the entry never matches
            tests.append('[ "$%s" = %s ]' % (var, _word(want)))
        else:
            picks.append((-len(tests) - (want_device != "*"), i, tests, r))
    branches = []
    for _, _, tests, r in sorted(picks, key=lambda p: p[:2]):
        branches.append((tests, _arm(r)))
        if not tests:
            return branches
    return branches + [([], _arm(None))]


def _arm(r) -> list[str]:
    """sh lines doing what the Python binary did with the entry it picked
    (None: no entry matched): write stdout, then stderr, sleep, raise the
    signal, exit; where Python raised, the error in one line and exit 1."""
    lines = []
    try:
        if r is None:
            r = {"stdout": "mock run ok\n"}
        # encoded as Python's streams did under the C locale
        lines += _printf(r.get("stdout", "").encode("utf-8", "surrogateescape"))
        lines += _printf(r.get("stderr", "").encode("utf-8", "backslashreplace"), " >&2")
        if r.get("sleep"):
            secs = float(r["sleep"])
            if not 0 <= secs < 9e9:  # time.sleep refuses NaN, < 0 and overflow
                raise ValueError("invalid sleep length: %r" % secs)
            lines.append("%s %.9f" % (_SLEEP, secs))
        sig = r.get("signal")
        if sig:
            num = getattr(_signal, sig)
            if type(num) is not int or not 0 <= num < _signal.NSIG:
                raise ValueError("not a signal: %r" % sig)
            # 0 sends nothing, and CPython ignores SIGPIPE and SIGXFSZ
            if num not in (0, _signal.SIGPIPE, _signal.SIGXFSZ):
                lines.append("kill -%d $$" % num)
                if num == _signal.SIGQUIT:
                    # bash ignores SIGQUIT; its exec restores what it inherited
                    lines.append('[ -z "${BASH_VERSION-}" ] || exec %s -%d $$' % (_KILL, num))
        lines.append(_exit(int(r.get("exit", 0))))
    except Exception as exc:
        lines += _raised(exc)
    return lines


def _exit(code: int) -> str:
    # sys.exit keeps the low byte of a C long, and exits 255 beyond one
    return "exit %d" % (code & 255 if -(1 << 63) <= code < 1 << 63 else 255)


def _raised(exc: Exception) -> list[str]:
    error = "%s: %s\n" % (type(exc).__name__, exc)
    return _printf(error.encode("utf-8", "backslashreplace"), " >&2") + ["exit 1"]


def _in_environ(value) -> bool:
    """Whether an argument or environment variable can hold ``value``: no
    NUL, and no surrogate that no byte decodes to."""
    try:
        return isinstance(value, str) and b"\0" not in value.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:
        return False


def _word(text: str) -> str:
    """``text`` as one single-quoted sh word."""
    return "'" + text.replace("'", "'\\''") + "'"


def _format(data: bytes) -> str:
    """A printf format writing exactly these bytes: safe printable ASCII as
    itself, % as %%, any other byte as a \\ooo escape."""
    fmt = "".join("%%" if b == 37 else chr(b) if 32 <= b < 127 and b not in (39, 92)
                  else "\\%03o" % b for b in data)
    return "\\055" + fmt[1:] if fmt.startswith("-") else fmt  # not an option


def _printf(data: bytes, redirect: str = "") -> list[str]:
    return ["printf '%s'%s" % (_format(data), redirect)] if data else []


def _writes(text: list[str]) -> list[str]:
    """sh lines writing each of ``text`` and a newline to stdout, with the
    compiler's $SLEEP_WORD and $KILL_WORD for the markers; a line naming
    kill(1) is left out when the compiler found none."""
    lines, run = [], []
    for line in text:
        if _KILL in line:
            lines += _write_run(run)
            lines += ['[ -z "$KILL_WORD" ] || ' + s for s in _write_run([line])]
            run = []
        else:
            run.append(line)
    return lines + _write_run(run)


def _write_run(text: list[str]) -> list[str]:
    first, *marked = "".join(line + "\n" for line in text).split("\0")
    fmt = _format(first.encode("utf-8", "surrogateescape")) + "".join(
        "%s" + _format(piece[1:].encode("utf-8", "surrogateescape")) for piece in marked
    )
    args = "".join(' "$SLEEP_WORD"' if piece[0] == "S" else ' "$KILL_WORD"' for piece in marked)
    return ["printf '%s'%s" % (fmt, args)] if fmt else []
