"""Scripted mock toolchain: real executables honoring a fixture table.

The table is JSON keyed by the sha256 hex digest of the source file bytes,
one record per source hash, with an optional ``"*"`` fallback for a digest
with no record or a null one:

    {
      "<sha256 of source>": {
        "compile": {"exit": 0, "stdout": "", "stderr": "", "sleep": 0},
        "runs": [
          {"compiler": "cc1", "target": "*", "opt": "-O2", "device": "devB",
           "stdout": "...", "stderr": "", "exit": 0, "signal": null, "sleep": 0}
        ]
      }
    }

A table is decoded into ``MockRecord`` values when it is written
(``decode_mock_table``). A malformed entry raises a ``RecordError`` naming
its field path, such as ``<digest>.runs[1].signal``: a key that is neither
a digest nor ``"*"``, a field of the wrong type, an ``exit`` outside
0..255, a ``sleep`` that is NaN, negative or overflows, a ``signal`` that
is no ``signal.Signals`` name, a stdout with a surrogate no byte decodes
to, or a coordinate or device name no argument or environment variable can
hold. Numbers are coerced with ``int()`` and ``float()``, so ``"3"`` and
3.7 exit 3.

Every gate and matrix compile is one start of the mock compiler, so it is a
POSIX ``#!/bin/sh`` script that starts no Python, and the table is
translated to sh once, when it is written: ``write_mock_table`` writes
``table.json`` and then its sh form ``table.json.sh`` beside it
(``translate_mock_table`` writes the sh form of a ``table.json`` written
some other way). The sh form defines ``mock_compile``, a ``case`` with one
arm per record keyed by the quoted digest or a literal ``'*'``; a compile
hashes the source with ``sha256sum``, sources the sh form and calls
``mock_compile`` with the digest, then with ``*``. It names ``sha256sum``,
``chmod`` and ``sleep`` by the absolute paths ``write_mock_compiler``
found on its ``PATH``, and exits 91 when the sh form is missing or older
than ``table.json``. Each arm does what the Python compiler
(``tests/fixtures/python_mock_compiler.tmpl``) did with the record: sleep,
write the compile's stdout and stderr, and exit with its code, writing the
output binary first on exit 0 with ``-o``.

A binary is a POSIX ``#!/bin/sh`` script whose run entries are fixed at
compile time, so editing the table does not change binaries already built.
The compiler knows the binary's compiler, target and opt level, so it picks
the entry for each device the record's ``runs`` name, and for any other
device, most specific first (``"*"``, or an omitted field, matches
anything; with no match the binary prints ``mock run ok``). Each pick is
one arm of ``case "${RAGFUZZ_DEVICE-}"``: ``printf`` with every byte but
safe printable ASCII as an octal escape (stdout encoded as UTF-8 with
surrogate escapes, stderr with backslash escapes), ``sleep`` by its
absolute path, ``kill -N $$`` (none for SIGPIPE and SIGXFSZ, which the
Python binaries ignored; under bash, which ignores SIGQUIT, a SIGQUIT arm
execs ``kill``) and ``exit N``. The sh form holds, for each arm, the arm
texts of the entries the pick may choose, in its order (score descending,
then list order), each guarded by ``[ "$compiler" = '...' ]`` tests on its
compiler, target and opt fields, so the compiler writes the bytes the
Python compiler wrote. Binaries that older campaigns left behind, Python
scripts, keep running: a run job starts any executable.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from signal import Signals

from .errors import RecordError, ToolNotFound
from .records import from_record

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
            printf 'mockcc: %s needs a value\n' "$1" >&2
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
# time.sleep overflows near 9.2e9 s
_MAX_SLEEP = 9e9


def _encoded(name: str, text: str) -> bytes:
    try:
        return text.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:
        raise RecordError(name, f"holds a surrogate no byte decodes to: {text!r}") from None


@dataclass(frozen=True)
class MockCompile:
    exit: int = 0
    stdout: str = ""
    stderr: str = ""
    sleep: float = 0.0

    def __post_init__(self):
        if not 0 <= self.exit <= 255:
            raise RecordError("exit", f"must be in 0..255, got {self.exit}")
        if not 0 <= self.sleep < _MAX_SLEEP:  # NaN fails too
            raise RecordError("sleep", f"must be in [0, {_MAX_SLEEP:g}) s, got {self.sleep!r}")
        _encoded("stdout", self.stdout)


@dataclass(frozen=True)
class MockRun(MockCompile):
    compiler: str = "*"
    target: str = "*"
    opt: str = "*"
    device: str = "*"
    signal: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.signal is not None and self.signal not in Signals.__members__:
            raise RecordError("signal", f"is not a signal name: {self.signal!r}")
        for name in _FIELDS:
            if b"\0" in _encoded(name, getattr(self, name)):
                raise RecordError(name, "no argument or environment variable holds a NUL")


@dataclass(frozen=True)
class MockRecord:
    compile: MockCompile = MockCompile()
    runs: tuple[MockRun, ...] = ()


_NO_MATCH = MockRun(stdout="mock run ok\n")


def decode_mock_table(table) -> dict[str, MockRecord | None]:
    """The records of a fixture table; a malformed entry raises a
    ``RecordError`` naming its field path."""
    records = from_record(dict[str, MockRecord | None], table)
    for key in records:
        if key != "*" and not (isinstance(key, str) and len(key) == 64 and _HEX.issuperset(key)):
            raise RecordError(str(key), "is neither a sha256 hex digest nor '*'")
    return records


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
    """Write the fixture table as JSON, then its sh form beside it; a
    malformed entry is refused before anything is written."""
    records = decode_mock_table(table)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(table, indent=2, sort_keys=True))
    _write_sh(path, dict(sorted(records.items())))  # in the JSON's order
    return path


def translate_mock_table(path: Path) -> Path:
    """Write ``<path>.sh``, the sh form of the JSON fixture table at
    ``path``; returns ``path``."""
    path = Path(path)
    _write_sh(path, decode_mock_table(json.loads(path.read_text(encoding="utf-8"))))
    return path


def _write_sh(path: Path, records: dict[str, MockRecord | None]) -> None:
    lines = ["# Mock fixture table: the JSON table beside this file, as sh.",
             "mock_compile() {", "case $1 in"]
    for key, record in records.items():
        if record is not None:  # null falls back to "*"
            lines += [_word(key) + ")", *_record(record), ";;"]
    lines += ["esac", "}", ""]
    tmp = path.with_name(f"{path.name}.sh.{os.getpid()}.tmp")
    tmp.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
    os.replace(tmp, path.with_name(path.name + ".sh"))


def table_entry(
    compile_exit: int = 0,
    compile_stderr: str = "",
    compile_stdout: str = "",
    runs: list[dict] | None = None,
) -> dict:
    step = {"exit": compile_exit, "stderr": compile_stderr, "stdout": compile_stdout}
    return {"compile": step, "runs": runs or []}


def _record(record: MockRecord) -> list[str]:
    """sh lines doing what the Python compiler did with one table record:
    sleep, write stdout and stderr, and on exit 0 with -o write the binary."""
    comp, lines = record.compile, []
    if comp.sleep:
        lines.append('"$SLEEP" %.9f' % comp.sleep)
    # the bytes sys.stdout and sys.stderr wrote under the C locale
    lines += _printf(comp.stdout.encode("utf-8", "surrogateescape"))
    lines += _printf(comp.stderr.encode("utf-8", "backslashreplace"), " >&2")
    if comp.exit == 0:
        lines += [
            'if [ -n "$out" ]; then',
            "{",
            *_binary(record.runs),
            '} > "$out" && "$CHMOD" 755 "$out" || exit 1',
            "fi",
        ]
    return lines + ["exit %d" % comp.exit]


def _binary(runs: tuple[MockRun, ...]) -> list[str]:
    """sh lines writing to stdout the binary the Python compiler wrote for
    ``runs`` at the coordinates in $compiler, $target and $opt: one case arm
    per device the entries name, "*)" for any other device."""
    devices = dict.fromkeys(r.device for r in runs if r.device != "*")
    text = ["#!/bin/sh", "# Mock binary: run entries fixed at compile time, one arm per device.",
            'case "${%s-}" in' % DEVICE_ENV]
    lines = []
    for device in [*devices, None]:
        text.append("*)" if device is None else _word(device) + ")")
        branches = _branches(runs, device)
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


def _branches(runs: tuple[MockRun, ...], device: str | None) -> list[tuple[list[str], list[str]]]:
    """(tests, arm) for each entry pick() may choose on ``device`` (None: a
    device no entry names), in its order: score descending, then list order.
    Each holds the tests the compile's coordinates must pass; the last has
    none, and is "no match" unless an entry matches any coordinates."""
    picks = []
    for i, r in enumerate(runs):
        if r.device != "*" and r.device != device:
            continue
        tests = ['[ "$%s" = %s ]' % (var, _word(getattr(r, var)))
                 for var in _FIELDS[:3] if getattr(r, var) != "*"]
        picks.append((-len(tests) - (r.device != "*"), i, tests, r))
    branches = []
    for _, _, tests, r in sorted(picks, key=lambda p: p[:2]):
        branches.append((tests, _arm(r)))
        if not tests:
            return branches
    return branches + [([], _arm(_NO_MATCH))]


def _arm(r: MockRun) -> list[str]:
    """sh lines doing what the Python binary did with the entry it picked:
    write stdout, then stderr, sleep, raise the signal, exit."""
    # encoded as Python's streams did under the C locale
    lines = _printf(r.stdout.encode("utf-8", "surrogateescape"))
    lines += _printf(r.stderr.encode("utf-8", "backslashreplace"), " >&2")
    if r.sleep:
        lines.append("%s %.9f" % (_SLEEP, r.sleep))
    num = r.signal and Signals[r.signal]
    # CPython ignores SIGPIPE and SIGXFSZ
    if num and num not in (Signals.SIGPIPE, Signals.SIGXFSZ):
        lines.append("kill -%d $$" % num)
        if num == Signals.SIGQUIT:
            # bash ignores SIGQUIT; its exec restores what it inherited
            lines.append('[ -z "${BASH_VERSION-}" ] || exec %s -%d $$' % (_KILL, num))
    return lines + ["exit %d" % r.exit]


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
