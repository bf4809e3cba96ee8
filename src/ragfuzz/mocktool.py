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
is exercised without any real compiler. The compiler fixes the binary's run
entries at compile time: it writes the ``runs`` list of the source's record
into the binary as a Python literal, so editing the table afterwards does
not change binaries already built. At run time the binary picks one entry,
most specific first, against its compile coordinates plus the RAGFUZZ_DEVICE
environment variable; ``"*"`` (or an omitted field) matches anything, and
when nothing matches it prints ``mock run ok``. A binary imports only ``os``
and ``sys`` eagerly (``time`` and ``signal`` only for an entry that sleeps or
raises a signal): most of a campaign's jobs are runs, and ``json`` or
``signal`` would each pull in ``enum`` and double a run's start-up cost.

The compiler imports only ``os`` and ``sys`` eagerly too, since every gate
and matrix compile is one start of it: it decodes the table with ``_json``'s
C scanner (the one ``json.loads`` runs) instead of importing ``json``, and
hashes with ``_sha2``/``_sha256`` instead of ``hashlib``. README's "Mock
toolchain fixture format" gives the details and the fallbacks.

Both scripts start as ``#!<interpreter> -IS``, where the interpreter is the
``sys.executable`` that wrote them: a job runs under the harness's own Python
whatever ``PATH`` its env sets, ``-I`` keeps ``PYTHON*`` variables and the
script's directory out of its imports, and ``-S`` skips site-packages (the
mock needs only the stdlib, and ``.pth`` hooks there can cost several times
the mock's own start-up).
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

from .errors import InvalidInterpreter

TABLE_ENV = "RAGFUZZ_MOCK_TABLE"
DEVICE_ENV = "RAGFUZZ_DEVICE"

_RUNNER_SCRIPT = r"""#!@@PY@@ -IS
# Mock binary: run entries fixed at compile time, picked by device at run time.
import os, sys

COMPILER = @@C@@
TARGET = @@T@@
OPT = @@O@@
DEVICE_ENV = @@DE@@
inf, nan = float("inf"), float("nan")  # how repr() spells JSON's Infinity and NaN
RUNS = @@RUNS@@


def pick(runs, device):
    best, best_score = None, -1
    for r in runs:
        score, ok = 0, True
        for field, value in (("compiler", COMPILER), ("target", TARGET),
                             ("opt", OPT), ("device", device)):
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


def main():
    r = pick(RUNS, os.environ.get(DEVICE_ENV, ""))
    if r is None:
        r = {"stdout": "mock run ok\n", "exit": 0}
    sys.stdout.write(r.get("stdout", ""))
    sys.stdout.flush()
    sys.stderr.write(r.get("stderr", ""))
    sys.stderr.flush()
    if r.get("sleep"):
        import time
        time.sleep(float(r["sleep"]))
    sig = r.get("signal")
    if sig:
        import signal
        os.kill(os.getpid(), getattr(signal, sig))
    sys.exit(int(r.get("exit", 0)))


if __name__ == "__main__":
    main()
"""

_COMPILER_SCRIPT = r"""#!@@PY@@ -IS
# Mock compiler: behavior scripted by a JSON table keyed by source sha256.
# Every compile starts this script, so it imports only os and sys eagerly.
import os, sys

TABLE_ENV = @@TABLE_ENV@@
DEVICE_ENV = @@DEVICE_ENV@@
RUNNER_PARTS = @@RUNNER@@


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
        fills = {"PY": sys.executable, "C": repr(compiler_id), "T": repr(target),
                 "O": repr(opt), "DE": repr(DEVICE_ENV),
                 "RUNS": repr(entry.get("runs", []))}
        parts = list(RUNNER_PARTS)
        parts[1::2] = [fills[name] for name in parts[1::2]]
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("".join(parts))
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fills = {
        "PY": interpreter,
        "TABLE_ENV": repr(TABLE_ENV),
        "DEVICE_ENV": repr(DEVICE_ENV),
        "RUNNER": repr(_RUNNER_SCRIPT.split("@@")),
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
