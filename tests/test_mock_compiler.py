"""The mock compiler is a POSIX sh script that sources the table's sh form.
Each compile below is checked against the Python compiler it replaced
(``tests/fixtures/python_mock_compiler.tmpl``) on the same table: the exit
code, stdout, stderr and the binary's bytes. The sh compiler runs under
every installed POSIX shell, with an empty ``PATH``.
"""
from __future__ import annotations

import os
import re
import shutil
from pathlib import Path

import pytest
from helpers import (
    MOCK_COORDS,
    assert_refused,
    assert_same_compile,
    compile_outcome,
    write_python_compiler,
)
from test_mock_binary import CASES, REFUSED, TEXT

from ragfuzz.errors import OpenWorldKey, ToolNotFound
from ragfuzz.mocktool import (
    TABLE_ENV,
    source_digest,
    table_entry,
    translate_mock_table,
    write_mock_compiler,
    write_mock_table,
)
from ragfuzz.scenarios import Scenario

SHELLS = [
    [shutil.which(argv[0]), *argv[1:]]
    for argv in (["dash"], ["bash"], ["bash", "--posix"], ["busybox", "sh"])
    if shutil.which(argv[0])
]

# records the Python compiler wrote a binary for, at every (compiler,
# target, opt) below, and records its compile step did something else with
COORDS = [
    MOCK_COORDS,
    ("cc2", "mock-spir", "-O2"),
    ("cc1", "mock-spir", "-O3"),
    ("cc1", "mock", "-O2"),
    ("cc2", "mock", "-O0"),
    ("it's", "mock-spir", "-O2"),
]
COMPILE_CASES = {
    "text": {"compile": {"stdout": TEXT, "stderr": TEXT[::-1]}},
    "leading_dash": {"compile": {"stdout": "-n", "stderr": "--"}},
    "non_ascii": {"compile": {"stdout": "grüße ☃\n", "stderr": "é\n"}},
    "lone_surrogate": {"compile": {"stdout": "a\udc80b", "stderr": "c\ud800\n"}},
    "error_exit": {"compile": {"exit": 1, "stderr": "error: use of undeclared identifier\n"}},
    **{f"exit_{value!r}": {"compile": {"exit": value}, "runs": [{"stdout": "built\n"}]}
       for value in (3, 255, "0", 0.5, True)},
    "no_compile": {"runs": [{"device": "devA", "stdout": "no compile step\n"}]},
    "short_sleep": {"compile": {"stdout": "slept\n", "sleep": "0.05"}},
}
RECORDS = {
    **{f"runs_{name}": {"compile": {"exit": 0}, "runs": runs} for name, runs in CASES.items()},
    **COMPILE_CASES,
}
# records the Python compiler failed on, and the field path under the
# digest each is refused at
REFUSED_RECORDS = {
    **{f"runs_{name}": ({"compile": {"exit": 0}, "runs": runs}, field_path)
       for name, (runs, field_path) in REFUSED.items()},
    "unencodable_stdout": ({"compile": {"stdout": "a\ud800b", "stderr": "never written\n"}},
                           "compile.stdout"),
    **{f"exit_{value!r}": ({"compile": {"exit": value}, "runs": [{"stdout": "built\n"}]},
                           "compile.exit")
       for value in (-1, 256, None, "x", 2**63)},
    "stdout_not_text": ({"compile": {"stdout": 5}}, "compile.stdout"),
    "stderr_not_text": ({"compile": {"stdout": "out\n", "stderr": ["err"]}}, "compile.stderr"),
    "compile_not_object": ({"compile": [1]}, "compile"),
    "compile_null": ({"compile": None}, "compile"),
    "record_not_object": ([1], ""),
    "record_text": ("abc", ""),
    "sleep_text": ({"compile": {"stdout": "never written\n", "sleep": "soon"}}, "compile.sleep"),
    "negative_sleep": ({"compile": {"sleep": -1}}, "compile.sleep"),
    "nan_sleep": ({"compile": {"sleep": float("nan")}}, "compile.sleep"),
    "overflowing_sleep": ({"compile": {"sleep": 1e300}}, "compile.sleep"),
}


def _source(name: str) -> str:
    return f"int main() {{ /* {name} */ }}\n"


def _compile(argv, env, cwd) -> tuple:
    return compile_outcome(argv, env, cwd, Path(cwd) / "a.out")


@pytest.fixture(scope="module")
def compilers(tmp_path_factory):
    """(workdir, sh compiler, Python compiler, table path) over RECORDS."""
    tmp = tmp_path_factory.mktemp("mock_compilers")
    table = {source_digest(_source(name)): record for name, record in RECORDS.items()}
    table_path = write_mock_table(tmp / "table.json", table)
    for name in RECORDS:
        (tmp / f"{name}.cpp").write_text(_source(name))
    (tmp / "empty_bin").mkdir()
    return tmp, write_mock_compiler(tmp / "mockcc"), write_python_compiler(tmp / "python_mockcc"), table_path


def _parity(compilers, args, table_env=True, shells=SHELLS):
    """Compile ``args`` with the Python compiler and with the sh one under
    each shell; the sh ones run with an empty PATH."""
    tmp, cc, python_cc, table_path = compilers
    env = {"LC_ALL": "C"}  # the Python compiler's stdout took surrogate escapes in C
    if table_env:
        env[TABLE_ENV] = str(table_path)
    want = _compile([str(python_cc), *args], {**os.environ, **env}, tmp)
    sh_env = {**env, "PATH": str(tmp / "empty_bin")}
    for shell in shells:
        assert_same_compile(_compile([*shell, str(cc), *args], sh_env, tmp), want, (shell, args))
    return want


@pytest.mark.parametrize("name", [*RECORDS, *REFUSED_RECORDS])
def test_sh_compiler_compiles_as_the_python_compiler_did(compilers, tmp_path, name):
    if name in REFUSED_RECORDS:  # nothing is compiled from it
        assert_refused(*MALFORMED[name], tmp_path)
        return
    if not SHELLS:
        pytest.skip("no POSIX shell installed")
    coords = COORDS if name == "runs_most_specific" else [MOCK_COORDS]
    for compiler, target, opt in coords:
        _parity(compilers, ["--mock-id", compiler, "--mock-target", target, opt,
                            f"{name}.cpp", "-o", "a.out"])


@pytest.mark.parametrize("args", [
    [],  # no source: exit 91
    ["-o", "a.out", "runs_empty_entry.cpp"],  # flags in any order
    ["runs_empty_entry.cpp"],  # no -o: exit 0, no binary
    ["runs_empty_entry.cpp", "-o", ""],
    ["runs_empty_entry.cpp", "-O", "-", "--other", "text.cpp", "-o", "a.out"],  # last source wins
    ["stranger.cpp", "-o", "a.out"],  # no record: exit 90
], ids=lambda args: " ".join(args) or "none")
def test_sh_compiler_reads_arguments_as_the_python_compiler_did(compilers, args):
    tmp = compilers[0]
    (tmp / "stranger.cpp").write_text("int stranger;\n")
    _parity(compilers, args)


@pytest.mark.parametrize("flag", ["-o", "--mock-id", "--mock-target"])
def test_flag_without_its_value_exits_one(compilers, flag):
    tmp, cc, python_cc, table_path = compilers
    env = {TABLE_ENV: str(table_path), "PATH": str(tmp / "empty_bin")}
    for shell in SHELLS:
        got = _compile([*shell, str(cc), "runs_empty_entry.cpp", flag], env, tmp)
        assert got == (1, b"", f"mockcc: {flag} needs a value\n".encode(), None), shell
    # the Python compiler raised an IndexError
    code, stdout, _, binary = _compile([str(python_cc), "runs_empty_entry.cpp", flag], env, tmp)
    assert (code, stdout, binary) == (1, b"", None)


def test_sh_compiler_needs_the_table_variable(compilers):
    code, _, stderr, _ = _parity(compilers, ["text.cpp", "-o", "a.out"], table_env=False)
    assert (code, stderr) == (91, b"mockcc: missing fixture table or source file\n")


def test_star_record_is_the_fallback_unless_null(tmp_path):
    cc, python_cc = write_mock_compiler(tmp_path / "mockcc"), write_python_compiler(tmp_path / "py")
    (tmp_path / "a.cpp").write_text(_source("a"))
    star = table_entry(compile_stdout="star\n", runs=[{"stdout": "star run\n"}])
    digest = source_digest(_source("a"))
    tables = {
        "star": {"*": star},
        "null_record": {digest: None, "*": star},
        "empty_record": {digest: {}, "*": star},
        "empty_star": {"*": {}},
        "null_star": {digest: None, "*": None},
    }
    outcomes = {}
    for label, table in tables.items():
        table_path = write_mock_table(tmp_path / f"{label}.json", table)
        env = {**os.environ, TABLE_ENV: str(table_path), "LC_ALL": "C"}
        want = _compile([str(python_cc), "a.cpp", "-o", "a.out"], env, tmp_path)
        assert_same_compile(_compile([str(cc), "a.cpp", "-o", "a.out"], env, tmp_path), want, label)
        outcomes[label] = want[:2]
    assert outcomes == {
        "star": (0, b"star\n"),
        "null_record": (0, b"star\n"),
        "empty_record": (0, b""),
        "empty_star": (0, b""),
        "null_star": (90, b""),
    }


D = source_digest(_source("malformed"))


def _runs(*runs) -> dict:
    return {D: {"runs": list(runs)}}


# every table refused where it is written, and the field path it is refused at
MALFORMED = {
    **{name: ({D: record}, f"{D}.{field_path}" if field_path else D)
       for name, (record, field_path) in REFUSED_RECORDS.items()},
    "key_not_hex": ({"nothex": {}}, "nothex"),
    "key_upper_hex": ({D.upper(): {}}, D.upper()),
    "key_short": ({D[:63]: {}}, D[:63]),
    "record_false": ({"*": 0}, "*"),
    "compile_exit_inf": ({D: {"compile": {"exit": float("inf")}}}, f"{D}.compile.exit"),
    "compile_sleep_null": ({D: {"compile": {"sleep": None}}}, f"{D}.compile.sleep"),
    "run_sleep_overflow": (_runs({"sleep": 1e300}), f"{D}.runs[0].sleep"),
    "run_unencodable_stdout_later": (_runs({}, {"stdout": "a\ud800b"}), f"{D}.runs[1].stdout"),
    # no argument or environment variable can hold these, so they never matched
    **{f"run_device_{value!r}": (_runs({"device": value}), f"{D}.runs[0].device")
       for value in ("a\x00b", "\ud800", None, 1)},
    "run_compiler_nul": (_runs({"compiler": "cc\x001"}), f"{D}.runs[0].compiler"),
    "run_target_surrogate": (_runs({"target": "\udfff"}), f"{D}.runs[0].target"),
    "run_opt_not_text": (_runs({"opt": 2}), f"{D}.runs[0].opt"),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_entry_is_refused_with_its_field_path(tmp_path, name):
    table, field_path = MALFORMED[name]
    assert_refused(table, field_path, tmp_path)
    with pytest.raises(OpenWorldKey, match=re.escape(f"tool table: {field_path}: ")):
        Scenario("bad", tool_table=table).validate()


def test_unreadable_source_exits_one(compilers):
    tmp, cc, python_cc, table_path = compilers
    env = {**os.environ, TABLE_ENV: str(table_path)}
    for source in ("missing.cpp", str(tmp), ""):
        for compiler in (cc, python_cc):
            code, stdout, _, binary = _compile([str(compiler), source, "-o", "a.out"], env, tmp)
            assert (code, stdout, binary) == (1, b"", None), (compiler, source)


def test_compile_refuses_a_missing_or_stale_sh_form(tmp_path):
    cc = write_mock_compiler(tmp_path / "mockcc")
    (tmp_path / "a.cpp").write_text(_source("a"))
    table_path = tmp_path / "table.json"
    table_path.write_text('{"*": {}}')  # no sh form beside it
    env = {**os.environ, TABLE_ENV: "table.json"}
    argv = [str(cc), "a.cpp", "-o", "a.out"]
    assert _compile(argv, env, tmp_path) == (91, b"", (
        "mockcc: fixture table ./table.json has no sh form; write it with "
        "ragfuzz.mocktool.write_mock_table\n").encode(), None)
    translate_mock_table(table_path)
    assert _compile(argv, env, tmp_path)[0] == 0
    sh_mtime = table_path.with_name("table.json.sh").stat().st_mtime_ns
    os.utime(table_path, ns=(sh_mtime, sh_mtime + 1000))
    assert _compile(argv, env, tmp_path) == (91, b"", (
        "mockcc: fixture table ./table.json is newer than its sh form; translate it "
        "again with ragfuzz.mocktool.translate_mock_table\n").encode(), None)
    write_mock_table(table_path, {"*": {}})
    assert _compile(argv, env, tmp_path)[0] == 0


@pytest.mark.parametrize("missing", ["sha256sum", "chmod", "sleep"])
def test_mock_compiler_needs_its_tools_on_path(tmp_path, monkeypatch, missing):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for tool in {"sha256sum", "chmod", "sleep", "kill"} - {missing}:
        if shutil.which(tool):
            (bin_dir / tool).symlink_to(shutil.which(tool))
    monkeypatch.setenv("PATH", str(bin_dir))
    with pytest.raises(ToolNotFound, match=f"^{missing} is not on PATH"):
        write_mock_compiler(tmp_path / "mockcc")
    assert not (tmp_path / "mockcc").exists()

