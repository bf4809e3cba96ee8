"""Extraction of functions, classes and namespaces from compiler-pass sources.

The scanner is deliberately heuristic: a signature regex plus brace matching,
not a C++ parser. Extracted bodies feed LLM prompts, so best-effort fidelity
is enough; unparseable or unbalanced regions are skipped rather than fatal.
"""
from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from enum import Enum
from fnmatch import fnmatchcase
from pathlib import Path

from .errors import EmptySource


class DefinitionKind(str, Enum):
    FUNCTION = "function"
    METHOD = "method"
    CLASS = "class"
    NAMESPACE = "namespace"


@dataclass(frozen=True)
class PassSource:
    """One source file of the compiler pass under test."""

    pass_name: str
    file_path: Path
    content: str


@dataclass(frozen=True)
class PassFunction:
    """One extracted definition: signature through closing brace, verbatim.

    char_span is the exact (start, end) offset pair such that
    ``content[start:end] == body``; line_span is the 1-based inclusive line
    range those offsets fall into.
    """

    pass_name: str
    qualified_name: str
    kind: DefinitionKind
    body: str
    line_span: tuple[int, int]
    char_span: tuple[int, int]
    depth: int = 0

    @property
    def line_count(self) -> int:
        return self.line_span[1] - self.line_span[0] + 1


_KEYWORDS = frozenset(
    "if for while switch catch return else do sizeof new delete throw "
    "case default alignas alignof static_assert decltype typedef using "
    "asm goto".split()
)

# C++17 nested namespace definitions ("namespace a::b {") included.
_NAMESPACE_RE = re.compile(r"\bnamespace\b\s*((?:[A-Za-z_]\w*)(?:\s*::\s*[A-Za-z_]\w*)*)?\s*$")
_CLASS_RE = re.compile(
    r"\b(?:class|struct)\b(?:\s+[A-Za-z_]\w*)*?\s+([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^;{]*)?$"
)
_NAME_BEFORE_PAREN_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*(?:operator\s*[^\s\w(]{1,3}|operator\s*[A-Za-z_]\w*|~?[A-Za-z_]\w*))\s*$"
)
# Tokens that may legally sit between a parameter list and the opening brace.
_TRAILING_QUALIFIER_RE = re.compile(
    r"(?:\s|\bconst\b|\bnoexcept\b|\boverride\b|\bfinal\b|\bvolatile\b|\btry\b|&&|&)+$"
)


def _blank_comments_and_strings(text: str) -> str:
    """Return a same-length copy with comment and literal contents spaced out.

    Newlines are preserved so offsets and line numbers stay aligned with the
    original text. The copy is only used for structural scanning; bodies are
    always sliced from the original.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        elif c == '"' and text[i - 1 : i + 1] == 'R"':
            # Raw string literal: R"delim( ... )delim"
            m = re.match(r'R"([^\s()\\]{0,16})\(', text[i - 1 : i + 32])
            if m:
                delim = m.group(1)
                close = text.find(f"){delim}\"", i)
                j = n if close == -1 else close + len(delim) + 2
                for k in range(i, j):
                    if out[k] != "\n":
                        out[k] = " "
                i = j
            else:
                i += 1
        elif c in ("\"", "'"):
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == c or text[j] == "\n":
                    break
                j += 1
            j = min(j + 1, n)
            for k in range(i + 1, j - 1):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        else:
            i += 1
    return "".join(out)


def _match_brace(shadow: str, open_idx: int) -> int:
    """Index of the brace closing shadow[open_idx], or -1 when unbalanced."""
    depth = 0
    for i in range(open_idx, len(shadow)):
        if shadow[i] == "{":
            depth += 1
        elif shadow[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _drop_preprocessor_lines(head: str) -> str:
    return "\n".join(l for l in head.split("\n") if not l.lstrip().startswith("#"))


def _strip_template_prefix(head: str) -> str:
    m = re.match(r"\s*template\s*<", head)
    if not m:
        return head
    depth = 0
    for i in range(m.end() - 1, len(head)):
        if head[i] == "<":
            depth += 1
        elif head[i] == ">":
            depth -= 1
            if depth == 0:
                return head[i + 1 :]
    return head


def _has_toplevel_assignment(head: str) -> bool:
    """True when head contains a plain '=' outside any bracket nesting.

    Comparison/compound operators and 'operator=' spellings do not count;
    a surviving '=' marks an initializer, so the brace is not a definition.
    """
    depth = 0
    i = 0
    while i < len(head):
        c = head[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "=" and depth == 0:
            prev = head[i - 1] if i else ""
            nxt = head[i + 1] if i + 1 < len(head) else ""
            if nxt == "=":
                i += 2
                continue
            if prev in "=!<>+-*/%&|^":
                i += 1
                continue
            if re.search(r"\boperator\s*$", head[:i]):
                i += 1
                continue
            return True
        i += 1
    return False


def _strip_ctor_initializers(head: str) -> str:
    """Drop a constructor initializer list tail (": x_(0), y_(1)") if present."""
    depth = 0
    for i in range(len(head) - 1, -1, -1):
        c = head[i]
        if c in ")>]":
            depth += 1
        elif c in "(<[":
            depth -= 1
        elif c == ":" and depth == 0:
            if i > 0 and head[i - 1] == ":":
                return head  # part of '::', not an initializer list
            if i + 1 < len(head) and head[i + 1] == ":":
                return head
            return head[:i]
    return head


def _function_name(head: str) -> str | None:
    """Name of the function a definition head introduces, or None."""
    head = _strip_ctor_initializers(head.rstrip())
    head = _TRAILING_QUALIFIER_RE.sub("", head)
    # Trailing return type: "auto f(...) -> T".
    arrow = head.rfind("->")
    if arrow != -1 and ")" in head[:arrow]:
        head = head[: head.rfind(")", 0, arrow) + 1]
    if not head.endswith(")"):
        return None
    depth = 0
    open_idx = -1
    for i in range(len(head) - 1, -1, -1):
        if head[i] == ")":
            depth += 1
        elif head[i] == "(":
            depth -= 1
            if depth == 0:
                open_idx = i
                break
    if open_idx <= 0:
        return None
    before = head[:open_idx].rstrip()
    if before.endswith(">"):  # explicit template args on the name: f<int>(...)
        tdepth = 0
        for i in range(len(before) - 1, -1, -1):
            if before[i] == ">":
                tdepth += 1
            elif before[i] == "<":
                tdepth -= 1
                if tdepth == 0:
                    before = before[:i].rstrip()
                    break
    m = _NAME_BEFORE_PAREN_RE.search(before)
    if not m:
        return None
    name = re.sub(r"\s+", "", m.group(1))
    last = name.rsplit("::", 1)[-1].lstrip("~")
    if last in _KEYWORDS or not last:
        return None
    # A lone name with nothing before it is a call or macro, not a definition,
    # unless it is a qualified constructor/destructor spelling (Foo::Foo).
    rest = before[: m.start()].strip()
    if not rest and "::" not in name and not name.startswith("operator"):
        return None
    if rest.split()[-1:] in (["return"], ["new"], ["throw"]):
        return None
    return name


def _line_starts(text: str) -> list[int]:
    starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            starts.append(i + 1)
    return starts


def _line_of(starts: list[int], offset: int) -> int:
    return bisect.bisect_right(starts, offset)


def extract_functions(source: PassSource) -> list[PassFunction]:
    """Scan a pass source file for function/class/namespace definitions.

    Returns definitions found at file scope and inside namespaces, ordered by
    start line. Bodies are verbatim substrings of the input; nested lambdas
    and class members travel inside their enclosing body.
    """
    if not source.content.strip():
        raise EmptySource(f"{source.file_path}: blank source content")
    content = source.content
    shadow = _blank_comments_and_strings(content)
    starts = _line_starts(content)
    results: list[PassFunction] = []
    _scan_scope(source, content, shadow, starts, 0, len(content), "", 0, results)
    results.sort(key=lambda f: f.char_span[0])
    return results


def _scan_scope(
    source: PassSource,
    content: str,
    shadow: str,
    line_starts: list[int],
    lo: int,
    hi: int,
    ns_prefix: str,
    depth: int,
    out: list[PassFunction],
) -> None:
    pos = lo
    while pos < hi:
        brace = shadow.find("{", pos, hi)
        if brace == -1:
            return
        close = _match_brace(shadow[:hi], brace)
        if close == -1:
            return  # unbalanced region: skip the remainder of this scope
        head_start = _head_start(shadow, lo, brace)
        head = shadow[head_start:brace]
        stripped = _drop_preprocessor_lines(head).strip()
        sig_start = head_start + _sig_offset(head)

        ns_match = _NAMESPACE_RE.search(stripped) if "namespace" in stripped else None
        class_match = None
        if ns_match is None and re.search(r"\b(class|struct)\b", stripped) and "enum" not in stripped.split():
            class_match = _CLASS_RE.search(stripped)

        if ns_match is not None:
            name = ns_match.group(1)
            if name:
                name = re.sub(r"\s+", "", name)
                out.append(
                    _make(source, content, line_starts, ns_prefix, name,
                          DefinitionKind.NAMESPACE, sig_start, close, depth)
                )
                inner_prefix = f"{ns_prefix}{name}::"
            else:
                inner_prefix = ns_prefix  # anonymous namespace
            _scan_scope(source, content, shadow, line_starts, brace + 1, close,
                        inner_prefix, depth + 1, out)
        elif class_match is not None:
            out.append(
                _make(source, content, line_starts, ns_prefix, class_match.group(1),
                      DefinitionKind.CLASS, sig_start, close, depth)
            )
        else:
            candidate = _strip_template_prefix(stripped)
            if not _has_toplevel_assignment(_strip_ctor_initializers(candidate)):
                name = _function_name(candidate)
                if name is not None:
                    kind = DefinitionKind.METHOD if "::" in name else DefinitionKind.FUNCTION
                    out.append(
                        _make(source, content, line_starts, ns_prefix, name, kind,
                              sig_start, close, depth)
                    )
        pos = close + 1


def _sig_offset(head: str) -> int:
    """Offset of the first signature character: past blanks and '#' lines."""
    off = 0
    for line in head.split("\n"):
        ls = line.lstrip()
        if ls and not ls.startswith("#"):
            return off + (len(line) - len(ls))
        off += len(line) + 1
    return 0


def _head_start(shadow: str, lo: int, brace: int) -> int:
    """Offset where the definition head introducing shadow[brace] begins."""
    i = brace - 1
    while i >= lo and shadow[i] not in ";{}":
        i -= 1
    start = i + 1
    # Pull in an immediately preceding template<...> prefix.
    prefix = shadow[lo:start]
    m = re.search(r"template\s*<[^<>;{}]*>\s*$", prefix)
    if m:
        start = lo + m.start()
    return start


def _make(
    source: PassSource,
    content: str,
    line_starts: list[int],
    ns_prefix: str,
    name: str,
    kind: DefinitionKind,
    sig_start: int,
    close: int,
    depth: int,
) -> PassFunction:
    body = content[sig_start : close + 1]
    return PassFunction(
        pass_name=source.pass_name,
        qualified_name=f"{ns_prefix}{name}",
        kind=kind,
        body=body,
        line_span=(_line_of(line_starts, sig_start), _line_of(line_starts, close)),
        char_span=(sig_start, close + 1),
        depth=depth,
    )


def filter_candidates(
    functions: list[PassFunction],
    min_lines: int,
    name_patterns: list[str],
) -> list[PassFunction]:
    """Keep functions at least min_lines long whose name matches any pattern.

    An empty pattern list matches everything. Order is preserved; the input
    list is never mutated.
    """
    if min_lines < 1:
        raise ValueError("min_lines must be >= 1")
    kept = []
    for fn in functions:
        if fn.line_count < min_lines:
            continue
        if name_patterns and not any(fnmatchcase(fn.qualified_name, p) for p in name_patterns):
            continue
        kept.append(fn)
    return kept
