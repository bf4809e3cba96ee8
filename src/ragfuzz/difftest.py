"""Cross-cell comparison and discrepancy classification.

Cells that share all coordinates but one are compared along that axis;
cross-compiler pairs additionally tolerate differing devices because each
compiler's binaries execute on their own hardware. Float tokens are rounded
before output comparison so expected cross-architecture noise does not flag.

Annotations here are evaluated at import, not postponed: the record codec
reads the comparison policy's field types as objects when a config loads.
"""
import re
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .errors import InsufficientCells
from .toolchain import CellKey, RunResult, RunStatus


class DiscrepancyKind(str, Enum):
    OUTPUT_MISMATCH = "output_mismatch"
    CRASH_ON_SOME = "crash_on_some"
    RUNTIME_ERROR_ON_SOME = "runtime_error_on_some"
    TIMEOUT_DIVERGENCE = "timeout_divergence"
    UNSUPPORTED_FEATURE = "unsupported_feature"


class Axis(str, Enum):
    CROSS_COMPILER = "cross_compiler"
    CROSS_DEVICE = "cross_device"
    CROSS_OPT_LEVEL = "cross_opt_level"


class IssueClass(str, Enum):
    IMPL_ISSUE_ON_ARCH = "impl_issue_on_arch"
    INCONSISTENT_ACROSS_ARCH = "inconsistent_across_arch"


@dataclass(frozen=True)
class ComparisonPolicy:
    float_sig_digits: int = 6  # 0 disables rounding for strict campaigns
    unsupported_patterns: tuple[str, ...] = (
        "unsupported",
        "not supported",
        "UNSUPPORTED",
    )
    suppress_source_patterns: tuple[str, ...] = ()  # triage valve, default off


@dataclass(frozen=True)
class ResultsMatrix:
    case_id: str
    cells: dict[CellKey, RunResult]


@dataclass(frozen=True)
class Witness:
    cell_a: CellKey
    cell_b: CellKey
    status_a: str
    status_b: str
    output_a: str
    output_b: str


@dataclass(frozen=True)
class Discrepancy:
    case_id: str
    kind: DiscrepancyKind
    axis: Axis
    witness: Witness
    issue_class: IssueClass


@dataclass(frozen=True)
class CampaignFindings:
    total_flagged: int
    flagged_cases: tuple[str, ...]
    per_axis: dict[str, int]
    per_kind: dict[str, int]
    per_case: dict[str, tuple[tuple[str, str], ...]]  # case -> sorted (kind, axis)


_FLOAT_TOKEN_RE = re.compile(r"[-+]?\d+\.\d+(?:[eE][-+]?\d+)?|[-+]?\d+[eE][-+]?\d+")


def normalize_output(raw: str, float_sig_digits: int = 6) -> str:
    """Canonical form: unified line endings, stripped trailing whitespace,
    no trailing blank lines, float tokens rounded to significant digits."""
    text = raw.replace("\r\n", "\n").replace("\r", "\n")
    lines = [line.rstrip() for line in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    if float_sig_digits > 0:
        fmt = f"%.{float_sig_digits}g"
        lines = [
            _FLOAT_TOKEN_RE.sub(lambda m: fmt % float(m.group(0)), line) for line in lines
        ]
    return "\n".join(lines)


def _pair_kinds(
    a: RunResult, b: RunResult, policy: ComparisonPolicy
) -> list[DiscrepancyKind]:
    """Classification rules applied to one comparable cell pair."""
    kinds: list[DiscrepancyKind] = []
    if a.status == RunStatus.OK and b.status == RunStatus.OK:
        if normalize_output(a.stdout, policy.float_sig_digits) != normalize_output(
            b.stdout, policy.float_sig_digits
        ):
            kinds.append(DiscrepancyKind.OUTPUT_MISMATCH)
    if (a.status == RunStatus.CRASH_SIGNAL) != (b.status == RunStatus.CRASH_SIGNAL):
        kinds.append(DiscrepancyKind.CRASH_ON_SOME)
    error_statuses = (RunStatus.NONZERO_EXIT, RunStatus.LAUNCH_ERROR)
    if (a.status in error_statuses) != (b.status in error_statuses):
        kinds.append(DiscrepancyKind.RUNTIME_ERROR_ON_SOME)
    if (a.status == RunStatus.TIMEOUT) != (b.status == RunStatus.TIMEOUT):
        kinds.append(DiscrepancyKind.TIMEOUT_DIVERGENCE)
    if policy.unsupported_patterns:
        def hits(r: RunResult) -> bool:
            return any(re.search(p, r.stderr) for p in policy.unsupported_patterns)

        if hits(a) != hits(b):
            kinds.append(DiscrepancyKind.UNSUPPORTED_FEATURE)
    return kinds


def _issue_class(a: RunResult, b: RunResult) -> IssueClass:
    if a.status == RunStatus.OK and b.status == RunStatus.OK:
        return IssueClass.INCONSISTENT_ACROSS_ARCH
    return IssueClass.IMPL_ISSUE_ON_ARCH


def _witness(a: RunResult, b: RunResult, policy: ComparisonPolicy) -> Witness:
    return Witness(
        cell_a=a.cell,
        cell_b=b.cell,
        status_a=a.status.value,
        status_b=b.status.value,
        output_a=normalize_output(a.stdout, policy.float_sig_digits),
        output_b=normalize_output(b.stdout, policy.float_sig_digits),
    )


# (axis, coordinates a pair shares, coordinate it differs on); on the
# cross-compiler axis the execution venue follows the compiler, so devices
# may differ
_AXES = (
    (Axis.CROSS_OPT_LEVEL, ("compiler_id", "target", "device_id"), "opt_level"),
    (Axis.CROSS_DEVICE, ("compiler_id", "target", "opt_level"), "device_id"),
    (Axis.CROSS_COMPILER, ("target", "opt_level"), "compiler_id"),
)


def _axis_pairs(cells: list[RunResult]) -> list[tuple[Axis, RunResult, RunResult]]:
    """All comparable pairs, grouped by the axis they differ on."""
    pairs: list[tuple[Axis, RunResult, RunResult]] = []
    for axis, shared, differing in _AXES:
        groups: dict[tuple, list[RunResult]] = {}
        for r in cells:
            groups.setdefault(tuple(getattr(r.cell, c) for c in shared), []).append(r)
        for group in groups.values():
            for a, b in combinations(sorted(group, key=lambda r: r.cell), 2):
                if getattr(a.cell, differing) != getattr(b.cell, differing):
                    pairs.append((axis, a, b))
    return pairs


def classify(matrix: ResultsMatrix, policy: ComparisonPolicy | None = None) -> list[Discrepancy]:
    """Compare all single-axis cell pairs and report one finding per
    (kind, axis), carrying the lexicographically smallest witness pair."""
    policy = policy or ComparisonPolicy()
    if len(matrix.cells) < 2:
        raise InsufficientCells(f"case {matrix.case_id}: need >= 2 populated cells")
    cells = list(matrix.cells.values())
    best: dict[tuple[DiscrepancyKind, Axis], tuple[tuple, Witness, IssueClass]] = {}
    for axis, a, b in _axis_pairs(cells):
        for kind in _pair_kinds(a, b, policy):
            order_key = (a.cell, b.cell)
            current = best.get((kind, axis))
            if current is None or order_key < current[0]:
                best[(kind, axis)] = (order_key, _witness(a, b, policy), _issue_class(a, b))
    findings = [
        Discrepancy(matrix.case_id, kind, axis, witness, issue_class)
        for (kind, axis), (_, witness, issue_class) in best.items()
    ]
    findings.sort(key=lambda d: (d.kind.value, d.axis.value))
    return findings


def summarize(discrepancies: list[Discrepancy]) -> CampaignFindings:
    """Distinct flagged cases per axis and kind; total counts each case once.

    Only axes and kinds with at least one flagged case are listed.
    """
    per_case: dict[str, list[tuple[str, str]]] = {}
    axis_cases: dict[str, set[str]] = {}
    kind_cases: dict[str, set[str]] = {}
    for d in discrepancies:
        per_case.setdefault(d.case_id, []).append((d.kind.value, d.axis.value))
        axis_cases.setdefault(d.axis.value, set()).add(d.case_id)
        kind_cases.setdefault(d.kind.value, set()).add(d.case_id)
    return CampaignFindings(
        total_flagged=len(per_case),
        flagged_cases=tuple(sorted(per_case)),
        per_axis={axis: len(cases) for axis, cases in sorted(axis_cases.items())},
        per_kind={kind: len(cases) for kind, cases in sorted(kind_cases.items())},
        per_case={case_id: tuple(sorted(per_case[case_id])) for case_id in sorted(per_case)},
    )
