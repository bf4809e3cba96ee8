"""Reference implementations used as oracles by the test suite.

brute_force_classify restates the discrepancy rules as a naive scan over
every unordered cell pair, deliberately sharing no pairing or grouping logic
with the production classifier. It stays the slow, obviously-correct
benchmark that classify() is checked against. validate_partition checks a
report's per-pass counts add up. full_scan is the exhaustive float64 scan the
RAG index made before it screened in float32, which retrieve must equal.
"""
from __future__ import annotations

import re
from itertools import combinations

import numpy as np

from ragfuzz.difftest import (
    Axis,
    ComparisonPolicy,
    Discrepancy,
    DiscrepancyKind,
    IssueClass,
    ResultsMatrix,
    Witness,
    normalize_output,
)
from ragfuzz.toolchain import RunResult, RunStatus


def _axis_of(a: RunResult, b: RunResult) -> Axis | None:
    """Axis the pair differs on, or None when the pair is not comparable.

    Coordinates are (compiler, target, opt, device). A lone differing
    coordinate maps to its axis; compiler+device together still count as the
    compiler axis because each compiler's binaries run on their own device.
    """
    diffs = set()
    if a.cell.compiler_id != b.cell.compiler_id:
        diffs.add("compiler")
    if a.cell.target != b.cell.target:
        diffs.add("target")
    if a.cell.opt_level != b.cell.opt_level:
        diffs.add("opt")
    if a.cell.device_id != b.cell.device_id:
        diffs.add("device")
    if diffs == {"opt"}:
        return Axis.CROSS_OPT_LEVEL
    if diffs == {"device"}:
        return Axis.CROSS_DEVICE
    if diffs == {"compiler"} or diffs == {"compiler", "device"}:
        return Axis.CROSS_COMPILER
    return None


def brute_force_classify(
    matrix: ResultsMatrix, policy: ComparisonPolicy | None = None
) -> list[Discrepancy]:
    policy = policy or ComparisonPolicy()
    assert len(matrix.cells) <= 64, "reference classifier is for small matrices"
    results = list(matrix.cells.values())
    found: dict[tuple[DiscrepancyKind, Axis], tuple[tuple, Discrepancy]] = {}

    for x, y in combinations(results, 2):
        a, b = (x, y) if x.cell <= y.cell else (y, x)
        axis = _axis_of(a, b)
        if axis is None:
            continue

        kinds: list[DiscrepancyKind] = []
        a_ok = a.status == RunStatus.OK
        b_ok = b.status == RunStatus.OK
        if a_ok and b_ok:
            out_a = normalize_output(a.stdout, policy.float_sig_digits)
            out_b = normalize_output(b.stdout, policy.float_sig_digits)
            if out_a != out_b:
                kinds.append(DiscrepancyKind.OUTPUT_MISMATCH)
        a_crash = a.status == RunStatus.CRASH_SIGNAL
        b_crash = b.status == RunStatus.CRASH_SIGNAL
        if a_crash != b_crash:
            kinds.append(DiscrepancyKind.CRASH_ON_SOME)
        a_err = a.status in (RunStatus.NONZERO_EXIT, RunStatus.LAUNCH_ERROR)
        b_err = b.status in (RunStatus.NONZERO_EXIT, RunStatus.LAUNCH_ERROR)
        if a_err != b_err:
            kinds.append(DiscrepancyKind.RUNTIME_ERROR_ON_SOME)
        a_to = a.status == RunStatus.TIMEOUT
        b_to = b.status == RunStatus.TIMEOUT
        if a_to != b_to:
            kinds.append(DiscrepancyKind.TIMEOUT_DIVERGENCE)
        a_unsup = any(re.search(p, a.stderr) for p in policy.unsupported_patterns)
        b_unsup = any(re.search(p, b.stderr) for p in policy.unsupported_patterns)
        if a_unsup != b_unsup:
            kinds.append(DiscrepancyKind.UNSUPPORTED_FEATURE)

        if not kinds:
            continue
        issue = (
            IssueClass.INCONSISTENT_ACROSS_ARCH
            if a_ok and b_ok
            else IssueClass.IMPL_ISSUE_ON_ARCH
        )
        witness = Witness(
            cell_a=a.cell,
            cell_b=b.cell,
            status_a=a.status.value,
            status_b=b.status.value,
            output_a=normalize_output(a.stdout, policy.float_sig_digits),
            output_b=normalize_output(b.stdout, policy.float_sig_digits),
        )
        order_key = (a.cell, b.cell)
        for kind in kinds:
            prior = found.get((kind, axis))
            if prior is None or order_key < prior[0]:
                found[(kind, axis)] = (
                    order_key,
                    Discrepancy(matrix.case_id, kind, axis, witness, issue),
                )

    out = [d for _, d in found.values()]
    out.sort(key=lambda d: (d.kind.value, d.axis.value))
    return out


def validate_partition(per_pass: dict[str, dict[str, int]]) -> bool:
    """generated == compiled + failed + abandoned, per pass."""
    for counts in per_pass.values():
        if counts["generated"] != counts["compiled"] + counts["failed"] + counts["abandoned"]:
            return False
    return True


def full_scan(chunks, matrix, q, threshold: float, k: int) -> list[tuple[str, float]]:
    """(chunk_id, distance) of up to k rows of matrix with distance <
    threshold, closest first: every row scored in float64, then ordered by
    (distance, doc_id, ordinal)."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    norms = np.sqrt(np.vecdot(matrix, matrix))
    nq = float(np.linalg.norm(q))
    dist = np.clip(1.0 - np.vecdot(matrix, q) / (nq * norms), 0.0, 2.0)
    for row in np.flatnonzero(dist < 1e-12):
        if np.array_equal(matrix[row], q):
            dist[row] = 0.0
    rows = np.flatnonzero(dist < threshold)
    if len(rows) > k:
        kth = np.partition(dist[rows], k - 1)[k - 1]
        rows = rows[dist[rows] <= kth]
    rows = sorted(rows, key=lambda r: (float(dist[r]), chunks[r].doc_id, chunks[r].ordinal))
    return [(chunks[r].chunk_id, float(dist[r])) for r in rows[:k]]
