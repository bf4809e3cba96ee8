from __future__ import annotations

import random

import pytest

from helpers import make_cell, random_matrix
from oracles import brute_force_classify

from ragfuzz.difftest import (
    Axis,
    CampaignFindings,
    ComparisonPolicy,
    DiscrepancyKind,
    IssueClass,
    ResultsMatrix,
    classify,
    normalize_output,
    summarize,
)
from ragfuzz.errors import InsufficientCells
from ragfuzz.toolchain import RunStatus


# --- normalize_output ---

def test_line_ending_normalization():
    assert normalize_output("5\n") == normalize_output("5\r\n")
    assert normalize_output("a\rb\n\n\n") == "a\nb"


def test_float_rounding_six_significant_digits():
    assert normalize_output("x=0.3333333339") == normalize_output("x=0.3333333341")
    assert normalize_output("x=0.3333333339") == "x=0.333333"


def test_integer_output_unchanged():
    line = "Output value from device kernel: 1"
    assert normalize_output(line) == line


def test_precision_zero_disables_rounding():
    assert normalize_output("0.123456789", float_sig_digits=0) == "0.123456789"
    assert normalize_output("0.1234567", 0) != normalize_output("0.1234568", 0)


def test_trailing_whitespace_stripped():
    assert normalize_output("value: 7   \n\n") == "value: 7"


# --- classify ---

def ok(case, comp, target, opt, dev, out):
    return make_cell(case, comp, target, opt, dev, RunStatus.OK, stdout=out)


def matrix(*results) -> ResultsMatrix:
    return ResultsMatrix(case_id=results[0].case_id, cells={r.cell: r for r in results})


def test_consistent_matrix_has_no_findings():
    m = matrix(
        ok("c1", "icpx", "cuda", "-O0", "a100", "v: 5\n"),
        ok("c1", "icpx", "cuda", "-O2", "a100", "v: 5\n"),
        ok("c1", "clang++", "cuda", "-O0", "a40", "v: 5\n"),
        ok("c1", "clang++", "cuda", "-O2", "a40", "v: 5\n"),
    )
    assert classify(m) == []


def test_cross_compiler_output_mismatch_with_distinct_devices():
    # each compiler's binaries run on its own device, as in a real campaign
    m = matrix(
        ok("c1", "icpx", "cuda", "-O2", "a100", "Output value from device kernel: 5\n"),
        ok("c1", "clang++", "cuda", "-O2", "a40", "Output value from device kernel: 7\n"),
    )
    findings = classify(m)
    assert len(findings) == 1
    d = findings[0]
    assert d.kind == DiscrepancyKind.OUTPUT_MISMATCH
    assert d.axis == Axis.CROSS_COMPILER
    assert d.issue_class == IssueClass.INCONSISTENT_ACROSS_ARCH
    assert {d.witness.cell_a.compiler_id, d.witness.cell_b.compiler_id} == {"icpx", "clang++"}


def test_cross_device_crash_classification():
    m = matrix(
        ok("c2", "icpx", "spir64", "-O0", "xeon", "v: 1\n"),
        make_cell("c2", "icpx", "spir64", "-O0", "a100", RunStatus.CRASH_SIGNAL),
    )
    findings = classify(m)
    kinds = {(d.kind, d.axis) for d in findings}
    assert (DiscrepancyKind.CRASH_ON_SOME, Axis.CROSS_DEVICE) in kinds
    assert all(d.issue_class == IssueClass.IMPL_ISSUE_ON_ARCH for d in findings)


def test_cross_opt_level_mismatch():
    m = matrix(
        ok("c3", "icpx", "cuda", "-O0", "a100", "v: 1\n"),
        ok("c3", "icpx", "cuda", "-O2", "a100", "v: 2\n"),
    )
    findings = classify(m)
    assert [(d.kind, d.axis) for d in findings] == [
        (DiscrepancyKind.OUTPUT_MISMATCH, Axis.CROSS_OPT_LEVEL)
    ]


def test_timeout_never_reported_as_output_mismatch():
    m = matrix(
        ok("c4", "icpx", "cuda", "-O0", "a100", "v: 1\n"),
        make_cell("c4", "icpx", "cuda", "-O1", "a100", RunStatus.TIMEOUT, stdout="v:"),
    )
    findings = classify(m)
    kinds = {d.kind for d in findings}
    assert DiscrepancyKind.TIMEOUT_DIVERGENCE in kinds
    assert DiscrepancyKind.OUTPUT_MISMATCH not in kinds


def test_unsupported_feature_pattern():
    m = matrix(
        ok("c5", "icpx", "spir64", "-O0", "xeon", "v: 1\n"),
        make_cell(
            "c5", "icpx", "spir64", "-O0", "a100",
            RunStatus.NONZERO_EXIT,
            stderr="error: feature not supported on this device\n",
        ),
    )
    kinds = {d.kind for d in classify(m)}
    assert DiscrepancyKind.UNSUPPORTED_FEATURE in kinds
    assert DiscrepancyKind.RUNTIME_ERROR_ON_SOME in kinds


def test_pairs_differing_on_two_free_axes_are_not_compared():
    # same compiler, but both opt level and device differ: no comparison
    m = matrix(
        ok("c6", "icpx", "cuda", "-O0", "devA", "v: 1\n"),
        ok("c6", "icpx", "cuda", "-O2", "devB", "v: 2\n"),
    )
    assert classify(m) == []


def test_insufficient_cells():
    m = matrix(ok("c7", "icpx", "cuda", "-O0", "a100", "v: 1\n"))
    with pytest.raises(InsufficientCells):
        classify(m)


def test_classify_is_insertion_order_invariant():
    results = [
        ok("c8", "cc1", "t", "-O0", "devA", "v: 1\n"),
        ok("c8", "cc2", "t", "-O0", "devA", "v: 2\n"),
        make_cell("c8", "cc1", "t", "-O2", "devA", RunStatus.CRASH_SIGNAL),
    ]
    forward = ResultsMatrix("c8", {r.cell: r for r in results})
    backward = ResultsMatrix("c8", {r.cell: r for r in reversed(results)})
    assert classify(forward) == classify(backward)


def test_every_witness_differs_on_its_axis_only():
    rng = random.Random(1234)
    for _ in range(200):
        m = random_matrix(rng)
        for d in classify(m):
            a, b = d.witness.cell_a, d.witness.cell_b
            assert a.target == b.target
            if d.axis == Axis.CROSS_OPT_LEVEL:
                assert a.opt_level != b.opt_level
                assert (a.compiler_id, a.device_id) == (b.compiler_id, b.device_id)
            elif d.axis == Axis.CROSS_DEVICE:
                assert a.device_id != b.device_id
                assert (a.compiler_id, a.opt_level) == (b.compiler_id, b.opt_level)
            else:
                assert a.compiler_id != b.compiler_id
                assert a.opt_level == b.opt_level


def test_classify_equals_brute_force_on_seeded_matrices():
    rng = random.Random(987654321)
    for i in range(300):
        m = random_matrix(rng, case_id=f"case{i}")
        assert classify(m) == brute_force_classify(m), f"disagreement on case{i}"


def test_brute_force_trivial_rules():
    m = matrix(
        ok("t", "cc1", "t0", "-O0", "devA", "same\n"),
        ok("t", "cc1", "t0", "-O1", "devA", "same\n"),
    )
    assert brute_force_classify(m) == []
    crash = matrix(
        ok("t2", "cc1", "t0", "-O0", "devA", "same\n"),
        make_cell("t2", "cc1", "t0", "-O1", "devA", RunStatus.CRASH_SIGNAL),
    )
    found = brute_force_classify(crash)
    assert [(d.kind, d.axis) for d in found] == [
        (DiscrepancyKind.CRASH_ON_SOME, Axis.CROSS_OPT_LEVEL)
    ]


# --- summarize ---

def test_summarize_empty():
    findings = summarize([])
    assert findings.total_flagged == 0
    assert findings.per_axis == findings.per_kind == findings.per_case == {}


def _flag(case_id: str, axis: Axis):
    m = matrix(
        ok(case_id, "cc1", "t", "-O0", "devA", "v: 1\n"),
        ok(case_id, "cc2", "t", "-O0", "devA", "v: 2\n")
        if axis == Axis.CROSS_COMPILER
        else ok(case_id, "cc1", "t", "-O0", "devB", "v: 2\n"),
    )
    return classify(m)


def test_summarize_disjoint_sets_add_up():
    findings = []
    for i in range(12):
        findings += _flag(f"compiler_case_{i:03d}", Axis.CROSS_COMPILER)
    for i in range(75):
        findings += _flag(f"device_case_{i:03d}", Axis.CROSS_DEVICE)
    summary = summarize(findings)
    assert summary.per_axis["cross_compiler"] == 12
    assert summary.per_axis["cross_device"] == 75
    assert summary.total_flagged == 87


def test_summarize_union_counts_overlap_once():
    findings = _flag("shared_case", Axis.CROSS_COMPILER) + _flag("shared_case", Axis.CROSS_DEVICE)
    summary = summarize(findings)
    assert summary.per_axis["cross_compiler"] == 1
    assert summary.per_axis["cross_device"] == 1
    assert summary.total_flagged == 1
    assert summary.per_kind == {"output_mismatch": 1}
    assert summary.per_case == {
        "shared_case": (("output_mismatch", "cross_compiler"), ("output_mismatch", "cross_device"))
    }
