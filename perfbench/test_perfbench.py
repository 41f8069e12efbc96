"""Tests of the benchmark's own machinery: draws, statistics, spans, checks."""

import json

import pytest

from perfbench import checks, spans, workloads
from perfbench.run import (MIN_PASSES, MIN_TIMED_INVOCATIONS, digest,
                           highest_percentile, invoke, pass_count, percentile,
                           run_pass, samples_beyond)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_gives_identical_argv_lists(workload):
    first = [workloads.pass_ops(workload, 11, k) for k in range(4)]
    again = [workloads.pass_ops(workload, 11, k) for k in range(4)]
    assert first == again
    argvs = [op.argv for ops in first for op in ops]
    # fresh draws in every pass: no argument vector repeats within a run
    assert len(set(argvs)) == len(argvs)
    assert workloads.pass_ops(workload, 12, 0) != first[0]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_pass_count_is_fixed_by_workload_and_seconds(workload):
    # the same seed must attempt, and fail, the same invocations on every run
    for traced in (False, True):
        short = pass_count(workload, 0.1, traced)
        ops = len(workloads.pass_ops(workload, 5, 0))
        assert short >= MIN_PASSES and short * ops >= MIN_TIMED_INVOCATIONS
        assert pass_count(workload, 600, traced) > short
    assert pass_count(workload, 20, True) < pass_count(workload, 20, False)


def test_twins_follow_the_op_they_double():
    def without_nodes(op):
        return [a for a in op.argv if not a.startswith("--nodes=")]

    ops = workloads.pass_ops("gap_sine", 3, 1) + list(workloads.ACCURACY_PANEL)
    twins = 0
    for before, op in zip(ops, ops[1:]):
        if op.kind == "fredholm_twin":
            twins += 1
            assert before.kind == "fredholm"
            assert without_nodes(before) == without_nodes(op)
    assert twins == 8


def test_percentile_rule_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert highest_percentile(99) == 50
    assert highest_percentile(100) == 90
    assert highest_percentile(999) == 90
    assert highest_percentile(1000) == 99
    assert highest_percentile(10000) == 99.9
    assert highest_percentile(19) is None
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90


def _span(layer, start, end, parent=None, error=None, counts=None):
    return spans.Span(layer, start, end, parent, error, counts or {})


def test_self_time_subtracts_direct_children():
    tree = [
        _span("cli", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 2.0, 3.0, parent=1, counts={"flops": 5}),
        _span("a", 5.0, 9.0, parent=0, error="QuadratureError"),
        _span("a", 6.0, 8.0, parent=3, error="QuadratureError"),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 2.0, 2.0]
    table = spans.layer_table(tree)
    # the nested a-in-a call enters no new layer: one call, one failure
    assert table["a"] == {"calls": 2, "self_s": 6.0, "failed": 1}
    assert table["b"] == {"calls": 1, "self_s": 1.0, "failed": 0, "flops": 5}
    assert table["cli"]["self_s"] == 3.0
    assert spans.escaped_error(tree) == "QuadratureError"


ODE_OUTPUT = json.dumps({
    "columns": ["t_re", "t_im", "zeta_re", "zeta_im", "dzeta_re",
                "dzeta_im", "residual"],
    "rows": [[0.001, 0.0, 0.03, 0.0, 0.69, 0.0, 0.0],
             [0.4, 0.0, 0.05, 0.0, 0.2, 0.0, 2.5e-10]],
})


def test_classifier_flags_failing_exit_and_broken_contract():
    fail = checks.check("monodromy", ("monodromy-check", "--bigN=3"), 3, "",
                        "parameter error: lower-left matching entry vanished")
    assert fail.failure.startswith("exit 3")
    # 2.5e-10 is within 100 * 1e-10 but not within 100 * 1e-12
    ok = checks.check("ode", ("ode", "--tol=1e-10"), 0, ODE_OUTPUT, "")
    assert ok.failure is None
    assert ok.errors == {"err.ode_constraint": 2.5e-10}
    broken = checks.check("ode", ("ode", "--tol=1e-12"), 0, ODE_OUTPUT, "")
    assert broken.failure.startswith("residual")
    with pytest.raises(checks.Malformed):
        checks.check("ode", ("ode",), 3, "", "error: unrecognized arguments")


def test_tracer_restores_bindings_and_leaves_output_unchanged():
    import taurmt.cli as cli
    import taurmt.rmt_numerics as rmt

    original = rmt.fourier_table
    ops = [workloads.ACCURACY_PANEL[3], workloads.ACCURACY_PANEL[-1]]
    plain = run_pass(cli, ops)
    tracer = spans.Tracer(spans.targets())
    with tracer:
        assert rmt.fourier_table is not original
        traced = run_pass(cli, ops)
    assert rmt.fourier_table is original
    assert cli.toeplitz_an is rmt.toeplitz_an
    assert digest(traced) == digest(plain)
    layers = spans.layer_table(tracer.spans)
    assert layers["cli"]["calls"] == 2
    assert layers["rmt_numerics.fourier_table"]["calls"] >= 5
    assert not tracer.missing
    assert invoke(cli, ("monodromy-check", "--bigN=3")).code == 3
