"""Acceptance gate: one test per primary verification criterion.

Each test runs the corresponding harness criterion at its stated tolerance
and prints one pass/fail line (visible with ``pytest -s`` or on failure).
"""

from dataclasses import replace

import pytest

from rbsdetree import verify
from rbsdetree.errors import NoConvergence


def _run(criterion):
    result = criterion("small")
    print(result.line)
    assert result.passed, result.line
    return result


def test_acceptance_1_oracle_equivalence():
    # root value matches exhaustive stopping enumeration within 1e-10
    result = _run(verify.criterion_oracle_equivalence)
    assert result.seconds <= 10.0


def test_acceptance_2_minimal_push_conditions():
    # node-wise (Y-h)dK = 0, dK >= 0, Y >= h within 1e-12
    result = _run(verify.criterion_skorohod)
    assert result.seconds <= 10.0


def test_acceptance_3_route_equivalence():
    # direct recursion vs envelope-decomposition route within 1e-10
    _run(verify.criterion_route_equivalence)


def test_acceptance_4_fixed_point_contraction():
    # distance ratios within the certified rate; convergence in <= 40 sweeps;
    # initialization-independent limit within 1e-8
    result = _run(verify.criterion_picard)
    assert result.seconds <= 30.0


def test_acceptance_5_epsilon_optimality():
    # Y_0 <= reward(near-contact rule) + eps, no push before the stop
    _run(verify.criterion_epsilon_optimality)


def test_acceptance_6_smallest_optimal_rule():
    # first contact attains the value and is earliest among optimal rules
    _run(verify.criterion_smallest_optimal)


def test_acceptance_7_a_priori_majorant():
    # e^{beta A/2}|Y| <= S node-wise for beta in {0.5, 1, 2}
    _run(verify.criterion_majorant)


def test_acceptance_8_representation_residuals():
    # exact for separable data; cross-term peak residual sqrt(dt q(1-q)) to 1e-12
    _run(verify.criterion_representation)


def test_acceptance_8_fails_when_the_cross_instance_leaves_its_closed_form(monkeypatch):
    real = verify._cross_instance
    monkeypatch.setattr(verify, "_cross_instance", lambda n_steps: real(n_steps, rate=0.81))
    result = verify.criterion_representation("small")
    assert not result.passed, result.line
    assert "predicted sqrt(dt q(1-q))" in result.detail


def test_acceptance_9_hand_fixtures():
    # reflected binomial (0.5, 1, 0.5), jump count (1/2, 1, ln 2),
    # linear fixed point 1/0.9 - all to 1e-12
    _run(verify.criterion_fixtures)


def test_acceptance_10_jump_only_mode():
    # a jump-only tree solves as the binomial tree with the same jumps (W-free data), 1e-12
    _run(verify.criterion_mpp_only)


def test_acceptance_10_fails_when_the_solver_drops_g_on_a_jump_only_tree(monkeypatch, capsys):
    real = verify.solve_given_generators

    def drops_g(tree, gen, **kwargs):
        return real(tree, replace(gen, g_levels=None) if tree.n_brownian == 1 else gen, **kwargs)

    monkeypatch.setattr(verify, "solve_given_generators", drops_g)
    result = verify.criterion_mpp_only("small")
    assert not result.passed, result.line
    gap = float(result.detail.split("(Y, U, dK, K) = ")[1].split(",")[0])
    assert gap > 1e-3
    assert "Traceback" not in capsys.readouterr().err


def test_acceptance_suite_runner():
    results = verify.run_all("small")
    assert len(results) == 10
    report = verify.format_report(results)
    print(report)
    assert all(r.passed for r in results), report
    with pytest.raises(ValueError):
        verify.run_all("huge")


#: Instances each random-instance criterion runs at the small scale (twice that at full).
SMALL_COUNTS = {
    "criterion_oracle_equivalence": 20,
    "criterion_skorohod": 50,
    "criterion_route_equivalence": 50,
    "criterion_picard": 20,
    "criterion_epsilon_optimality": 20,
    "criterion_smallest_optimal": 20,
    "criterion_majorant": 20,
    "criterion_representation": 12,
    "criterion_mpp_only": 20,
}


def test_detail_line_reports_instances_run_at_full_scale():
    for scale, factor in (("small", 1), ("full", 2)):
        for name, count in SMALL_COUNTS.items():
            result = getattr(verify, name)(scale)
            assert result.passed, result.line
            assert f"over {count * factor} instances" in result.detail, result.line


def test_a_picard_run_that_does_not_converge_fails_criterion_4(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise NoConvergence([0.5, 0.4], 1e-9)

    monkeypatch.setattr(verify, "picard_solve", no_convergence)
    results = verify.run_all("small")
    assert len(results) == 10
    assert results[3].name == "fixed-point contraction" and not results[3].passed
    assert "NoConvergence: no convergence after 2 iterations" in results[3].detail
