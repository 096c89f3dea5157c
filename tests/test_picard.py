from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsdetree import (
    BetaTooSmall,
    ContractionConfig,
    LipschitzConstants,
    NoConvergence,
    RbsdeSolution,
    StateGenerators,
    check_equation_residual,
    check_skorohod,
    composite_distance,
    picard_solve,
    select_contraction_parameters,
    solve_given_generators,
)
from rbsdetree.instances import random_picard_instance
from rbsdetree.picard import ALPHA_MAX, _frozen_spec, _zero_point
from rbsdetree.verify import fixture_linear_fixed_point
from test_properties import problems


def test_config_rejects_small_beta():
    lip = LipschitzConstants(l_f=0.5, l_u=0.5)
    minimal = lip.l_u**2 + 2 * lip.l_f
    with pytest.raises(BetaTooSmall) as exc:
        select_contraction_parameters(lip, beta=minimal)
    assert exc.value.minimal == pytest.approx(minimal)
    with pytest.raises(BetaTooSmall):
        ContractionConfig(beta=minimal, gamma=10.0, alpha=0.99, lipschitz=lip)


def test_config_rejects_small_gamma():
    lip = LipschitzConstants(l_f=0.1, l_u=0.1, l_g=0.5, l_z=0.5)
    with pytest.raises(ValueError):
        ContractionConfig(beta=5.0, gamma=0.0, alpha=0.9, lipschitz=lip)
    with pytest.raises(ValueError):
        ContractionConfig(beta=5.0, gamma=5.0, alpha=1.5, lipschitz=lip)


def test_selected_parameters_admissible():
    lip = LipschitzConstants(l_f=0.3, l_u=0.4, l_g=0.2, l_z=0.5)
    beta = lip.l_u**2 + 2 * lip.l_f + 0.5
    cfg = select_contraction_parameters(lip, beta)
    assert cfg.alpha == pytest.approx(ALPHA_MAX)
    assert cfg.beta > lip.l_u**2 / cfg.alpha + 2 * lip.l_f / np.sqrt(cfg.alpha)
    assert cfg.gamma > lip.l_z**2 / cfg.alpha + 2 * lip.l_g / np.sqrt(cfg.alpha)


def test_linear_fixed_point():
    tree, gen, state = fixture_linear_fixed_point()
    cfg = select_contraction_parameters(state.lipschitz, beta=0.7, tol=1e-13)
    trace = picard_solve(tree, gen, state, cfg)
    assert trace.solution.y[0][0] == pytest.approx(1.0 / 0.9, abs=1e-12)
    assert check_skorohod(tree, trace.solution, gen.h)["passed"]
    assert check_equation_residual(tree, trace.solution, trace.frozen_spec)[0]["max_conditional_mean"] <= 1e-12


def test_contraction_rate_and_init_independence():
    rng = np.random.default_rng(0)
    for i in range(6):
        tree, gen, state = random_picard_instance(rng, n_brownian=1 if i % 3 == 2 else 2)
        lip = state.lipschitz
        cfg = select_contraction_parameters(lip, lip.l_u**2 + 2 * lip.l_f + 0.5)
        trace = picard_solve(tree, gen, state, cfg)
        for d1, d2 in zip(trace.distances[1:], trace.distances[2:]):
            if d1 > 1e-12:
                assert d2 / d1 <= cfg.alpha + 0.05
        ones = RbsdeSolution(
            y=[np.ones(tree.level_size(k)) for k in range(tree.n_steps + 1)],
            u=[np.ones((tree.level_size(k), tree.n_marks)) for k in range(tree.n_steps)],
            z=[np.ones(tree.level_size(k)) for k in range(tree.n_steps)],
        )
        other = picard_solve(tree, gen, state, cfg, init=ones)
        for k in range(tree.n_steps + 1):
            assert np.allclose(trace.solution.y[k], other.solution.y[k], atol=1e-8)


def test_no_convergence_raises_with_trace():
    rng = np.random.default_rng(1)
    tree, gen, state = random_picard_instance(rng)
    lip = state.lipschitz
    cfg = select_contraction_parameters(
        lip, lip.l_u**2 + 2 * lip.l_f + 0.5, max_iter=1, tol=1e-15
    )
    with pytest.raises(NoConvergence) as exc:
        picard_solve(tree, gen, state, cfg)
    assert len(exc.value.distances) == 1


@pytest.mark.parametrize("max_iter", [0, -3])
def test_config_rejects_max_iter_below_one(max_iter):
    lip = LipschitzConstants(l_f=0.1, l_u=0.1)
    with pytest.raises(ValueError, match="max_iter"):
        ContractionConfig(beta=5.0, gamma=1.0, alpha=0.9, lipschitz=lip, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter"):
        select_contraction_parameters(lip, beta=5.0, max_iter=max_iter)


def test_no_convergence_message_on_an_empty_trace():
    err = NoConvergence([], 1e-9)
    assert err.distances == []
    assert "after 0 iterations" in str(err) and "tol 1.0e-09" in str(err)
    assert "last distance 2.500e-01" in str(NoConvergence([0.5, 0.25], 1e-9))


def test_composite_distance_is_a_metric_at_zero():
    rng = np.random.default_rng(2)
    tree, _, state = random_picard_instance(rng)
    lip = state.lipschitz
    cfg = select_contraction_parameters(lip, lip.l_u**2 + 2 * lip.l_f + 0.5)
    z = _zero_point(tree)
    assert composite_distance(tree, z, z, cfg) == 0.0
    other = RbsdeSolution(
        y=[x + 1.0 for x in z.y], u=z.u, z=z.z
    )
    assert composite_distance(tree, z, other, cfg) > 0.0


@settings(max_examples=60, deadline=None, database=None)
@given(problem=problems())
def test_state_generators_that_return_the_given_levels_solve_as_the_one_pass_solver(problem):
    """The map is constant: one productive sweep, then at most one that does not move."""
    tree, gen = problem
    state = StateGenerators(lambda tree_, k, y, u: gen.f_levels[k], lambda tree_, k, y, z: gen.g_levels[k],
                            LipschitzConstants())
    trace = picard_solve(tree, gen, state, select_contraction_parameters(LipschitzConstants(), beta=1.0))
    assert len(trace.distances) <= 2
    direct = solve_given_generators(tree, gen)
    for name in ("y", "u", "z", "dk", "k_cum", "residual"):
        assert _same_bits(getattr(trace.solution, name), getattr(direct, name)), name


def test_feasibility_monotone_in_beta():
    lip = LipschitzConstants(l_f=0.3, l_u=0.4, l_g=0.2, l_z=0.5)
    minimal = lip.l_u**2 + 2 * lip.l_f
    for beta in np.linspace(minimal + 0.01, minimal + 5.0, 20):
        cfg = select_contraction_parameters(lip, float(beta))
        assert 0 < cfg.alpha < 1


def test_composite_distance_triangle_inequality():
    rng = np.random.default_rng(4)
    tree, _, state = random_picard_instance(rng)
    lip = state.lipschitz
    cfg = select_contraction_parameters(lip, lip.l_u**2 + 2 * lip.l_f + 0.5)

    def rand_point():
        return RbsdeSolution(
            y=[rng.normal(size=tree.level_size(k)) for k in range(tree.n_steps + 1)],
            u=[rng.normal(size=(tree.level_size(k), tree.n_marks)) for k in range(tree.n_steps)],
            z=[rng.normal(size=tree.level_size(k)) for k in range(tree.n_steps)],
        )

    for _ in range(10):
        a, b, c = rand_point(), rand_point(), rand_point()
        assert composite_distance(tree, a, c, cfg) <= composite_distance(
            tree, a, b, cfg
        ) + composite_distance(tree, b, c, cfg) + 1e-12


SWEEP_SETTINGS = settings(max_examples=30, deadline=None, database=None)


def _instance(seed, n_brownian):
    tree, gen, state = random_picard_instance(np.random.default_rng(seed), n_brownian=n_brownian)
    lip = state.lipschitz
    return tree, gen, state, select_contraction_parameters(lip, lip.l_u**2 + 2 * lip.l_f + 0.5, max_iter=200)


def _same_bits(a, b):
    return len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _full_solve_loop(tree, gen, state, cfg):
    """The sweep loop with a full solve per sweep: the distances it reports."""
    point = _zero_point(tree)
    distances = []
    for _ in range(cfg.max_iter):
        sol = solve_given_generators(tree, _frozen_spec(tree, gen, state, point))
        distances.append(composite_distance(tree, point, sol, cfg))
        point = sol
        if distances[-1] <= cfg.tol:
            return distances, sol
    raise NoConvergence(distances, cfg.tol)


@SWEEP_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n_brownian=st.sampled_from([1, 2]))
def test_final_solution_is_the_full_solve_of_its_frozen_spec(seed, n_brownian):
    tree, gen, state, cfg = _instance(seed, n_brownian)
    trace = picard_solve(tree, gen, state, cfg)
    direct = solve_given_generators(tree, trace.frozen_spec)
    sol = trace.solution
    for name in ("y", "u", "z", "dk", "k_cum", "residual"):
        assert _same_bits(getattr(sol, name), getattr(direct, name)), name
    if n_brownian == 1:
        assert _same_bits(sol.z, [np.zeros(len(z)) for z in sol.z])


@SWEEP_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n_brownian=st.sampled_from([1, 2]))
def test_distances_are_those_of_a_loop_of_full_solves(seed, n_brownian):
    tree, gen, state, cfg = _instance(seed, n_brownian)
    trace = picard_solve(tree, gen, state, cfg)
    distances, sol = _full_solve_loop(tree, gen, state, cfg)
    assert trace.distances == distances
    assert _same_bits(trace.solution.y, sol.y) and _same_bits(trace.solution.k_cum, sol.k_cum)


def test_a_sweep_whose_generator_turns_nan_raises():
    tree, gen, state, cfg = _instance(5, 2)
    calls = []

    def f_state(tree_, k, y, u):
        calls.append(k)
        out = state.f(tree_, k, y, u)
        return out if len(calls) <= tree.n_steps else np.full_like(out, np.nan)

    with pytest.raises(ValueError, match="f_levels has a non-finite value"):
        picard_solve(tree, gen, state._replace(f=f_state), cfg)
    assert len(calls) == 2 * tree.n_steps


def test_a_jump_only_sweep_solves_a_g_drift():
    """A given g dt drift on a jump-only tree, beside a state f, is solved, not rejected: the
    final iterate solves the spec's g."""
    tree, gen, state, cfg = _instance(6, 1)
    assert state.g is None
    g_levels = [np.full(len(h), 0.1) for h in gen.h[:-1]]
    trace = picard_solve(tree, replace(gen, g_levels=g_levels), state, cfg)
    assert trace.frozen_spec.g_levels is g_levels
    assert _same_bits(trace.solution.z, [np.zeros(len(z)) for z in trace.solution.z])
    assert _same_bits(trace.solution.y, solve_given_generators(tree, trace.frozen_spec).y)
    without_g = picard_solve(tree, gen, state, cfg)
    assert trace.solution.y[0][0] != without_g.solution.y[0][0]


@pytest.mark.parametrize("n_brownian", [1, 2])
def test_the_leaf_level_is_represented_once_per_solve(monkeypatch, n_brownian):
    """Y_N = xi in every sweep, so its representation at k = N-1 is made once, not once per sweep."""
    from rbsdetree import rbsde

    tree, gen, state, cfg = _instance(7, n_brownian)
    leaf_calls = []
    for name in ("extract_representation", "representation_integrands"):
        def counted(tree_, k, v_next, _real=getattr(rbsde, name), _name=name):
            if k == tree_.n_steps - 1:
                leaf_calls.append(_name)
            return _real(tree_, k, v_next)

        monkeypatch.setattr(rbsde, name, counted)
    trace = picard_solve(tree, gen, state, cfg)
    assert len(trace.distances) >= 3
    assert leaf_calls == ["extract_representation"]


def test_a_barrier_above_the_payoff_raises_before_the_first_sweep(monkeypatch):
    from rbsdetree import picard

    tree, gen, state, cfg = _instance(8, 2)
    calls = []
    monkeypatch.setattr(picard, "solve_given_generators", lambda *a, **kw: calls.append("solve"))
    f_state = lambda tree_, k, y, u: calls.append("f_state") or state.f(tree_, k, y, u)  # noqa: E731
    h = gen.h[:-1] + [gen.xi + 0.25]
    with pytest.raises(ValueError, match="barrier exceeds terminal payoff at a leaf by 2.500e-01"):
        picard_solve(tree, replace(gen, h=h), state._replace(f=f_state), cfg)
    assert calls == []
