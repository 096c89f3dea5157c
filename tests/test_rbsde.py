import numpy as np
import pytest

from rbsdetree import (
    BetaZero,
    GeneratorSpec,
    a_priori_majorant,
    check_equation_residual,
    check_skorohod,
    reward_process,
    solve_given_generators,
    solve_via_snell,
)
from rbsdetree.instances import make_tree, random_given_instance
from rbsdetree.verify import fixture_jump_count, fixture_reflected_binomial


def test_reflected_binomial_fixture():
    tree, gen = fixture_reflected_binomial()
    sol = solve_given_generators(tree, gen)
    assert sol.y[0][0] == pytest.approx(0.5, abs=1e-12)
    assert sol.z[0][0] == pytest.approx(1.0, abs=1e-12)
    assert sol.dk[0][0] == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(sol.residual[0])) <= 1e-12


def test_jump_count_fixture():
    tree, gen = fixture_jump_count()
    sol = solve_given_generators(tree, gen)
    assert sol.z is None  # a jump-only tree has no Brownian integrand
    assert sol.y[0][0] == pytest.approx(0.5, abs=1e-12)
    assert sol.u[0][0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(sol.residual[0])) <= 1e-12


def test_terminal_condition_and_barrier_dominance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        tree, gen = random_given_instance(rng, max_steps=4, cross_terminal=True)
        sol = solve_given_generators(tree, gen)
        assert np.array_equal(sol.y[-1], gen.xi)
        rep = check_skorohod(tree, sol, gen.h)
        assert rep.passed
        # reflected nodes carry Y == h bit-exactly
        for k in range(tree.n_steps):
            pushed = sol.dk[k] > 0
            assert np.all(sol.y[k][pushed] == gen.h[k][pushed])


def test_route_equivalence_and_k_agreement():
    rng = np.random.default_rng(1)
    for _ in range(10):
        tree, gen = random_given_instance(rng, max_steps=4, cross_terminal=True)
        direct = solve_given_generators(tree, gen)
        y, dec, eta = solve_via_snell(tree, gen)
        for k in range(tree.n_steps + 1):
            assert np.allclose(direct.y[k], y[k], atol=1e-10)
            assert np.allclose(direct.k_cum[k], dec.k_cum[k], atol=1e-10)
        # the reward process it returns is the one ``reward_process`` builds, bit for bit
        assert all(a.tobytes() == b.tobytes() for a, b in zip(eta, reward_process(tree, gen), strict=True))


def test_validate_rejects_barrier_above_payoff():
    tree = make_tree(1, 1.0, ("a",), rate=0.0)
    xi = tree.w[-1].copy()
    gen = GeneratorSpec(xi=xi, h=[np.array([0.0]), xi + 0.1])
    with pytest.raises(ValueError):
        solve_given_generators(tree, gen)


def test_equation_residual_report():
    rng = np.random.default_rng(2)
    tree, gen = random_given_instance(rng, max_steps=3, cross_terminal=True)
    sol = solve_given_generators(tree, gen)
    rep = check_equation_residual(tree, sol, gen)
    assert rep.max_conditional_mean <= 1e-12
    assert rep.max_mismatch_vs_representation <= 1e-12


def test_skorohod_detects_tampering():
    rng = np.random.default_rng(3)
    while True:
        tree, gen = random_given_instance(rng, max_steps=3)
        sol = solve_given_generators(tree, gen)
        if any(np.any(dk > 1e-6) for dk in sol.dk):
            break
    k = next(k for k in range(tree.n_steps) if np.any(sol.dk[k] > 1e-6))
    i = int(np.argmax(sol.dk[k]))
    sol.y[k][i] = gen.h[k][i] + 1.0  # now (Y - h) dK > 0 there
    assert not check_skorohod(tree, sol, gen.h).passed


def test_majorant_holds_and_flags_inflated_solution():
    rng = np.random.default_rng(4)
    tree, gen = random_given_instance(rng, max_steps=4, cross_terminal=True)
    sol = solve_given_generators(tree, gen)
    for beta in (0.5, 1.0, 2.0):
        assert a_priori_majorant(tree, gen, sol, beta=beta) == []
    sol.y[0] = sol.y[0] + 1000.0
    viols = a_priori_majorant(tree, gen, sol, beta=1.0)
    assert any(v[0] == 0 for v in viols)


def test_majorant_requires_positive_beta_with_f():
    tree = make_tree(2, 1.0, ("a",), rate=1.0)
    xi = tree.w[-1].copy()
    h = [np.full(tree.level_size(k), -10.0) for k in range(2)] + [xi]
    gen = GeneratorSpec(
        xi=xi, h=h, f_levels=[np.ones(tree.level_size(k)) for k in range(2)]
    )
    sol = solve_given_generators(tree, gen)
    with pytest.raises(BetaZero):
        a_priori_majorant(tree, gen, sol, beta=0.0)


def test_unreflected_solution_is_conditional_expectation():
    # with barrier far below, Y_0 = E[xi + sum f dA + sum g dt]
    tree = make_tree(3, 1.0, ("a",), rate=0.7)
    rng = np.random.default_rng(5)
    xi = rng.normal(size=tree.n_leaves)
    h = [np.full(tree.level_size(k), -1e6) for k in range(3)] + [xi - 1.0]
    f = [rng.normal(size=tree.level_size(k)) for k in range(3)]
    g = [rng.normal(size=tree.level_size(k)) for k in range(3)]
    gen = GeneratorSpec(xi=xi, h=h, f_levels=f, g_levels=g)
    sol = solve_given_generators(tree, gen)
    from rbsdetree import level_expectation
    from rbsdetree.rbsde import running_gains

    cum = running_gains(tree, f, g)
    expected = level_expectation(tree, tree.n_steps, xi + cum[-1])
    assert sol.y[0][0] == pytest.approx(expected, abs=1e-12)
    assert all(np.all(dk == 0) for dk in sol.dk)


def test_mpp_only_constant_drift_integral():
    # f = c, g = d, xi = 0, inactive barrier on a jump-only tree: Y_0 = c * A(T) + d * T
    tree = make_tree(4, 1.0, ("a",), rate=0.8, n_brownian=1)
    c, d = 0.7, -0.3
    xi = np.zeros(tree.n_leaves)
    h = [np.full(tree.level_size(k), -10.0) for k in range(4)] + [xi - 10.0]
    gen = GeneratorSpec(xi=xi, h=h, f_levels=[np.full(tree.level_size(k), c) for k in range(4)])
    sol = solve_given_generators(tree, gen)
    assert sol.y[0][0] == pytest.approx(c * 0.8, abs=1e-12)
    g_levels = [np.full(tree.level_size(k), d) for k in range(4)]
    sol = solve_given_generators(tree, GeneratorSpec(xi=xi, h=h, f_levels=gen.f_levels, g_levels=g_levels))
    assert sol.z is None and sol.y[0][0] == pytest.approx(c * 0.8 + d * 1.0, abs=1e-12)


def test_barrier_dominant_push_absorbs_drift():
    # h = xi = 10 with negative drift: Y stays pinned at 10, K absorbs f dA
    tree = make_tree(2, 1.0, ("a",), rate=1.0, n_brownian=1)
    xi = np.full(tree.n_leaves, 10.0)
    h = [np.full(tree.level_size(k), 10.0) for k in range(3)]
    gen = GeneratorSpec(
        xi=xi, h=h, f_levels=[np.full(tree.level_size(k), -1.0) for k in range(2)]
    )
    sol = solve_given_generators(tree, gen)
    for k in range(3):
        assert np.allclose(sol.y[k], 10.0, atol=1e-12)
    for k in range(2):
        assert np.allclose(sol.dk[k], tree.da[k], atol=1e-12)


def test_majorant_beta_zero_without_f():
    # reflected binomial fixture at beta = 0: S_0 = E|xi| + sup|h| >= Y_0
    tree, gen = fixture_reflected_binomial()
    sol = solve_given_generators(tree, gen)
    assert a_priori_majorant(tree, gen, sol, beta=0.0) == []


@pytest.mark.parametrize("field", ["xi", "h", "f_levels", "g_levels"])
def test_validate_rejects_non_finite_data(field):
    tree = make_tree(2, 1.0, ("a",), rate=0.5)
    xi = tree.w[-1].copy()
    data = {
        "xi": xi,
        "h": [np.full(tree.level_size(k), -10.0) for k in range(tree.n_steps + 1)],
        "f_levels": [np.zeros(tree.level_size(k)) for k in range(tree.n_steps)],
        "g_levels": [np.zeros(tree.level_size(k)) for k in range(tree.n_steps)],
    }
    target = data[field] if field == "xi" else data[field][0]
    target[0] = np.nan
    with pytest.raises(ValueError, match=field):
        solve_given_generators(tree, GeneratorSpec(**data))
