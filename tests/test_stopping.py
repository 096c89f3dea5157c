import tracemalloc

import numpy as np
import pytest

from rbsdetree import (
    CompensatorSpec,
    EnumerationBudgetExceeded,
    GeneratorSpec,
    MarkSet,
    TimeGrid,
    build_tree,
    StoppingRule,
    brute_force_value,
    epsilon_optimal_time,
    k_flatness_before_stop,
    level_expectation,
    reward_of_rule,
    reward_process,
    rule_from_mask,
    running_gains,
    smallest_optimal_time,
    solve_given_generators,
    stop_levels,
)
from rbsdetree.instances import make_tree, random_given_instance, random_oracle_instance
from rbsdetree.verify import fixture_reflected_binomial


def test_rules_must_stop_at_leaves():
    tree = make_tree(2, 1.0, ("a",), rate=0.0)
    levels = [np.zeros(tree.level_size(k), dtype=bool) for k in range(3)]
    with pytest.raises(ValueError):
        StoppingRule.from_levels(levels)


def test_stop_levels_first_entry():
    tree = make_tree(2, 1.0, ("a",), rate=0.0)  # binomial, 4 leaves
    levels = [np.array([True]), np.array([False, True]), np.ones(4, dtype=bool)]
    rule = StoppingRule.from_levels(levels)
    # root stops everything immediately, later entries are unreachable
    assert stop_levels(tree, rule).tolist() == [0, 0, 0, 0]
    levels = [np.array([False]), np.array([False, True]), np.ones(4, dtype=bool)]
    rule = StoppingRule.from_levels(levels)
    assert stop_levels(tree, rule).tolist() == [2, 2, 1, 1]


def test_leaves_only_reward_is_terminal_expectation():
    rng = np.random.default_rng(0)
    tree, base = random_given_instance(rng, max_steps=3)
    gen = GeneratorSpec(xi=base.xi, h=base.h)  # no running gains
    levels = [np.zeros(tree.level_size(k), dtype=bool) for k in range(tree.n_steps)]
    rule = StoppingRule.from_levels([*levels, np.ones(tree.n_leaves, dtype=bool)])
    assert reward_of_rule(tree, reward_process(tree, gen), rule) == pytest.approx(
        level_expectation(tree, tree.n_steps, gen.xi), abs=1e-12
    )


def test_brute_force_on_reflected_fixture():
    tree, gen = fixture_reflected_binomial()
    cert = brute_force_value(tree, reward_process(tree, gen))
    assert cert.n_interior == 1
    assert cert.value == pytest.approx(0.5, abs=1e-14)
    # stopping at the root (barrier 0.5) beats continuing (E[W_1] = 0);
    # the best mask has the root bit set
    assert cert.best_mask == 1
    assert bool(cert.best_rule.stop[0][0])
    assert cert.all_values.shape == (2,)
    assert cert.all_values[0] == pytest.approx(0.0, abs=1e-14)


def test_mask_bit_order_root_is_most_significant():
    tree = make_tree(2, 1.0, ("a",), rate=0.0)
    n_interior = 3
    full = rule_from_mask(tree, (1 << n_interior) - 1)
    assert bool(full.stop[0][0]) and np.all(full.stop[1])
    root_only = rule_from_mask(tree, 1 << (n_interior - 1))
    assert bool(root_only.stop[0][0]) and not np.any(root_only.stop[1])


def test_tie_break_prefers_larger_mask():
    # constant reward everywhere: every rule ties; largest mask stops earliest
    tree = make_tree(1, 1.0, ("a",), rate=0.0)
    xi = np.zeros(tree.n_leaves)
    gen = GeneratorSpec(xi=xi, h=[np.array([0.0]), xi])
    cert = brute_force_value(tree, reward_process(tree, gen))
    assert cert.best_mask == 1
    assert len(cert.optimal_masks()) == 2


def test_dominance_of_solution_value():
    rng = np.random.default_rng(1)
    for _ in range(10):
        tree, gen = random_oracle_instance(rng)
        sol = solve_given_generators(tree, gen)
        eta = reward_process(tree, gen)
        cert = brute_force_value(tree, eta)
        assert np.max(cert.all_values) <= sol.y[0][0] + 1e-10
        for _ in range(5):  # random rules are never better
            mask = int(rng.integers(0, len(cert.all_values)))
            rule = rule_from_mask(tree, mask)
            assert reward_of_rule(tree, eta, rule) <= sol.y[0][0] + 1e-10


def test_brute_force_below_a_node_with_branching_one():
    # jump-only, flat compensator on [0, 1]: the root has one child
    comp = CompensatorSpec.piecewise([0.0, 1.0, 2.0], [0.0, 0.0, 0.6], [[1.0]] * 3)
    tree = build_tree(TimeGrid.uniform(2, 2.0), MarkSet(("e1",)), comp, n_brownian=1)
    assert [tree.branching(k) for k in range(2)] == [1, 2]
    rng = np.random.default_rng(5)
    xi = rng.normal(size=tree.n_leaves)
    h = [rng.normal(size=tree.level_size(k)) for k in range(2)] + [xi]
    f = [rng.normal(size=tree.level_size(k)) for k in range(2)]
    gen = GeneratorSpec(xi=xi, h=h, f_levels=f)
    sol = solve_given_generators(tree, gen)
    cum = running_gains(tree, gen.f_levels, gen.g_levels)
    cert = brute_force_value(tree, reward_process(tree, gen))
    assert cert.n_interior == 2
    continue_value = float(tree.prob[2] @ (cum[2] + xi))
    # masks: 0 continues to the leaves, 1 stops at the root's one child,
    # 2 and 3 stop at the root
    expected = [continue_value, cum[1][0] + h[1][0], h[0][0], h[0][0]]
    np.testing.assert_allclose(cert.all_values, expected, rtol=0, atol=1e-12)
    assert cert.value == pytest.approx(float(sol.y[0][0]), abs=1e-10)


def test_the_oracle_without_its_table_allocates_under_one_mib():
    """At the 20-node cap the whole table would be 8 MiB; the blocks need a fraction of one."""
    # flat on [0, 1] and [3, 4]: branchings 1, 2, 2, 1, 2, 2, the oracle-cap layout
    comp = CompensatorSpec.piecewise([0.0, 1.0, 3.0, 4.0, 6.0], [0.0, 0.0, 1.2, 1.2, 2.4], [[1.0]] * 5)
    tree = build_tree(TimeGrid.uniform(6, 6.0), MarkSet(("e1",)), comp, n_brownian=1)
    rng = np.random.default_rng(3)
    xi = rng.normal(size=tree.n_leaves)
    gen = GeneratorSpec(xi=xi, h=[rng.normal(size=tree.level_size(k)) for k in range(6)] + [xi])
    eta = reward_process(tree, gen)
    tracemalloc.start()
    try:
        cert = brute_force_value(tree, eta, keep_table=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.n_interior == 20 and cert.all_values is None
    assert peak < 1 << 20, peak
    assert cert.value == brute_force_value(tree, eta).value


def test_enumeration_cap():
    tree = make_tree(5, 1.0, ("a",), rate=0.0)  # 31 interior nodes
    xi = tree.w[-1].copy()
    gen = GeneratorSpec(xi=xi, h=[np.full(tree.level_size(k), -10.0) for k in range(5)] + [xi])
    with pytest.raises(EnumerationBudgetExceeded):
        brute_force_value(tree, reward_process(tree, gen))


def test_epsilon_rules_nest_and_flatness():
    rng = np.random.default_rng(3)
    tree, gen = random_given_instance(rng, max_steps=4)
    sol = solve_given_generators(tree, gen)
    prev = None
    for eps in (0.1, 0.01, 0.0):
        rule = epsilon_optimal_time(tree, sol, gen.h, eps)
        lv = stop_levels(tree, rule)
        if prev is not None:
            assert np.all(prev <= lv)  # larger epsilon stops no later
        prev = lv
        assert k_flatness_before_stop(tree, sol, rule) <= 1e-12
    with pytest.raises(ValueError):
        epsilon_optimal_time(tree, sol, gen.h, -0.1)


def test_smallest_optimal_time_attains_value():
    rng = np.random.default_rng(4)
    for _ in range(10):
        tree, gen = random_given_instance(rng, max_steps=4, cross_terminal=True)
        sol = solve_given_generators(tree, gen)
        star = smallest_optimal_time(tree, sol, gen.h)
        assert reward_of_rule(tree, reward_process(tree, gen), star) == pytest.approx(
            float(sol.y[0][0]), abs=1e-10
        )
