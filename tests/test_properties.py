"""Property tests of the core invariants over random small trees."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsdetree import (
    GeneratorSpec,
    StoppingRule,
    check_skorohod,
    k_flatness_before_stop,
    reward_of_rule,
    reward_process,
    running_gains,
    solve_given_generators,
    solve_via_snell,
    stop_levels,
)
from rbsdetree.instances import make_tree
from rbsdetree.verify import filtration_gap, w_free_pair

SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def trees(draw):
    """Tree of 1-3 steps with 1-2 marks; rate 0 gives Brownian-only levels."""
    n_steps = draw(st.integers(1, 3))
    labels = ("a", "b")[: draw(st.integers(1, 2))]
    rate = draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0)))
    n_brownian = draw(st.sampled_from([1, 2]))
    return make_tree(n_steps, 1.0, labels, rate=rate, n_brownian=n_brownian)


@st.composite
def problems(draw):
    """Node-wise random payoff, barrier and generators on a random tree.

    The leaf barrier sits at or below the payoff; interior barrier levels are
    drawn on the payoff's scale so that reflection binds on many nodes.  A
    jump-only tree carries a g dt drift too.
    """
    tree = draw(trees())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = [tree.level_size(k) for k in range(tree.n_steps + 1)]
    xi = rng.normal(size=tree.n_leaves)
    h = [rng.normal(size=n) for n in sizes[:-1]]
    h.append(xi - rng.choice([0.0, 0.5], size=tree.n_leaves))
    f_levels = [rng.normal(size=n) for n in sizes[:-1]]
    g_levels = [rng.normal(size=n) for n in sizes[:-1]]
    return tree, GeneratorSpec(xi=xi, h=h, f_levels=f_levels, g_levels=g_levels)


@SETTINGS
@given(tree=trees(), seed=st.integers(0, 2**32 - 1))
def test_path_sum_is_the_sum_along_ancestors(tree, seed):
    rng = np.random.default_rng(seed)
    increments = [rng.normal(size=tree.level_size(k)) for k in range(tree.n_steps)]
    cum = tree.path_sum(increments)
    assert len(cum) == tree.n_steps + 1
    for level in range(tree.n_steps + 1):
        expected = np.zeros(tree.level_size(level))
        for k in range(level):
            expected = expected + increments[k][tree.ancestor_index(k, level)]
        assert np.array_equal(cum[level], expected)


@SETTINGS
@given(problem=problems())
def test_direct_and_envelope_routes_agree(problem):
    tree, gen = problem
    direct = solve_given_generators(tree, gen)
    y, dec, _ = solve_via_snell(tree, gen)
    for k in range(tree.n_steps + 1):
        assert np.max(np.abs(direct.y[k] - y[k])) <= 1e-10
        assert np.max(np.abs(direct.k_cum[k] - dec.k_cum[k])) <= 1e-10


@SETTINGS
@given(problem=problems())
def test_minimal_push_conditions_hold(problem):
    tree, gen = problem
    report = check_skorohod(tree, solve_given_generators(tree, gen), gen.h)
    assert report.passed, report


@SETTINGS
@given(
    n_steps=st.integers(1, 4),
    n_marks=st.integers(1, 2),
    rate=st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_jump_only_solver_equals_general_solver(n_steps, n_marks, rate, seed):
    """With data free of W, the jump-only tree solves as the binomial tree with the same jumps."""
    pair = w_free_pair(np.random.default_rng(seed), n_steps, ("a", "b")[:n_marks], rate)
    assert solve_given_generators(*pair[0]).z is None
    gap, z_max = filtration_gap(pair)
    assert gap <= 1e-12 and z_max <= 1e-12


def _per_leaf_reward(tree, gen, rule):
    """Sum over leaves of the path's gains and stop reward at its first stop."""
    f_levels, g_levels = gen.given_levels(tree)
    cum = running_gains(tree, f_levels, g_levels)
    levels = stop_levels(tree, rule)
    total = 0.0
    for k in range(tree.n_steps + 1):
        paths = np.flatnonzero(levels == k)
        anc = tree.ancestor_index(k, tree.n_steps)[paths]
        stop_reward = gen.xi[paths] if k == tree.n_steps else gen.h[k][anc]
        total += float(np.dot(tree.prob[-1][paths], cum[k][anc] + stop_reward))
    return total


def _per_leaf_flatness(tree, sol, rule):
    """Max over leaves of K at the path's first stop."""
    levels = stop_levels(tree, rule)
    worst = 0.0
    for k in range(tree.n_steps + 1):
        paths = np.flatnonzero(levels == k)
        if len(paths):
            anc = tree.ancestor_index(k, tree.n_steps)[paths]
            worst = max(worst, float(np.max(sol.k_cum[k][anc])))
    return worst


@SETTINGS
@given(problem=problems(), seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0))
def test_rule_values_match_the_per_leaf_formulas(problem, seed, density):
    tree, gen = problem
    sol = solve_given_generators(tree, gen)
    rng = np.random.default_rng(seed)
    levels = [rng.random(tree.level_size(k)) < density for k in range(tree.n_steps)]
    rule = StoppingRule.from_levels([*levels, np.ones(tree.n_leaves, dtype=bool)])
    eta = reward_process(tree, gen)
    assert abs(reward_of_rule(tree, eta, rule) - _per_leaf_reward(tree, gen, rule)) <= 1e-12
    assert k_flatness_before_stop(tree, sol, rule) == _per_leaf_flatness(tree, sol, rule)
