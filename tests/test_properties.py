"""Property tests of the core invariants over random small trees."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsdetree import (
    GeneratorSpec,
    StoppingRule,
    a_priori_majorant,
    check_skorohod,
    k_flatness_before_stop,
    reward_of_rule,
    reward_process,
    running_gains,
    solve_given_generators,
    solve_via_snell,
    stop_levels,
)
from rbsdetree.cli import norm_table
from rbsdetree.instances import make_tree
from rbsdetree.lattice import cexp_level
from rbsdetree.rbsde import MAJORANT_TOL
from rbsdetree.verify import filtration_gap, w_free_pair

SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def trees(draw, n_brownian=st.sampled_from([1, 2])):
    """Tree of 1-3 steps with 1-2 marks; rate 0 gives Brownian-only levels."""
    n_steps = draw(st.integers(1, 3))
    labels = ("a", "b")[: draw(st.integers(1, 2))]
    rate = draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0)))
    n_brownian = draw(n_brownian)
    return make_tree(n_steps, 1.0, labels, rate=rate, n_brownian=n_brownian)


@st.composite
def problems(draw, n_brownian=st.sampled_from([1, 2])):
    """Node-wise random payoff, barrier and generators on a random tree.

    The leaf barrier sits at or below the payoff; interior barrier levels are
    drawn on the payoff's scale so that reflection binds on many nodes.  A
    jump-only tree carries a g dt drift too.
    """
    tree = draw(trees(n_brownian))
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
    assert tree.leaf_sum(increments).tobytes() == cum[-1].tobytes()


@SETTINGS
@given(problem=problems())
def test_direct_and_envelope_routes_agree(problem):
    tree, gen = problem
    direct = solve_given_generators(tree, gen)
    y, _, dk, _ = solve_via_snell(tree, gen)
    k_cum = tree.path_sum(dk)
    for k in range(tree.n_steps + 1):
        assert np.max(np.abs(direct.y[k] - y[k])) <= 1e-10
        assert np.max(np.abs(direct.k_cum[k] - k_cum[k])) <= 1e-10


@SETTINGS
@given(problem=problems())
def test_minimal_push_conditions_hold(problem):
    tree, gen = problem
    report = check_skorohod(tree, solve_given_generators(tree, gen), gen.h)
    assert report["passed"], report


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
    assert not any(z.any() for z in solve_given_generators(*pair[0]).z)
    gap, z_max = filtration_gap(pair)
    assert gap <= 1e-12 and z_max <= 1e-12


def _per_leaf_reward(tree, gen, rule):
    """Sum over leaves of the path's gains and stop reward at its first stop."""
    cum = running_gains(tree, gen.f_levels, gen.g_levels)
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


def _same_bits(a, b):
    return len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


@SETTINGS
@given(problem=problems(), dropped=st.sampled_from(["f", "g", "fg"]))
def test_an_absent_generator_solves_as_explicit_zero_levels(problem, dropped):
    tree, gen = problem
    explicit = replace(gen, **{f"{x}_levels": [np.zeros(len(h)) for h in gen.h[:-1]] for x in dropped})
    absent = replace(gen, **{f"{x}_levels": None for x in dropped})
    a, b = solve_given_generators(tree, absent), solve_given_generators(tree, explicit)
    for name in ("y", "u", "z", "dk", "k_cum", "residual"):
        assert _same_bits(getattr(a, name), getattr(b, name)), name


@SETTINGS
@given(problem=problems(n_brownian=st.just(1)))
def test_z_is_positive_zero_at_every_node_of_a_jump_only_tree(problem):
    tree, gen = problem
    for sol in solve_given_generators(tree, gen), solve_given_generators(tree, gen, integrands_only=True):
        assert len(sol.z) == tree.n_steps
        assert _same_bits(sol.z, [np.zeros(tree.level_size(k)) for k in range(tree.n_steps)])


@SETTINGS
@given(problem=problems(), beta=st.floats(0.0, 2.0), gamma=st.floats(0.0, 2.0))
def test_norm_table_reports_z_iff_the_tree_has_brownian_branching(problem, beta, gamma):
    tree, gen = problem
    table = norm_table(tree, solve_given_generators(tree, gen), beta, gamma)
    assert ("Z_W" in table) == (tree.n_brownian == 2)


def _majorant_by_lists(tree, gen, sol, beta):
    """The a priori majorant as it was first written, holding every level of each path
    functional and of S at once: the reference for the streamed ``a_priori_majorant``."""
    a = tree.a_levels
    n = tree.n_steps
    has_f = any(bool(np.any(gen.f_levels[k] != 0)) for k in range(n))
    f_sq = tree.path_sum(np.exp(beta * a[k + 1]) * gen.f_levels[k] ** 2 * tree.da[k] for k in range(n))
    g_abs = tree.path_sum(
        np.exp(beta * a[k] / 2) * np.abs(gen.g_levels[k]) * tree.grid.steps[k] for k in range(n)
    )
    h_max = [np.exp(beta * a[0] / 2) * np.abs(gen.h[0])]
    for k in range(n):
        h_max.append(
            np.maximum(
                tree.repeat_to_children(h_max[k], k),
                np.exp(beta * a[k + 1] / 2) * np.abs(gen.h[k + 1]),
            )
        )
    f_term = np.sqrt(f_sq[-1]) / np.sqrt(beta) if has_f else np.zeros(tree.n_leaves)
    zeta = np.exp(beta * a[-1] / 2) * np.abs(gen.xi) + f_term + g_abs[-1] + h_max[-1]
    s = [None] * (n + 1)
    s[n] = zeta
    violations = []
    for k in range(n, -1, -1):
        if k < n:
            s[k] = cexp_level(tree, k, s[k + 1])
        lhs = np.exp(beta * a[k] / 2) * np.abs(sol.y[k])
        bad = lhs > s[k] + MAJORANT_TOL
        for i in np.flatnonzero(bad):
            violations.append((k, int(i), float(lhs[i]), float(s[k][i])))
    return violations


@SETTINGS
@given(problem=problems(), beta=st.sampled_from([0.5, 1.0, 2.0]), scale=st.sampled_from([1.0, 0.1, 0.0]))
def test_the_streamed_majorant_gives_the_list_based_violations_bit_for_bit(problem, beta, scale):
    """Y of the problem against the majorant of its data scaled by ``scale``: scaled down, the
    bound fails at some nodes, and at scale 0 (no f) wherever Y is not 0."""
    tree, gen = problem
    sol = solve_given_generators(tree, gen)
    scaled = GeneratorSpec(
        xi=scale * gen.xi,
        h=[scale * x for x in gen.h],
        f_levels=[scale * x for x in gen.f_levels],
        g_levels=[scale * x for x in gen.g_levels],
    )
    got, want = a_priori_majorant(tree, scaled, sol, beta), _majorant_by_lists(tree, scaled, sol, beta)
    assert [(k, i, lhs.hex(), rhs.hex()) for k, i, lhs, rhs in got] == [
        (k, i, lhs.hex(), rhs.hex()) for k, i, lhs, rhs in want
    ]
    assert got or scale > 0
