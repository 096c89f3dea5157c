"""Property tests of the core invariants over random small trees."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsdetree import (
    GeneratorSpec,
    check_skorohod,
    solve_given_generators,
    solve_mpp_only,
    solve_via_snell,
)
from rbsdetree.instances import make_tree

SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def trees(draw, n_brownian=None):
    """Tree of 1-3 steps with 1-2 marks; rate 0 gives Brownian-only levels."""
    n_steps = draw(st.integers(1, 3))
    labels = ("a", "b")[: draw(st.integers(1, 2))]
    rate = draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0)))
    if n_brownian is None:
        n_brownian = draw(st.sampled_from([1, 2]))
    return make_tree(n_steps, 1.0, labels, rate=rate, n_brownian=n_brownian)


@st.composite
def problems(draw, n_brownian=None, with_g=True):
    """Node-wise random payoff, barrier and generators on a random tree.

    The leaf barrier sits at or below the payoff; interior barrier levels are
    drawn on the payoff's scale so that reflection binds on many nodes.
    """
    tree = draw(trees(n_brownian))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = [tree.level_size(k) for k in range(tree.n_steps + 1)]
    xi = rng.normal(size=tree.n_leaves)
    h = [rng.normal(size=n) for n in sizes[:-1]]
    h.append(xi - rng.choice([0.0, 0.5], size=tree.n_leaves))
    f_levels = [rng.normal(size=n) for n in sizes[:-1]]
    g_levels = [rng.normal(size=n) for n in sizes[:-1]] if with_g and tree.n_brownian == 2 else None
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
    via, _ = solve_via_snell(tree, gen)
    for k in range(tree.n_steps + 1):
        assert np.max(np.abs(direct.y[k] - via.y[k])) <= 1e-10
        assert np.max(np.abs(direct.k_cum[k] - via.k_cum[k])) <= 1e-10


@SETTINGS
@given(problem=problems())
def test_minimal_push_conditions_hold(problem):
    tree, gen = problem
    report = check_skorohod(tree, solve_given_generators(tree, gen), gen.h)
    assert report.passed, report


@SETTINGS
@given(problem=problems(n_brownian=1, with_g=False))
def test_jump_only_solver_equals_general_solver(problem):
    tree, gen = problem
    a = solve_mpp_only(tree, gen)
    b = solve_given_generators(tree, gen)
    assert a.z is None
    for k in range(tree.n_steps + 1):
        assert np.max(np.abs(a.y[k] - b.y[k])) <= 1e-12
        assert np.max(np.abs(a.k_cum[k] - b.k_cum[k])) <= 1e-12
    for k in range(tree.n_steps):
        assert np.max(np.abs(a.u[k] - b.u[k])) <= 1e-12
        assert np.max(np.abs(a.dk[k] - b.dk[k])) <= 1e-12
