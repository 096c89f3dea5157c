from types import SimpleNamespace

import numpy as np
import pytest

from rbsdetree import (
    BetaZero,
    WeightedNorm,
    cauchy_weight_bound,
    norm_sq,
    solve_given_generators,
)
from rbsdetree.cli import norm_table
from rbsdetree.instances import make_tree
from rbsdetree.verify import fixture_jump_count


def _constant(tree, value):
    return [np.full(tree.level_size(k), value) for k in range(tree.n_steps + 1)]


def test_kind_and_sign_validation():
    with pytest.raises(ValueError):
        WeightedNorm("bogus", 1.0)
    with pytest.raises(ValueError):
        WeightedNorm("A", -1.0)
    with pytest.raises(ValueError):
        WeightedNorm("A", 1.0, gamma=-0.5)


def test_zero_process_and_lebesgue_mass():
    tree = make_tree(4, 2.0, ("a",), rate=0.7)
    zeros = _constant(tree, 0.0)
    for kind in ("A", "W", "p"):
        w = WeightedNorm(kind, 1.0, 0.5)
        x = zeros
        if kind == "p":
            x = [np.zeros((tree.level_size(k), 1)) for k in range(tree.n_steps)]
        assert norm_sq(tree, x, w) == 0.0
    # x = 1, beta = 0, kind W: total Lebesgue mass = horizon
    assert norm_sq(tree, _constant(tree, 1.0), WeightedNorm("W", 0.0)) == pytest.approx(
        2.0, abs=1e-12
    )


def test_jump_fixture_norm():
    tree, gen = fixture_jump_count()
    sol = solve_given_generators(tree, gen)
    assert norm_sq(tree, sol.u, WeightedNorm("p", 0.0)) == pytest.approx(
        np.log(2.0), abs=1e-12
    )


def _random_process(tree, rng):
    return [rng.normal(size=tree.level_size(k)) for k in range(tree.n_steps)]


def test_homogeneity_and_triangle():
    tree = make_tree(3, 1.0, ("a",), rate=0.9)
    rng = np.random.default_rng(0)
    for kind in ("A", "W"):
        w = WeightedNorm(kind, 0.7, 0.3)
        for _ in range(10):
            x = _random_process(tree, rng)
            y = _random_process(tree, rng)
            c = float(rng.uniform(-3, 3))
            nx = np.sqrt(norm_sq(tree, x, w))
            ny = np.sqrt(norm_sq(tree, y, w))
            ncx = np.sqrt(norm_sq(tree, [c * xi for xi in x], w))
            nxy = np.sqrt(norm_sq(tree, [a + b for a, b in zip(x, y)], w))
            assert ncx == pytest.approx(abs(c) * nx, abs=1e-12)
            assert nxy <= nx + ny + 1e-12


def test_monotone_in_beta_and_gamma_equivalence():
    tree = make_tree(3, 1.0, ("a",), rate=0.9)
    rng = np.random.default_rng(1)
    x = _random_process(tree, rng)
    for kind in ("A", "W"):
        lo = norm_sq(tree, x, WeightedNorm(kind, 0.5))
        hi = norm_sq(tree, x, WeightedNorm(kind, 2.0))
        assert lo <= hi + 1e-14
        # e^{gamma t} weights change the norm by a factor in [1, e^{gamma T}]
        gamma = 1.3
        with_g = norm_sq(tree, x, WeightedNorm(kind, 0.5, gamma))
        assert lo - 1e-14 <= with_g <= np.exp(gamma * 1.0) * lo + 1e-12


def test_norm_table_integrates_y_against_both_clocks():
    tree = make_tree(3, 1.0, ("a",), rate=0.9)
    rng = np.random.default_rng(2)
    y = _random_process(tree, rng)
    u = [x[:, None] for x in _random_process(tree, rng)]
    table = norm_table(tree, SimpleNamespace(y=y, u=u, z=None), 0.8, 0.2)
    assert table["Y_A_plus_lambda"] == table["Y_A"] + table["Y_W"]
    # sum_k e^{beta A_k + gamma t_k} E[Y_k^2] (dA_k + dt_k), summed node by node
    direct = sum(
        np.exp(0.8 * tree.a_levels[k] + 0.2 * tree.grid.times[k])
        * np.sum(tree.prob[k] * y[k] ** 2)
        * (tree.da[k] + tree.grid.steps[k])
        for k in range(tree.n_steps)
    )
    assert table["Y_A_plus_lambda"] == pytest.approx(direct, rel=1e-12)
    assert "Z_W" not in table


def test_cauchy_weight_bound_examples():
    tree = make_tree(4, 1.0, ("a",), rate=1.0)  # A(T) = 1
    zeros = _constant(tree, 0.0)
    assert cauchy_weight_bound(tree, zeros, 1.0) == (0.0, 0.0, 0.0)
    ones = _constant(tree, 1.0)
    lhs, rhs, excess = cauchy_weight_bound(tree, ones, 1.0)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs >= 1.0 - 1e-12
    assert excess <= 1e-12
    with pytest.raises(BetaZero):
        cauchy_weight_bound(tree, ones, 0.0)


def test_cauchy_weight_bound_random_sweep():
    rng = np.random.default_rng(3)
    for seed in range(20):
        tree = make_tree(int(rng.integers(1, 5)), 1.0, ("a",), rate=float(rng.uniform(0.2, 2.0)))
        f = _random_process(tree, rng)
        beta = float(rng.uniform(0.1, 3.0))
        lhs, rhs, excess = cauchy_weight_bound(tree, f, beta)
        assert lhs <= rhs + 1e-12 and excess <= 1e-12


def test_cauchy_weight_bound_holds_on_coarse_grids():
    # a single step with a large compensator increment stresses the bound
    tree = make_tree(1, 1.0, ("a",), rate=np.log(2.0), n_brownian=1)
    ones = _constant(tree, 1.0)
    lhs, rhs, excess = cauchy_weight_bound(tree, ones, 2.0)
    assert lhs <= rhs + 1e-12 and excess <= 1e-12
