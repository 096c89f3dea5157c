import numpy as np
import pytest

from rbsdetree import (
    BudgetExceeded,
    CompensatorSpec,
    MarkSet,
    TimeGrid,
    build_tree,
    cexp_level,
    extract_representation,
    level_expectation,
    representation_integrands,
)
from rbsdetree.instances import make_tree


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.5]))
    g = TimeGrid.uniform(4, 2.0)
    assert g.n_steps == 4 and g.horizon == 2.0
    assert np.allclose(g.steps, 0.5)


def test_budget_enforced():
    with pytest.raises(BudgetExceeded) as exc:
        make_tree(30, 1.0, ("a",), rate=1.0, budget=1000)
    assert exc.value.required > exc.value.budget


def test_structure_mixed_tree():
    tree = make_tree(3, 1.0, ("a", "b"), rate=0.9)
    # binomial x (no-jump + 2 marks) = 6 branches per level
    assert [tree.branching(k) for k in range(3)] == [6, 6, 6]
    assert tree.n_leaves == 216
    assert tree.total_nodes == 1 + 6 + 36 + 216
    for k in range(3):
        assert tree.branch_prob[k].sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(tree.branch_prob[k] > 0)
    assert tree.prob[-1].sum() == pytest.approx(1.0, abs=1e-12)


def test_zero_intensity_levels_pruned():
    tree = make_tree(3, 1.0, ("a",), rate=0.0)
    assert [tree.branching(k) for k in range(3)] == [2, 2, 2]
    assert np.all(tree.n_jumps[-1] == 0)


def test_jump_only_tree():
    tree = make_tree(2, 1.0, ("a",), rate=np.log(2.0), n_brownian=1)
    assert [tree.branching(k) for k in range(2)] == [2, 2]
    assert np.all(tree.w[-1] == 0.0)
    # per-step jump probability 1 - exp(-dA) with dA = ln2 / 2
    p = 1.0 - np.exp(-np.log(2.0) / 2)
    assert tree.jump_prob[0] == pytest.approx(p, abs=1e-14)


def test_node_state_tracks_branches():
    tree = make_tree(2, 1.0, ("a", "b"), rate=1.0)
    dt = 0.5
    # Brownian-major branch order: up-move with no jump, mark a, mark b, then
    # the same three outcomes after a down-move
    assert tree.branch_mark[0].tolist() == [-1, 0, 1, -1, 0, 1]
    assert tree.w[1][0] == pytest.approx(np.sqrt(dt))
    assert tree.n_jumps[1].tolist() == [0, 1, 1, 0, 1, 1]
    assert tree.w[1][3] == pytest.approx(-np.sqrt(dt))
    # jump counts accumulate through the child block of a jumped node
    assert tree.n_jumps[2][6 * 1:6 * 2].tolist() == [1, 2, 2, 1, 2, 2]


def test_tower_property():
    tree = make_tree(3, 1.0, ("a",), rate=0.8)
    rng = np.random.default_rng(1)
    v = rng.normal(size=tree.n_leaves)
    nested = v
    for k in range(tree.n_steps - 1, -1, -1):
        nested = cexp_level(tree, k, nested)
    assert nested[0] == pytest.approx(level_expectation(tree, tree.n_steps, v), abs=1e-12)
    b = tree.branching(2)
    assert v[5 * b:6 * b] @ tree.branch_prob[2] == pytest.approx(cexp_level(tree, 2, v)[5], abs=1e-14)


def test_ancestor_and_repeat_roundtrip():
    tree = make_tree(3, 1.0, ("a",), rate=0.8)
    x = np.arange(tree.level_size(1), dtype=float)
    down = tree.repeat_to_children(x, 1)
    anc = tree.ancestor_index(1, 2)
    assert np.array_equal(down, x[anc])
    assert np.array_equal(tree.ancestor_index(0, 3), np.zeros(tree.n_leaves, dtype=int))


def test_representation_orthogonality():
    tree = make_tree(2, 1.0, ("a", "b"), rate=1.1)
    rng = np.random.default_rng(2)
    v = rng.normal(size=tree.level_size(1))
    rep = extract_representation(tree, 0, v)
    p = tree.branch_prob[0]
    dw = tree.branch_dw[0]
    mark = tree.branch_mark[0]
    q = tree.jump_prob[0] * tree.phi[0]
    res = rep.branch_residual[0]
    assert abs(res @ p) <= 1e-12
    assert abs(res @ (p * dw)) <= 1e-12
    for e in range(tree.n_marks):
        dq = (mark == e).astype(float) - q[e]
        assert abs(res @ (p * dq)) <= 1e-12
    # reconstruction: mean + z dW + sum u dq + residual = v
    recon = rep.mean[0] + rep.z[0] * dw + res
    for e in range(tree.n_marks):
        recon = recon + rep.u[0, e] * ((mark == e).astype(float) - q[e])
    assert np.allclose(recon, v, atol=1e-12)


def test_representation_exact_for_spanned_payoff():
    tree = make_tree(1, 1.0, ("a",), rate=0.7)
    dw = tree.branch_dw[0]
    jumped = (tree.branch_mark[0] >= 0).astype(float)
    v = 1.5 + 2.0 * dw - 3.0 * jumped
    rep = extract_representation(tree, 0, v)
    assert rep.z[0] == pytest.approx(2.0, abs=1e-12)
    assert rep.u[0, 0] == pytest.approx(-3.0, abs=1e-12)
    assert np.max(np.abs(rep.branch_residual)) <= 1e-12


def test_process_helpers():
    tree = make_tree(2, 1.0, ("a",), rate=0.5)
    ones = [np.full(tree.level_size(k), 1.0) for k in range(tree.n_steps + 1)]
    cum = tree.path_sum(ones[:-1])
    assert [len(x) for x in cum] == [tree.level_size(k) for k in range(tree.n_steps + 1)]
    assert all(np.all(cum[k] == k) for k in range(tree.n_steps + 1))


def test_jumpless_level_has_zero_jump_integrand():
    tree = make_tree(2, 1.0, ("a",), rate=0.0)  # no jump branches at all
    rep = extract_representation(tree, 0, np.arange(2, dtype=float))
    assert np.all(rep.u == 0.0)
    tree = make_tree(2, 1.0, ("a",), rate=1.0)
    rep = extract_representation(tree, 0, np.arange(tree.level_size(1), dtype=float))
    assert np.all(rep.u != 0.0)


@pytest.mark.parametrize("rate, n_brownian", [(1.1, 2), (0.0, 2), (0.8, 1)])
def test_integrands_are_those_of_the_full_representation(rate, n_brownian):
    tree = make_tree(3, 1.0, ("a", "b"), rate=rate, n_brownian=n_brownian)
    rng = np.random.default_rng(3)
    for k in range(tree.n_steps):
        v = rng.normal(size=tree.level_size(k + 1))
        full, part = extract_representation(tree, k, v), representation_integrands(tree, k, v)
        for name in ("mean", "z", "u"):
            assert getattr(full, name).tobytes() == getattr(part, name).tobytes()
        assert part.residual is None and part.branch_residual is None
        assert full.residual.shape == (tree.level_size(k),)
