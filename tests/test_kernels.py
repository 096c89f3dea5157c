import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsdetree import _kernels


def _path_loop_enumeration(path_nodes, reward_stop, reward_leaf, probs, n_interior):
    """Reference: each path's stopped reward under every mask, summed path by path."""
    n_rules = 1 << n_interior
    masks = np.arange(n_rules, dtype=np.uint64)
    values = np.zeros(n_rules)
    n_paths, n_levels = path_nodes.shape
    for p in range(n_paths):
        val = np.full(n_rules, reward_leaf[p])
        for k in range(n_levels - 1, -1, -1):
            shift = np.uint64(n_interior - 1 - path_nodes[p, k])
            bit = (masks >> shift) & np.uint64(1)
            val = np.where(bit == 1, reward_stop[p, k], val)
        values += probs[p] * val
    return values


def _layout(branchings, ids=None):
    """Path-node table of a tree with these per-level branchings.

    Node ids run in level order, as in ``brute_force_value``, unless ``ids``
    relabels them.  Returns (path_nodes, n_interior).
    """
    widths = np.cumprod([1, *branchings])
    n_paths = int(widths[-1])
    offsets = np.concatenate([[0], np.cumsum(widths[:-1])])
    path_nodes = np.empty((n_paths, len(branchings)), dtype=np.int64)
    for depth, width in enumerate(widths[:-1]):
        path_nodes[:, depth] = offsets[depth] + (np.arange(n_paths) * width) // n_paths
    n_interior = int(offsets[-1])
    if ids is not None:
        path_nodes = np.asarray(ids, dtype=np.int64)[path_nodes]
    return path_nodes, n_interior


def _random_inputs(rng, branchings, ids=None):
    path_nodes, n_interior = _layout(branchings, ids)
    n_paths = len(path_nodes)
    return (
        path_nodes,
        rng.normal(size=path_nodes.shape),
        rng.normal(size=n_paths),
        rng.dirichlet(np.ones(n_paths)),
        n_interior,
    )


def _table(args, **kwargs):
    """The kernel's kept table, after checking its (value, mask) against it."""
    value, mask, table = _kernels.enumerate_rules(*args, keep_table=True, **kwargs)
    assert table.shape == (1 << args[4],) and table.dtype == np.float64
    # the best value and the largest mask that reaches it
    assert value == table.max() and mask == len(table) - 1 - np.argmax(table[::-1])
    return table


@st.composite
def tree_layouts(draw):
    """Branchings of 1-4 levels, each 1-3, with at most 12 interior nodes."""
    branchings, width, n_interior = [], 1, 1
    for _ in range(draw(st.integers(1, 4)) - 1):
        most = min(3, (12 - n_interior) // width)  # the next level holds width * b nodes
        if most < 1:
            break
        branchings.append(draw(st.integers(1, most)))
        width *= branchings[-1]
        n_interior += width
    branchings.append(draw(st.integers(1, 3)))  # the last branching makes leaves
    return branchings


def _interior_branchings(levels, low, high):
    """Every list of interior branchings (each 1-3, at most ``levels``) with low..high interior nodes."""
    found = []

    def extend(branchings, width, n_interior):
        if low <= n_interior <= high:
            found.append(branchings)
        for b in (1, 2, 3):
            if len(branchings) < levels and n_interior + width * b <= high:
                extend([*branchings, b], width * b, n_interior + width * b)

    extend([], 1, 1)
    return found


#: 15-17 interior nodes: two to eight blocks of 2^14 rules
MULTI_BLOCK_LAYOUTS = _interior_branchings(5, 15, 17)


@settings(max_examples=80, deadline=None, database=None)
@given(branchings=tree_layouts(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_enumeration_matches_the_path_loop_on_every_mask(branchings, data, seed):
    n_interior = _layout(branchings)[1]
    assert n_interior <= 12
    ids = data.draw(st.permutations(range(n_interior)))
    args = _random_inputs(np.random.default_rng(seed), branchings, ids)
    table = _table(args)
    np.testing.assert_allclose(table, _path_loop_enumeration(*args), rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None, database=None)
@given(branchings=tree_layouts(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_enumeration_does_not_depend_on_the_block_size(branchings, data, seed):
    """Blocks of 2^1 .. 2^n masks give the single block's table and best rule bit for bit."""
    n_interior = _layout(branchings)[1]
    ids = data.draw(st.permutations(range(n_interior)))
    args = _random_inputs(np.random.default_rng(seed), branchings, ids)
    whole = _kernels.enumerate_rules(*args, keep_table=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "BLOCK_BITS", data.draw(st.integers(1, n_interior)))
        blocks = _kernels.enumerate_rules(*args, keep_table=True)
    assert blocks[:2] == whole[:2] and np.array_equal(blocks[2], whole[2])


@settings(max_examples=12, deadline=None, database=None)
@given(
    interior=st.sampled_from(MULTI_BLOCK_LAYOUTS),
    leaves=st.integers(1, 3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_enumeration_across_blocks_matches_the_path_loop(interior, leaves, data, seed):
    branchings = [*interior, leaves]
    n_interior = _layout(branchings)[1]
    assert 15 <= n_interior <= 17 and n_interior > _kernels.BLOCK_BITS
    ids = data.draw(st.permutations(range(n_interior)))
    args = _random_inputs(np.random.default_rng(seed), branchings, ids)
    table = _table(args)
    np.testing.assert_allclose(table, _path_loop_enumeration(*args), rtol=0, atol=1e-12)
    assert _kernels.enumerate_rules(*args)[:2] == _kernels.enumerate_rules(*args, keep_table=True)[:2]


def test_every_rule_ties_across_every_block_when_all_rewards_are_zero():
    path_nodes, n_interior = _layout([1, 2, 2, 1, 2, 2])
    n_paths = len(path_nodes)
    zeros = np.zeros(path_nodes.shape)
    args = (path_nodes, zeros, zeros[:, 0], np.full(n_paths, 1 / n_paths), n_interior)
    assert n_interior == 20 and _kernels.BLOCK_BITS < n_interior
    value, mask, table = _kernels.enumerate_rules(*args)
    assert (value, mask, table) == (0.0, (1 << n_interior) - 1, None)


def test_enumeration_matches_the_path_loop_at_the_oracle_cap_shape():
    args = _random_inputs(np.random.default_rng(20), [1, 2, 2, 1, 2, 2])
    assert args[4] == 20
    table = _table(args)
    reference = _path_loop_enumeration(*args)
    np.testing.assert_allclose(table, reference, rtol=0, atol=1e-12)
    # the oracle's tie-break: the largest mask among the maximal values
    assert np.argmax(table[::-1]) == np.argmax(reference[::-1])


@pytest.mark.parametrize(
    "path_nodes, n_interior",
    [
        ([[0, 1], [0, 2], [0, 1]], 3),  # node 1's paths are not contiguous
        ([[0, 2], [1, 2]], 3),  # node 2 lies under two parents
        ([[0, 0], [0, 0]], 1),  # node 0 on two levels
        ([[0, 1], [0, 1]], 3),  # node 2 on no path
        ([[0, 1], [0, 3]], 3),  # node 3 out of range
        (np.zeros((0, 1), dtype=np.int64), 0),  # no path at all
    ],
)
def test_enumeration_rejects_a_non_tree_layout(path_nodes, n_interior):
    path_nodes = np.asarray(path_nodes, dtype=np.int64)
    n_paths = len(path_nodes)
    with pytest.raises(ValueError, match="tree"):
        _kernels.enumerate_rules(
            path_nodes, np.zeros(path_nodes.shape), np.zeros(n_paths), np.ones(n_paths), n_interior
        )


def _toy_enumeration_inputs(rng, n_paths=8, n_levels=3, n_interior=7):
    # standard binary-tree layout: level offsets 0, 1, 3
    path_nodes = np.empty((n_paths, n_levels), dtype=np.int64)
    path_nodes[:, 0] = 0
    path_nodes[:, 1] = 1 + np.arange(n_paths) // 4
    path_nodes[:, 2] = 3 + np.arange(n_paths) // 2
    reward_stop = rng.normal(size=(n_paths, n_levels))
    reward_leaf = rng.normal(size=n_paths)
    probs = rng.dirichlet(np.ones(n_paths))
    return path_nodes, reward_stop, reward_leaf, probs, n_interior


def test_numpy_enumeration_matches_explicit_loop():
    rng = np.random.default_rng(0)
    args = _toy_enumeration_inputs(rng)
    path_nodes, reward_stop, reward_leaf, probs, n_interior = args
    values = _table(args)
    for mask in rng.integers(0, 1 << n_interior, size=20):
        total = 0.0
        for p in range(len(probs)):
            reward = reward_leaf[p]
            for k in range(path_nodes.shape[1]):
                if (int(mask) >> (n_interior - 1 - path_nodes[p, k])) & 1:
                    reward = reward_stop[p, k]
                    break
            total += probs[p] * reward
        assert values[int(mask)] == pytest.approx(total, abs=1e-12)


def test_simulated_counts_mean_three_sigma():
    p = np.array([0.3, 0.5, 0.1, 0.7])
    n = 20000
    counts = _kernels.simulate_event_counts(p, n, 9)
    assert counts.shape == (n,)
    assert counts.min() >= 0 and counts.max() <= len(p)
    sigma = np.sqrt(np.sum(p * (1 - p)) / n)
    assert abs(counts.mean() - p.sum()) <= 3 * sigma


def test_simulation_deterministic_for_fixed_seed():
    p = np.array([0.2, 0.4])
    a = _kernels.simulate_event_counts(p, 1000, 5)
    b = _kernels.simulate_event_counts(p, 1000, 5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("draws", [1, 6, 7, 8, 20, 1 << 16])
def test_simulated_counts_do_not_depend_on_the_batch_size(monkeypatch, draws):
    """Batches of whole paths read one stream in order: the counts of one unbatched draw."""
    p = np.linspace(0.05, 0.9, 7)
    monkeypatch.setattr(_kernels, "SIMULATION_DRAWS", draws)
    counts = _kernels.simulate_event_counts(p, 50, 3)
    assert np.array_equal(counts, (np.random.default_rng(3).random((50, 7)) < p).sum(axis=1))
