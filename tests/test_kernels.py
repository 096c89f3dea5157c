import numpy as np
import pytest

from rbsdetree import _kernels


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
    values = _kernels.enumerate_rules(*args)
    assert values.shape == (1 << n_interior,)
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
