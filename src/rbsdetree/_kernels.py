"""Hot numeric kernels, vectorized with numpy."""

from __future__ import annotations

import numpy as np

# Kept as a plain constant: perfbench/run.py:269 reads it into its host record.
USE_NUMBA = False

#: Paths drawn per batch in simulate_event_counts; bounds the draw buffer.
SIMULATION_CHUNK = 256


def enumerate_rules(path_nodes, reward_stop, reward_leaf, probs, n_interior):
    """Value of every stopping rule, vectorized over rule bitmasks.

    ``path_nodes[p, k]`` is the global interior-node id visited by path p at
    level k; bit (n_interior - 1 - id) of a mask marks the node as a stop
    node, so larger masks stop earlier in (level, index) order.  Returns the
    (2^n_interior,) array of probability-weighted rule values.
    """
    path_nodes = np.ascontiguousarray(path_nodes, dtype=np.int64)
    reward_stop = np.ascontiguousarray(reward_stop, dtype=np.float64)
    reward_leaf = np.ascontiguousarray(reward_leaf, dtype=np.float64)
    probs = np.ascontiguousarray(probs, dtype=np.float64)
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


def simulate_event_counts(p_event, n_paths, seed):
    """Total event count per simulated path, drawn in fixed-size batches."""
    p_event = np.ascontiguousarray(p_event, dtype=np.float64)
    rng = np.random.default_rng(seed)
    out = np.empty(n_paths, dtype=np.int64)
    done = 0
    while done < n_paths:
        size = min(SIMULATION_CHUNK, n_paths - done)
        draws = rng.random((size, len(p_event)))
        out[done:done + size] = (draws < p_event[None, :]).sum(axis=1)
        done += size
    return out
