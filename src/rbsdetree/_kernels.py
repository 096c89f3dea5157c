"""Hot numeric kernels, vectorized with numpy."""

from __future__ import annotations

from functools import reduce

import numpy as np

# Kept as a plain constant: perfbench/run.py:269 reads it into its host record.
USE_NUMBA = False

#: Paths drawn per batch in simulate_event_counts; bounds the draw buffer.
SIMULATION_CHUNK = 256


def enumerate_rules(path_nodes, reward_stop, reward_leaf, probs, n_interior):
    """Value of every stopping rule, from one backward pass over subtree tables.

    ``path_nodes[p, k]`` is the interior-node id visited by path p at level
    k; bit (n_interior - 1 - id) of a mask marks that node as a stop node, so
    larger masks stop earlier in (level, index) order.  Returns the
    (2^n_interior,) array of probability-weighted rule values.

    ``path_nodes`` must describe a tree: paths in leaf order, the paths
    through each node one contiguous block nested in its parent's, and ids
    0 .. n_interior - 1 each on one level; ValueError otherwise.  The check
    costs O(paths * levels).

    Node v's table, on axis v of a ``(2,) * n_interior`` array, is the sum of
    probs[p] * reward_stop[p, k] over v's paths where v's bit is set, and
    the outer sum of its children's tables elsewhere; a leaf's table is
    probs[p] * reward_leaf[p].  The root's table, flattened in C order, is
    the result: O(2^n_interior) work, with that one table the largest array.
    """
    path_nodes = np.asarray(path_nodes, dtype=np.int64)
    n_paths, n_levels = path_nodes.shape
    new_block = np.ones((n_paths, n_levels), dtype=bool)
    new_block[1:] = path_nodes[1:] != path_nodes[:-1]
    block_ids = path_nodes[new_block]
    if (
        n_paths < 1
        or np.any(new_block[:, :-1] & ~new_block[:, 1:])
        or not np.array_equal(np.sort(block_ids), np.arange(n_interior))
    ):
        raise ValueError("path_nodes does not describe a tree with nodes 0 .. n_interior - 1")
    probs = np.asarray(probs, dtype=np.float64)
    weighted_stop = probs[:, None] * np.asarray(reward_stop, dtype=np.float64)
    # one table per block of paths on the level below, block i from path starts[i]
    tables = list(probs * np.asarray(reward_leaf, dtype=np.float64))
    starts = np.arange(n_paths)
    for k in range(n_levels - 1, -1, -1):
        rows = np.flatnonzero(new_block[:, k])
        stop = np.add.reduceat(weighted_stop[:, k], rows)
        bounds = np.append(np.searchsorted(starts, rows), len(tables))
        next_tables = []
        for node, s, lo, hi in zip(path_nodes[rows, k], stop, bounds[:-1], bounds[1:]):
            bit = np.array([False, True]).reshape([2 if a == node else 1 for a in range(n_interior)])
            next_tables.append(np.where(bit, s, reduce(np.add, tables[lo:hi])))
        tables, starts = next_tables, rows
    return reduce(np.add, tables).reshape(-1)


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
