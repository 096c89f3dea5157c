"""Hot numeric kernels, vectorized with numpy."""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

import numpy as np

# Kept as a plain constant: perfbench/run.py:269 reads it into its host record.
USE_NUMBA = False

#: Uniforms per batch in simulate_event_counts (one path's, if more); the counts do not depend on it.
SIMULATION_DRAWS = 1 << 16


#: Free mask bits per block: a block values the 2^BLOCK_BITS consecutive masks
#: that share their top bits.  At 14 its 128 KiB arrays stay in cache and are
#: reused by the allocator; from 15 up each block faulted in fresh pages, and
#: below 13 the per-block Python cost dominated (20-node trees, measured).
BLOCK_BITS = 14


class _TopNode(NamedTuple):
    """A node whose table depends on the top mask bits: rebuilt for each block."""

    node: int
    stop: float
    children: list


def enumerate_rules(path_nodes, reward_stop, reward_leaf, probs, n_interior, *, keep_table=False):
    """Value of every stopping rule, from a backward pass over subtree tables.

    ``path_nodes[p, k]`` is the interior-node id visited by path p at level
    k; bit (n_interior - 1 - id) of a mask marks that node as a stop node, so
    larger masks stop earlier in (level, index) order.  Returns (value, mask,
    table): the largest probability-weighted rule value, the largest mask
    that reaches it, and with ``keep_table`` the (2^n_interior,) array of
    every rule's value (None otherwise).

    ``path_nodes`` must describe a tree: paths in leaf order, the paths
    through each node one contiguous block nested in its parent's, and ids
    0 .. n_interior - 1 each on one level; ValueError otherwise.  The check
    costs O(paths * levels).

    Node v's table, on axis v, is the sum of probs[p] * reward_stop[p, k]
    over v's paths where v's bit is set, and the outer sum of its children's
    tables, left to right, elsewhere; a leaf's table is probs[p] *
    reward_leaf[p].  The root's table, flattened in C order, holds the rule
    values.  It is built one block at a time, a block being the
    2^BLOCK_BITS masks that share their top bits: the bits of the ids below
    n_top = n_interior - BLOCK_BITS.  A node whose subtree holds no such id
    has one table, on the free axes, built once; the other nodes' tables are
    rebuilt per block with the top bits fixed.  Each rule's value is still
    the table entry of the same sums, so the results do not depend on the
    block size.  A running (max, last mask reaching it) over the blocks
    gives the tie-break toward the larger mask; the kept table, if any, is
    filled from the same blocks.  O(2^n_interior) work; unless the table
    is kept, no array has more than 2^BLOCK_BITS entries.
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
    n_top = max(n_interior - BLOCK_BITS, 0)
    n_free = n_interior - n_top
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
            children = tables[lo:hi]
            if node < n_top or any(isinstance(c, _TopNode) for c in children):
                next_tables.append(_TopNode(node, s, children))
            else:
                next_tables.append(np.where(_bit(node - n_top, n_free), s, reduce(np.add, children)))
        tables, starts = next_tables, rows

    size, shape = 1 << n_free, (2,) * n_free
    table = np.empty(1 << n_interior) if keep_table else None
    best_value, best_mask = None, None
    for top in range(1 << n_top):
        block = reduce(np.add, [_block_table(t, top, n_top, n_free) for t in tables])
        first = top << n_free
        if keep_table:
            table[first:first + size].reshape(shape)[...] = block
        if best_value is None or block.max() >= best_value:  # ties go to the larger mask
            values = np.broadcast_to(block, shape).reshape(-1)
            i = size - 1 - int(np.argmax(values[::-1]))
            best_value, best_mask = values[i], first + i
    return float(best_value), best_mask, table


def _bit(axis, n_axes):
    """[False, True] on ``axis`` of an ``n_axes``-dimensional array."""
    return np.array([False, True]).reshape([2 if a == axis else 1 for a in range(n_axes)])


def _block_table(entry, top, n_top, n_free):
    """``entry``'s table on the free axes, with the top mask bits set to ``top``."""
    if not isinstance(entry, _TopNode):
        return entry
    if entry.node < n_top and (top >> (n_top - 1 - entry.node)) & 1:
        return entry.stop
    below = reduce(np.add, [_block_table(c, top, n_top, n_free) for c in entry.children])
    if entry.node < n_top:
        return below
    return np.where(_bit(entry.node - n_top, n_free), entry.stop, below)


def simulate_event_counts(p_event, n_paths, seed):
    """Total event count per simulated path, drawn in order in batches of whole paths."""
    p_event = np.ascontiguousarray(p_event, dtype=np.float64)
    rng = np.random.default_rng(seed)
    out = np.empty(n_paths, dtype=np.int64)
    batch = max(SIMULATION_DRAWS // max(len(p_event), 1), 1)
    for lo in range(0, n_paths, batch):
        draws = rng.random((min(batch, n_paths - lo), len(p_event)))
        out[lo:lo + len(draws)] = (draws < p_event).sum(axis=1)
    return out
