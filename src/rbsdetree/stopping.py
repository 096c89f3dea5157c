"""Optimal stopping layer: rule rewards, the enumeration oracle, hitting rules.

A stopping rule is a set of nodes (membership decided by the node alone,
which on a non-recombining tree is exactly adaptedness); each path stops at
its first entry into the set, and the leaves are always included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import EnumerationBudgetExceeded
from .lattice import ScenarioTree, cexp_level
from .rbsde import GeneratorSpec, RbsdeSolution, reward_process, running_gains

ENUMERATION_CAP = 20
OPTIMAL_TOL = 1e-12  # a rule within this of the best value counts as optimal


@dataclass(frozen=True)
class StoppingRule:
    """Stop set as one boolean array per level; leaves forced to True."""

    stop: tuple

    def __post_init__(self):
        if not bool(np.all(self.stop[-1])):
            raise ValueError("stopping rules must stop at every leaf")

    @staticmethod
    def from_levels(levels) -> "StoppingRule":
        return StoppingRule(tuple(np.asarray(lv, dtype=bool) for lv in levels))


def stop_levels(tree: ScenarioTree, rule: StoppingRule) -> np.ndarray:
    """Level at which each path (leaf index) first enters the stop set."""
    out = np.full(tree.n_leaves, tree.n_steps, dtype=np.int64)
    decided = np.zeros(tree.n_leaves, dtype=bool)
    for k in range(tree.n_steps):
        anc = tree.ancestor_index(k, tree.n_steps)
        hit = rule.stop[k][anc] & ~decided
        out[hit] = k
        decided |= hit
    return out


def reward_of_rule(tree: ScenarioTree, gen: GeneratorSpec, rule: StoppingRule) -> float:
    """Value of the rule by backward induction.

    V_N = eta_N, then V_k = eta_k on the stop set and E[V_{k+1} | node]
    elsewhere, with eta the stopped reward (running gains plus barrier, or
    plus payoff at T); the rule's value is V_0.
    """
    eta = reward_process(tree, gen)
    v = eta[-1]
    for k in range(tree.n_steps - 1, -1, -1):
        v = np.where(rule.stop[k], eta[k], cexp_level(tree, k, v))
    return float(v[0])


@dataclass(frozen=True)
class StoppingCertificate:
    """Exhaustive-enumeration witness for the optimal stopping value."""

    value: float
    best_rule: StoppingRule
    best_mask: int
    n_interior: int
    all_values: Optional[np.ndarray]

    def optimal_masks(self) -> np.ndarray:
        if self.all_values is None:
            raise ValueError("certificate was built without the enumeration table")
        return np.flatnonzero(self.all_values >= self.value - OPTIMAL_TOL)


def _subtree_layout(tree: ScenarioTree, root_level: int):
    """Interior-node offsets, strides and leaf slice of a subtree."""
    strides = [1]
    for lvl in range(root_level, tree.n_steps):
        strides.append(strides[-1] * tree.branching(lvl))
    offsets = []
    n_interior = 0
    for width in strides[:-1]:
        offsets.append(n_interior)
        n_interior += width
    return strides, offsets, n_interior


def rule_from_mask(tree: ScenarioTree, mask: int, root_level: int = 0, root_index: int = 0) -> StoppingRule:
    """Materialize an enumeration bitmask (root bit most significant)."""
    strides, offsets, n_interior = _subtree_layout(tree, root_level)
    levels = [np.zeros(tree.level_size(k), dtype=bool) for k in range(tree.n_steps)]
    levels.append(np.ones(tree.n_leaves, dtype=bool))
    for depth, width in enumerate(strides[:-1]):
        lvl = root_level + depth
        base = root_index * width
        for local in range(width):
            gid = offsets[depth] + local
            if (mask >> (n_interior - 1 - gid)) & 1:
                levels[lvl][base + local] = True
    return StoppingRule.from_levels(levels)


def brute_force_value(
    tree: ScenarioTree,
    gen: GeneratorSpec,
    root_level: int = 0,
    root_index: int = 0,
    keep_table: bool = True,
) -> StoppingCertificate:
    """Enumerate every stopping rule on the subtree below the given node.

    Returns the maximal probability-weighted reward and the maximizing rule;
    ties break toward the rule whose stop set comes first in (level, index)
    order.  Rewards are relative to the root node (running gains accrued from
    the root on, conditional probabilities given the root).
    """
    strides, offsets, n_interior = _subtree_layout(tree, root_level)
    if n_interior > ENUMERATION_CAP:
        raise EnumerationBudgetExceeded(n_interior=n_interior, cap=ENUMERATION_CAP)

    f_levels, g_levels = gen.given_levels(tree)
    cum = running_gains(tree, f_levels, g_levels)
    n_depth = tree.n_steps - root_level
    n_paths = strides[-1]
    leaf_base = root_index * strides[-1]
    leaf_idx = leaf_base + np.arange(n_paths)

    root_prob = tree.prob[root_level][root_index]
    root_cum = cum[root_level][root_index]
    probs = tree.prob[-1][leaf_idx] / root_prob
    reward_leaf = cum[-1][leaf_idx] - root_cum + gen.xi[leaf_idx]

    path_nodes = np.empty((n_paths, n_depth), dtype=np.int64)
    reward_stop = np.empty((n_paths, n_depth))
    for depth in range(n_depth):
        lvl = root_level + depth
        local = (np.arange(n_paths) * strides[depth]) // strides[-1]
        path_nodes[:, depth] = offsets[depth] + local
        node = root_index * strides[depth] + local
        reward_stop[:, depth] = cum[lvl][node] - root_cum + gen.h[lvl][node]

    values = _kernels.enumerate_rules(path_nodes, reward_stop, reward_leaf, probs, n_interior)
    best_mask = int(len(values) - 1 - np.argmax(values[::-1]))
    return StoppingCertificate(
        value=float(values[best_mask]),
        best_rule=rule_from_mask(tree, best_mask, root_level, root_index),
        best_mask=best_mask,
        n_interior=n_interior,
        all_values=values if keep_table else None,
    )


def epsilon_optimal_time(
    tree: ScenarioTree, sol: RbsdeSolution, h, epsilon: float
) -> StoppingRule:
    """First nodes where the solution is within epsilon of the barrier."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    levels = [sol.y[k] <= h[k] + epsilon for k in range(tree.n_steps)]
    levels.append(np.ones(tree.n_leaves, dtype=bool))
    return StoppingRule.from_levels(levels)


def smallest_optimal_time(tree: ScenarioTree, sol: RbsdeSolution, h) -> StoppingRule:
    """First hitting of the contact set {Y = h}: the smallest optimal rule."""
    return epsilon_optimal_time(tree, sol, h, 0.0)


def k_flatness_before_stop(tree: ScenarioTree, sol: RbsdeSolution, rule: StoppingRule) -> float:
    """Max over paths of the push accumulated strictly before the stop node."""
    live = np.ones(1, dtype=bool)  # nodes whose path has not stopped yet
    worst = 0.0
    for k in range(tree.n_steps + 1):
        first = live & rule.stop[k]
        worst = max(worst, float(np.max(sol.k_cum[k][first], initial=0.0)))
        if k < tree.n_steps:
            live = tree.repeat_to_children(live & ~rule.stop[k], k)
    return worst
