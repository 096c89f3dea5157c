"""Optimal stopping layer: rule rewards, the enumeration oracle, hitting rules.

A stopping rule is a set of nodes (membership decided by the node alone,
which on a non-recombining tree is exactly adaptedness); each path stops at
its first entry into the set, and the leaves are always included.  Rewards
and the oracle read only the stopped reward eta (``rbsde.reward_process``:
running gains plus the barrier, plus the payoff at T), which the caller
builds once per problem; the oracle enumerates the rules from the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import EnumerationBudgetExceeded
from .lattice import NodeProcess, ScenarioTree, cexp_level
from .rbsde import RbsdeSolution

# Not called here; kept as a name of this module because perfbench/tracer.py
# wraps it here.
from .rbsde import running_gains  # noqa: F401

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


def reward_of_rule(tree: ScenarioTree, eta: NodeProcess, rule: StoppingRule) -> float:
    """Value of the rule by backward induction on the stopped reward ``eta``.

    V_N = eta_N, then V_k = eta_k on the stop set and E[V_{k+1} | node]
    elsewhere; the rule's value is V_0.
    """
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


def rule_from_mask(tree: ScenarioTree, mask: int) -> StoppingRule:
    """Materialize an enumeration bitmask (root bit most significant).

    Interior nodes are numbered level by level, in index order; node id's
    bit is (n_interior - 1 - id).
    """
    sizes = [tree.level_size(k) for k in range(tree.n_steps)]
    n_interior = sum(sizes)
    bits = (mask >> np.arange(n_interior - 1, -1, -1)) & 1
    levels = np.split(bits.astype(bool), np.cumsum(sizes)[:-1])
    return StoppingRule.from_levels([*levels, np.ones(tree.n_leaves, dtype=bool)])


def brute_force_value(tree: ScenarioTree, eta: NodeProcess, keep_table: bool = True) -> StoppingCertificate:
    """Enumerate every stopping rule from the root, with ``eta`` the stopped reward.

    Returns the maximal probability-weighted reward and the maximizing rule;
    ties break toward the rule whose stop set comes first in (level, index)
    order.
    """
    sizes = [tree.level_size(k) for k in range(tree.n_steps)]
    n_interior = sum(sizes)
    if n_interior > ENUMERATION_CAP:
        raise EnumerationBudgetExceeded(n_interior=n_interior, cap=ENUMERATION_CAP)

    # Each path's level-k node, as the index into eta[k] and as its enumeration id.
    ancestors = [tree.ancestor_index(k, tree.n_steps) for k in range(tree.n_steps)]
    offsets = np.cumsum([0, *sizes[:-1]])
    path_nodes = np.column_stack([offset + anc for offset, anc in zip(offsets, ancestors)])
    reward_stop = np.column_stack([eta[k][anc] for k, anc in enumerate(ancestors)])

    values = _kernels.enumerate_rules(path_nodes, reward_stop, eta[-1], tree.prob[-1], n_interior)
    best_mask = int(len(values) - 1 - np.argmax(values[::-1]))
    return StoppingCertificate(
        value=float(values[best_mask]),
        best_rule=rule_from_mask(tree, best_mask),
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
