"""Weighted second-moment norms on the tree.

Weights are e^{beta A_{t_k}} e^{gamma t_k} at the left endpoint of each step
(the predictable convention); increments are dA_k for the compensator clock,
dt_k for the Lebesgue clock, and phi_k(e) dA_k for the mark-indexed norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BetaZero
from .lattice import NodeProcess, ScenarioTree, level_expectation

KINDS = ("A", "p", "W")
CAUCHY_TOL = 1e-12  # how far a path's lhs may exceed its rhs in ``cauchy_weight_bound``


@dataclass(frozen=True)
class WeightedNorm:
    """Which clock the norm integrates against, and its weight exponents."""

    kind: str
    beta: float
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.beta < 0 or self.gamma < 0:
            raise ValueError("beta and gamma must be nonnegative")


def _weights(tree: ScenarioTree, w: WeightedNorm) -> np.ndarray:
    t = tree.grid.times[:-1]
    a = tree.a_levels[:-1]
    return np.exp(w.beta * a + w.gamma * t)


def norm_sq(tree: ScenarioTree, x: NodeProcess, w: WeightedNorm) -> float:
    """Squared weighted norm of a node process (mark-indexed for kind "p")."""
    weights = _weights(tree, w)
    clock = tree.grid.steps if w.kind == "W" else tree.da
    total = 0.0
    for k in range(tree.n_steps):
        sq = np.asarray(x[k], dtype=float) ** 2
        if w.kind == "p":
            sq = sq @ tree.phi[k]
        total += weights[k] * level_expectation(tree, k, sq) * clock[k]
    return float(total)


def cauchy_weight_bound(tree: ScenarioTree, f: NodeProcess, beta: float):
    """Path-wise bound (sum f dA)^2 <= (1/beta) sum e^{beta A} f^2 dA.

    The right-hand side weights each increment at the step's right endpoint,
    which is the discretization under which the bound provably holds on any
    grid.  Returns (lhs, rhs, excess): the maxima over paths of each side,
    and the largest path-wise lhs - rhs, which is at most rounding error
    where the bound holds.
    """
    if beta == 0:
        raise BetaZero("the weighted bound requires beta > 0")
    a = tree.a_levels
    fs = [np.asarray(f[k], dtype=float) for k in range(tree.n_steps)]
    lin = tree.leaf_sum(fs[k] * tree.da[k] for k in range(tree.n_steps))
    wsq = tree.leaf_sum(np.exp(beta * a[k + 1]) * fs[k] ** 2 * tree.da[k] for k in range(tree.n_steps))
    lhs, rhs = lin**2, wsq / beta
    return float(np.max(lhs)), float(np.max(rhs)), float(np.max(lhs - rhs))
