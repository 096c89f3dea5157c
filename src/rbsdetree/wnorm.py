"""Weighted second-moment norms on the tree.

Weights are e^{beta A_{t_k}} e^{gamma t_k} at the left endpoint of each step
(the predictable convention); increments are dA_k for the compensator clock,
dt_k for the Lebesgue clock, and phi_k(e) dA_k for the mark-indexed norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BetaZero
from .lattice import NodeProcess, ScenarioTree

KINDS = ("A", "p", "W", "A-plus-lambda")


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
    if w.kind == "A-plus-lambda":
        return norm_sq(tree, x, WeightedNorm("A", w.beta, w.gamma)) + norm_sq(
            tree, x, WeightedNorm("W", w.beta, w.gamma)
        )
    weights = _weights(tree, w)
    total = 0.0
    for k in range(tree.n_steps):
        xk = np.asarray(x[k], dtype=float)
        if w.kind == "A":
            total += weights[k] * float(tree.prob[k] @ xk**2) * tree.da[k]
        elif w.kind == "W":
            total += weights[k] * float(tree.prob[k] @ xk**2) * tree.grid.steps[k]
        else:  # kind "p"
            per_node = xk**2 @ tree.phi[k]
            total += weights[k] * float(tree.prob[k] @ per_node) * tree.da[k]
    return float(total)


def cauchy_weight_bound(tree: ScenarioTree, f: NodeProcess, beta: float):
    """Path-wise bound (sum f dA)^2 <= (1/beta) sum e^{beta A} f^2 dA.

    The right-hand side weights each increment at the step's right endpoint,
    which is the discretization under which the bound provably holds on any
    grid.  Returns (lhs, rhs) as maxima over paths.
    """
    if beta == 0:
        raise BetaZero("the weighted bound requires beta > 0")
    a = tree.a_levels
    fs = [np.asarray(f[k], dtype=float) for k in range(tree.n_steps)]
    lin = tree.path_sum(fs[k] * tree.da[k] for k in range(tree.n_steps))
    wsq = tree.path_sum(np.exp(beta * a[k + 1]) * fs[k] ** 2 * tree.da[k] for k in range(tree.n_steps))
    assert np.all(lin[-1] ** 2 <= wsq[-1] / beta + 1e-12), "weighted bound broken path-wise"
    lhs = float(np.max(lin[-1] ** 2))
    rhs = float(np.max(wsq[-1])) / beta
    return lhs, rhs
