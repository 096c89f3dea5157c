"""Finite scenario tree combining binomial Brownian and jump/mark branching.

The tree is non-recombining: level k holds one node per path of branch
choices, stored in flat numpy arrays.  Children of node i at level k occupy
the contiguous index block [i * B_k, (i+1) * B_k) at level k+1, where B_k is
the level's branch count.  Branches are ordered Brownian-major: for each
Brownian move (up, then down) first the no-jump outcome, then each mark in
order.  Levels whose compensator increment is zero carry no jump branches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import BudgetExceeded
from .mpp import CompensatorSpec, MarkSet

DEFAULT_NODE_BUDGET = 2_000_000

#: A node-indexed process: one value array per level (mark-indexed processes
#: use shape (n_k, m) arrays).
NodeProcess = list


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times 0 = t_0 < ... < t_N = T."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or len(t) < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("grid times must be strictly increasing from 0")

    @staticmethod
    def uniform(n_steps: int, horizon: float) -> "TimeGrid":
        return TimeGrid(np.linspace(0.0, horizon, n_steps + 1))

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.times)


@dataclass
class ScenarioTree:
    """Discrete filtration carrying Brownian increments and jump outcomes.

    Per-level branch metadata (index k = 0..N-1):
      branch_dw[k]    Brownian increment of each branch, shape (B_k,)
      branch_mark[k]  mark index of each branch, -1 for no jump
      branch_prob[k]  branch probabilities, positive, summing to 1
    Per-level node state (index k = 0..N):
      w[k]        cumulative Brownian value
      n_jumps[k]  cumulative jump count
      a[k]        cumulative compensator A(t_k) (scalar per level here,
                  broadcast as needed)
      prob[k]     total path probability of each node
    """

    grid: TimeGrid
    marks: MarkSet
    n_brownian: int
    da: np.ndarray
    jump_prob: np.ndarray
    phi: np.ndarray
    branch_dw: list
    branch_mark: list
    branch_prob: list
    w: list
    n_jumps: list
    prob: list
    a_levels: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    @property
    def n_marks(self) -> int:
        return self.marks.size

    def branching(self, k: int) -> int:
        return len(self.branch_prob[k])

    def level_size(self, k: int) -> int:
        return len(self.prob[k])

    @property
    def n_leaves(self) -> int:
        return self.level_size(self.n_steps)

    @property
    def total_nodes(self) -> int:
        return sum(self.level_size(k) for k in range(self.n_steps + 1))

    def repeat_to_children(self, x: np.ndarray, k: int) -> np.ndarray:
        """Broadcast a level-k node array down to its level-k+1 children."""
        return np.repeat(x, self.branching(k), axis=0)

    def path_sum(self, increments) -> list:
        """Running sum S_0 = 0, S_{k+1} = S_k + increments[k] along every path.

        ``increments`` yields one level-k node array (or scalar) per step; the
        result is the NodeProcess carrying S_k at every level-k node.
        """
        cum = [np.zeros(1)]
        for k, inc in enumerate(increments):
            cum.append(self.repeat_to_children(cum[k] + inc, k))
        return cum

    def ancestor_index(self, k: int, level: int) -> np.ndarray:
        """Index of the level-``k`` ancestor of each node at ``level`` >= k."""
        stride = 1
        for j in range(k, level):
            stride *= self.branching(j)
        return np.arange(self.level_size(level)) // stride

    def level_summary(self) -> dict:
        return {
            "level_sizes": [self.level_size(k) for k in range(self.n_steps + 1)],
            "leaf_probability_mass": float(self.prob[self.n_steps].sum()),
        }


def build_tree(
    grid: TimeGrid,
    marks: MarkSet,
    comp: CompensatorSpec,
    n_brownian: int = 2,
    budget: int = DEFAULT_NODE_BUDGET,
) -> ScenarioTree:
    """Build the scenario tree for the given grid, mark set and compensator.

    ``n_brownian`` is 2 for binomial Brownian branching (increments +/-
    sqrt(dt), weight 1/2 each) or 1 for a degenerate zero-increment branch
    (jump-only filtration).  Jump branches carry weight
    (1 - exp(-dA_k)) * phi_k(e); the no-jump branch carries exp(-dA_k).
    Zero-increment levels (dA_k = 0) are pruned to Brownian-only branching.
    """
    if n_brownian not in (1, 2):
        raise ValueError("n_brownian must be 1 or 2")
    m = marks.size
    da = comp.increments(grid.times)
    jump_prob = -np.expm1(-da)

    # Budget check before the kernel is evaluated, in Python ints, up to the
    # first level past the budget: the counts stay small whatever the depth.
    total = size = 1
    for k in range(grid.n_steps):
        size *= n_brownian * (1 + m) if jump_prob[k] > 0 else n_brownian
        total += size
        if total > budget:
            raise BudgetExceeded(required=total, budget=budget, level=k + 1, n_steps=grid.n_steps)
    phi = comp.kernel_on_grid(grid.times, m)
    steps = grid.steps

    # Each Brownian move (weight w = 1/n_brownian) over the level's jump outcomes:
    # no jump (1 - q), then mark e (q phi_k(e)).  w is 1 or 1/2, so w (q phi)
    # has the bits of (w q) phi.
    w_weight = 1.0 / n_brownian
    branch_dw, branch_mark, branch_prob = [], [], []
    w, n_jumps, prob = [np.zeros(1)], [np.zeros(1, dtype=np.int64)], [np.ones(1)]
    for k in range(grid.n_steps):
        dws = np.array([np.sqrt(steps[k]), -np.sqrt(steps[k])] if n_brownian == 2 else [0.0])
        if jump_prob[k] > 0:
            marks_k = np.arange(-1, m, dtype=np.int64)
            outcome_prob = np.concatenate(([1.0 - jump_prob[k]], jump_prob[k] * phi[k]))
        else:
            marks_k, outcome_prob = np.array([-1], dtype=np.int64), np.ones(1)
        branch_dw.append(np.repeat(dws, len(marks_k)))
        branch_mark.append(np.tile(marks_k, n_brownian))
        branch_prob.append(np.tile(w_weight * outcome_prob, n_brownian))
        b = len(branch_prob[k])
        w.append(np.repeat(w[k], b) + np.tile(branch_dw[k], len(w[k])))
        jumped = (branch_mark[k] >= 0).astype(np.int64)
        n_jumps.append(np.repeat(n_jumps[k], b) + np.tile(jumped, len(n_jumps[k])))
        prob.append(np.repeat(prob[k], b) * np.tile(branch_prob[k], len(prob[k])))

    a_levels = np.concatenate([[0.0], np.cumsum(da)])
    tree = ScenarioTree(
        grid=grid,
        marks=marks,
        n_brownian=n_brownian,
        da=da,
        jump_prob=jump_prob,
        phi=phi,
        branch_dw=branch_dw,
        branch_mark=branch_mark,
        branch_prob=branch_prob,
        w=w,
        n_jumps=n_jumps,
        prob=prob,
        a_levels=a_levels,
    )
    assert abs(tree.prob[-1].sum() - 1.0) < 1e-12
    return tree


def cexp_level(tree: ScenarioTree, k: int, v_next: np.ndarray) -> np.ndarray:
    """Conditional expectation of a level-k+1 process at every level-k node."""
    b = tree.branching(k)
    return v_next.reshape(tree.level_size(k), b) @ tree.branch_prob[k]


@dataclass(frozen=True)
class Representation:
    """One-step martingale representation of a level-k+1 process.

    ``z`` is the Brownian integrand, ``u`` the mark-indexed jump integrand
    (conditional-jump differences), ``residual`` the L2 norm under the child
    measure of the part not spanned by dW and the compensated jump
    indicators; None when only the integrands were asked for.  Where a conditioning
    event has probability zero, u is zero for every mark.
    """

    mean: np.ndarray
    z: np.ndarray
    u: np.ndarray
    residual: Optional[np.ndarray] = None


def representation_integrands(tree: ScenarioTree, k: int, v_next: np.ndarray) -> Representation:
    """The conditional mean and the integrands (z, u) of v at level k+1.

    This is the part of ``extract_representation`` that the next Picard
    sweep reads; the residual is left out.
    """
    n_k = tree.level_size(k)
    vmat = v_next.reshape(n_k, tree.branching(k))
    p = tree.branch_prob[k]
    mark = tree.branch_mark[k]

    mean = vmat @ p
    z = (vmat @ (p * tree.branch_dw[k])) / tree.grid.steps[k] if tree.n_brownian == 2 else np.zeros(n_k)

    u = np.zeros((n_k, tree.n_marks))
    if tree.jump_prob[k] > 0:
        no_jump = mark < 0
        w0 = p * no_jump
        cond_nojump = (vmat @ w0) / w0.sum()
        for e in range(tree.n_marks):
            sel = mark == e
            we = p * sel
            tot = we.sum()
            if tot > 0:
                u[:, e] = (vmat @ we) / tot - cond_nojump
    return Representation(mean=mean, z=z, u=u)


def extract_representation(tree: ScenarioTree, k: int, v_next: np.ndarray) -> Representation:
    """Decompose v at level k+1 over the level-k branches.

    v = E[v|node] + z dW + sum_e u(e) (1_{mark e} - q_e) + residual, where
    q_e = (1 - exp(-dA_k)) phi_k(e).  The residual is orthogonal to dW and to
    each compensated indicator under the child measure.
    """
    rep = representation_integrands(tree, k, v_next)
    mark = tree.branch_mark[k]
    dw = tree.branch_dw[k]
    q = tree.jump_prob[k] * tree.phi[k]
    # Two (n_k, b) buffers: the spanned part, summed in place, and the branch residual.
    span = rep.z[:, None] * dw[None, :]
    branch_residual = np.empty_like(span)
    for e in range(tree.n_marks):
        span += np.multiply(rep.u[:, e, None], ((mark == e).astype(float) - q[e])[None, :], out=branch_residual)
    np.subtract(v_next.reshape(span.shape), rep.mean[:, None], out=branch_residual)
    branch_residual -= span
    del span
    residual = np.sqrt(np.maximum(np.square(branch_residual, out=branch_residual) @ tree.branch_prob[k], 0.0))
    return replace(rep, residual=residual)


def level_expectation(tree: ScenarioTree, k: int, values: np.ndarray) -> float:
    """Expectation of a level-k process: its path-probability-weighted sum.

    ``einsum`` sums in one fixed order, where a BLAS ``dot`` splits a long
    sum between its threads, so the result does not depend on how many
    BLAS threads run.
    """
    return float(np.einsum("i,i->", tree.prob[k], values))
