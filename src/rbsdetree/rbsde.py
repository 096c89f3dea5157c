"""Reflected backward solver with given generators, plus its residual checks.

The scheme is the explicit one-step reflection: Y_N = xi at the leaves, then
backward Ytil_k = E[Y_{k+1} | node] + f_k dA_k + g_k dt_k, the push increment
dK_k = (h_k - Ytil_k)^+ and Y_k = max(Ytil_k, h_k).  The integrands (Z, U)
come from the one-step martingale representation of Y_{k+1}; a jump-only
tree is the same equation with no Brownian moves, and so with Z = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import BetaZero
from .lattice import NodeProcess, Representation, ScenarioTree, cexp_level
from .lattice import extract_representation, representation_integrands
from .snell import doob_meyer, snell_envelope

SKOROHOD_TOL = 1e-12  # how far |Y - h| dK, -dK and h - Y may exceed zero
EQUATION_TOL = 1e-10  # how far the residual's conditional mean and L2 norm may stray from 0 and the solver's
ROUTE_TOL = 1e-10  # how far the direct solve and the envelope route may differ at a node
BARRIER_TOL = 1e-12  # how far h may exceed xi at a leaf
MAJORANT_TOL = 1e-10  # how far e^{beta A/2}|Y| may exceed the majorant


@dataclass
class GeneratorSpec:
    """Problem data (xi, h) and the given generator levels f and g: a problem the one-pass solver solves.

    A generator given as None is zero, filled in when the spec is made.
    Generators that depend on (Y, U, Z) are ``picard.StateGenerators``; the
    fixed-point solver freezes them into a spec of this kind at every sweep.
    """

    xi: np.ndarray
    h: NodeProcess
    f_levels: Optional[NodeProcess] = None
    g_levels: Optional[NodeProcess] = None

    def __post_init__(self):
        if self.f_levels is None:
            self.f_levels = [np.zeros(len(x)) for x in self.h[:-1]]
        if self.g_levels is None:
            self.g_levels = [np.zeros(len(x)) for x in self.h[:-1]]

    def validate(self, tree: ScenarioTree, data: bool = True):
        """ValueError unless f and g are finite and, with ``data``, xi and h are finite and
        shaped to the tree, with h <= xi at the leaves (a Picard loop checks them once)."""
        if data and len(self.xi) != tree.n_leaves:
            raise ValueError("terminal payoff must be leaf-indexed")
        if data and len(self.h) != tree.n_steps + 1:
            raise ValueError("barrier must be defined on every level")
        named = [("xi", [self.xi]), ("h", self.h)] if data else []
        for name, levels in named + [("f_levels", self.f_levels), ("g_levels", self.g_levels)]:
            if not all(np.isfinite(x).all() for x in levels):
                raise ValueError(f"{name} has a non-finite value")
        gap = np.max(self.h[-1] - self.xi) if data else -np.inf
        if gap > BARRIER_TOL:
            raise ValueError(f"barrier exceeds terminal payoff at a leaf by {gap:.3e}")


@dataclass
class RbsdeSolution:
    """Node-indexed solution processes of one reflected backward solve.

    ``z`` is +0.0 at every node of a jump-only tree.  ``dk[k]`` is the push
    increment decided at level k; ``k_cum`` the accumulated push (K_0 = 0).
    ``residual[k]`` is the per-node L2 representation residual.  An integrands-only solve, a
    point (Y, U, Z) of the Picard iteration, leaves those three None.
    ``y[N]`` is the spec's xi array itself.
    """

    y: NodeProcess
    u: NodeProcess
    z: NodeProcess
    dk: Optional[NodeProcess] = None
    k_cum: Optional[NodeProcess] = None
    residual: Optional[NodeProcess] = None


def _solve_backward(tree, f_levels, g_levels, xi, h, integrands_only, leaf=None):
    """One backward pass: the representation of Y_{k+1} gives the conditional
    mean that sets Y_k and the integrands (U_k, Z_k).  ``integrands_only``
    stops at (Y, U, Z), with no push and no representation residual.  Y_N = xi
    in every Picard sweep, so its representation ``leaf`` may be made once.
    """
    n = tree.n_steps
    y = [None] * (n + 1)
    y[n] = np.asarray(xi, dtype=float)
    u, z, dk, residual = ([None] * n for _ in range(4))
    represent = representation_integrands if integrands_only else extract_representation
    for k in range(n - 1, -1, -1):
        rep = leaf if k == n - 1 and leaf is not None else represent(tree, k, y[k + 1])
        ytil = rep.mean + f_levels[k] * tree.da[k] + g_levels[k] * tree.grid.steps[k]
        # max (not ytil + dk) so reflected nodes carry Y == h bit-exactly.
        y[k] = np.maximum(ytil, h[k])
        u[k], z[k], residual[k] = rep.u, rep.z, rep.residual
        dk[k] = None if integrands_only else np.maximum(h[k] - ytil, 0.0)
    sol = RbsdeSolution(y=y, u=u, z=z)
    return sol if integrands_only else replace(sol, dk=dk, k_cum=tree.path_sum(dk), residual=residual)


def leaf_representation(tree: ScenarioTree, gen: GeneratorSpec) -> Representation:
    """Check the spec, and represent Y_N = xi over the last step: the ``leaf``
    of every solve in a Picard loop."""
    gen.validate(tree)
    return extract_representation(tree, tree.n_steps - 1, gen.xi)


def solve_given_generators(
    tree: ScenarioTree, gen: GeneratorSpec, *, integrands_only=False, leaf=None
) -> RbsdeSolution:
    """Solve the reflected equation when f and g are known processes.

    On a jump-only tree Z is zero and g dt is a drift like any other.
    ``integrands_only`` returns Y, U and Z alone: what a fixed-point sweep reads.
    ``leaf`` is ``leaf_representation(tree, gen)``; xi and h are then not checked again.
    """
    gen.validate(tree, data=leaf is None)
    return _solve_backward(tree, gen.f_levels, gen.g_levels, gen.xi, gen.h, integrands_only, leaf)


def running_gains(tree: ScenarioTree, f_levels, g_levels) -> NodeProcess:
    """Cumulative sum_{j<k} (f_j dA_j + g_j dt_j) along every path."""
    return tree.path_sum(
        f_levels[k] * tree.da[k] + g_levels[k] * tree.grid.steps[k] for k in range(tree.n_steps)
    )


def reward_process(tree: ScenarioTree, gen: GeneratorSpec) -> NodeProcess:
    """The stopped-reward process: running gains plus barrier, payoff at T."""
    return _stopped_reward(gen, running_gains(tree, gen.f_levels, gen.g_levels))


def _stopped_reward(gen: GeneratorSpec, cum: NodeProcess) -> NodeProcess:
    """Running gains ``cum`` plus the barrier before T and the payoff at T."""
    eta = [cum[k] + gen.h[k] for k in range(len(cum) - 1)]
    eta.append(cum[-1] + gen.xi)
    return eta


def solve_via_snell(tree: ScenarioTree, gen: GeneratorSpec):
    """Alternate route: the envelope R of the reward process eta and its push.

    Returns (y, R, dk, eta): eta is ``reward_process``, dk the increments of
    R's increasing part (``doob_meyer``; ``tree.path_sum(dk)`` is K) and Y
    is R minus the running gains, written over the running gains' own arrays.
    """
    gen.validate(tree)
    cum = running_gains(tree, gen.f_levels, gen.g_levels)
    eta = _stopped_reward(gen, cum)
    envelope = snell_envelope(tree, eta)
    dk = doob_meyer(tree, envelope)
    for k in range(tree.n_steps + 1):
        np.subtract(envelope[k], cum[k], out=cum[k])
    return cum, envelope, dk, eta


def check_skorohod(tree: ScenarioTree, sol: RbsdeSolution, h: NodeProcess) -> dict:
    """The ``minimal_push`` record: (Y - h) dK = 0 node-wise, dK >= 0 and Y >= h, each to SKOROHOD_TOL."""
    max_product = max_neg = 0.0
    for k in range(tree.n_steps):
        max_product = max(max_product, float(np.max(np.abs((sol.y[k] - h[k]) * sol.dk[k]))))
        max_neg = max(max_neg, float(np.max(-sol.dk[k], initial=0.0)))
    max_violation = max(max(float(np.max(h[k] - sol.y[k])) for k in range(tree.n_steps + 1)), 0.0)
    return {
        "passed": all(x <= SKOROHOD_TOL for x in (max_product, max_neg, max_violation)),
        "max_product": max_product,
        "max_negative_dk": max_neg,
        "max_barrier_violation": max_violation,
    }


def check_equation_residual(tree: ScenarioTree, sol: RbsdeSolution, gen: GeneratorSpec) -> tuple:
    """Residual of the one-step equation on every child branch.

    residual = Y_k - [Y_{k+1} + f dA + g dt - sum_e U(e) dq - Z dW + dK]
    per branch; its conditional mean vanishes and its L2 norm under the child
    measure equals the representation residual tracked by the solver.
    Returns the ``equation_residual`` record, judged at EQUATION_TOL, and the
    largest per-branch residual.
    """
    max_res = max_cmean = max_mismatch = 0.0
    for k in range(tree.n_steps):
        n_k, b = tree.level_size(k), tree.branching(k)
        ynext = sol.y[k + 1].reshape(n_k, b)
        mark = tree.branch_mark[k]
        q = tree.jump_prob[k] * tree.phi[k]
        dq = np.stack([(mark == e).astype(float) - q[e] for e in range(tree.n_marks)])
        # One (n_k, b) buffer turns from the right-hand side into the residual, and a second
        # holds each subtracted term: Y_{k+1} + drift - U dq - Z dW, then Y_k minus that.
        res = ynext + (gen.f_levels[k] * tree.da[k] + gen.g_levels[k] * tree.grid.steps[k] + sol.dk[k])[:, None]
        term = sol.u[k] @ dq
        res -= term
        res -= np.multiply(sol.z[k][:, None], tree.branch_dw[k][None, :], out=term)
        del term
        np.subtract(sol.y[k][:, None], res, out=res)
        max_res = max(max_res, float(res.max()), -float(res.min()))
        cmean = res @ tree.branch_prob[k]
        max_cmean = max(max_cmean, float(np.max(np.abs(cmean))))
        l2 = np.sqrt(np.maximum(np.square(res, out=res) @ tree.branch_prob[k], 0.0))
        max_mismatch = max(max_mismatch, float(np.max(np.abs(l2 - sol.residual[k]))))
    record = {
        "passed": bool(max_cmean <= EQUATION_TOL and max_mismatch <= EQUATION_TOL),
        "max_conditional_mean": max_cmean,
        "max_mismatch_vs_representation": max_mismatch,
    }
    return record, max_res


def a_priori_majorant(tree: ScenarioTree, gen: GeneratorSpec, sol: RbsdeSolution, beta: float) -> list:
    """Check the weighted bound e^{beta A_k / 2} |Y_k| <= S_k node-wise.

    S is the conditional expectation of
        e^{beta A_T/2}|xi| + beta^{-1/2} (sum e^{beta A} f^2 dA)^{1/2}
        + sum e^{beta A/2}|g| dt + max e^{beta A/2}|h|,
    with the f-integral weighted at the right endpoint of each step so the
    Cauchy-Schwarz bound it certifies holds on any grid.  Returns the list of
    violating (level, node, lhs, rhs) tuples, level N first; empty means the
    bound holds.

    One level and one path functional are alive at a time: each functional
    is run forward to the leaves as ``tree.path_sum`` runs it and added into
    the leaf value, in the order written above, before the next one starts;
    S is then taken back one level at a time and checked on the way.
    """
    a = tree.a_levels
    n = tree.n_steps
    has_f = any(bool(np.any(gen.f_levels[k] != 0)) for k in range(n))
    if has_f and beta <= 0:
        raise BetaZero("the f-term of the majorant needs beta > 0")

    def to_leaves(increments) -> np.ndarray:
        cum = np.zeros(1)
        for k, inc in enumerate(increments):
            cum = tree.repeat_to_children(cum + inc, k)
        return cum

    s = np.abs(gen.xi)
    s *= np.exp(beta * a[-1] / 2)
    if has_f:
        term = to_leaves(np.exp(beta * a[k + 1]) * gen.f_levels[k] ** 2 * tree.da[k] for k in range(n))
        np.sqrt(term, out=term)
        term /= np.sqrt(beta)
        s += term
        del term
    s += to_leaves(np.exp(beta * a[k] / 2) * np.abs(gen.g_levels[k]) * tree.grid.steps[k] for k in range(n))
    h_max = np.exp(beta * a[0] / 2) * np.abs(gen.h[0])
    for k in range(n):
        weighted = np.abs(gen.h[k + 1])
        weighted *= np.exp(beta * a[k + 1] / 2)
        h_max = np.maximum(tree.repeat_to_children(h_max, k), weighted, out=weighted)
    s += h_max
    del h_max, weighted

    violations = []
    for k in range(n, -1, -1):
        if k < n:
            s = cexp_level(tree, k, s)
        lhs = np.abs(sol.y[k])
        lhs *= np.exp(beta * a[k] / 2)
        bad = lhs > s + MAJORANT_TOL
        for i in np.flatnonzero(bad):
            violations.append((k, int(i), float(lhs[i]), float(s[i])))
    return violations
