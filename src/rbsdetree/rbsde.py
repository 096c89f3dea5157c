"""Reflected backward solver with given generators, plus its residual checks.

The scheme is the explicit one-step reflection: Y_N = xi at the leaves, then
backward Ytil_k = E[Y_{k+1} | node] + f_k dA_k + g_k dt_k, the push increment
dK_k = (h_k - Ytil_k)^+ and Y_k = max(Ytil_k, h_k).  The integrands (Z, U)
come from the one-step martingale representation of Y_{k+1}; a jump-only
tree is the same equation with no Brownian moves, and so with no Z.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import BetaZero
from .lattice import NodeProcess, Representation, ScenarioTree, cexp_level
from .lattice import extract_representation, representation_integrands
from .snell import doob_meyer, snell_envelope

SKOROHOD_TOL = 1e-12
BARRIER_TOL = 1e-12  # how far h may exceed xi at a leaf
MAJORANT_TOL = 1e-10  # how far e^{beta A/2}|Y| may exceed the majorant


class LipschitzConstants(NamedTuple):
    """Certified constants (L_f, L_U, L_g, L_Z) of the generator pair."""

    l_f: float = 0.0
    l_u: float = 0.0
    l_g: float = 0.0
    l_z: float = 0.0


@dataclass
class GeneratorSpec:
    """Problem data (xi, f, g, h) and the generators' Lipschitz constants.

    ``f_levels``/``g_levels`` hold given (state-independent) generator values
    per level; ``f_state``/``g_state`` hold state-dependent callables
    f(tree, k, y, u) and g(tree, k, y, z) used by the fixed-point solver.
    A spec may carry both; the given form is what the one-pass solver reads.
    """

    xi: np.ndarray
    h: NodeProcess
    f_levels: Optional[NodeProcess] = None
    g_levels: Optional[NodeProcess] = None
    f_state: Optional[Callable] = None
    g_state: Optional[Callable] = None
    lipschitz: LipschitzConstants = LipschitzConstants()

    def given_levels(self, tree: ScenarioTree):
        """Generator values per level, zero-filled where unspecified."""
        zeros = [np.zeros(tree.level_size(k)) for k in range(tree.n_steps)]
        f = self.f_levels if self.f_levels is not None else zeros
        g = self.g_levels if self.g_levels is not None else zeros
        return f, g

    def validate(self, tree: ScenarioTree, generators_only: bool = False):
        """Shapes, finite values and h <= xi; ``generators_only``: f and g alone, for a Picard sweep."""
        named = [("f_levels", self.f_levels), ("g_levels", self.g_levels)]
        if not generators_only:
            if len(self.xi) != tree.n_leaves:
                raise ValueError("terminal payoff must be leaf-indexed")
            if len(self.h) != tree.n_steps + 1:
                raise ValueError("barrier must be defined on every level")
            named = [("xi", [self.xi]), ("h", self.h)] + named
        for name, levels in named:
            if levels is not None and not all(np.all(np.isfinite(x)) for x in levels):
                raise ValueError(f"{name} has a non-finite value")
        gap = -np.inf if generators_only else np.max(self.h[-1] - self.xi)
        if gap > BARRIER_TOL:
            raise ValueError(f"barrier exceeds terminal payoff at a leaf by {gap:.3e}")


@dataclass
class RbsdeSolution:
    """Node-indexed solution processes of one reflected backward solve.

    ``z`` is None on a jump-only tree.  ``dk[k]`` is the push increment decided
    at level k; ``k_cum`` the accumulated push (K_0 = 0).  ``residual[k]`` is
    the per-node L2 representation residual.  An integrands-only solve, a
    point (Y, U, Z) of the Picard iteration, leaves those three None.
    ``y[N]`` is the spec's xi array itself.
    """

    y: NodeProcess
    u: NodeProcess
    z: Optional[NodeProcess]
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
    sol = RbsdeSolution(y=y, u=u, z=z if tree.n_brownian == 2 else None)
    return sol if integrands_only else replace(sol, dk=dk, k_cum=tree.path_sum(dk), residual=residual)


def leaf_representation(tree: ScenarioTree, gen: GeneratorSpec) -> Representation:
    """Check xi and h, and represent Y_N = xi over the last step: the ``leaf``
    of every solve in a Picard loop."""
    gen.validate(tree)
    return extract_representation(tree, tree.n_steps - 1, gen.xi)


def solve_given_generators(
    tree: ScenarioTree, gen: GeneratorSpec, *, integrands_only=False, leaf=None
) -> RbsdeSolution:
    """Solve the reflected equation when f and g are known processes.

    On a jump-only tree Z is None and g dt is a drift like any other.
    ``integrands_only`` returns Y, U and Z alone: what a fixed-point sweep reads.
    ``leaf`` is ``leaf_representation(tree, gen)``; xi and h are then not checked again.
    """
    gen.validate(tree, generators_only=leaf is not None)
    f_levels, g_levels = gen.given_levels(tree)
    return _solve_backward(tree, f_levels, g_levels, gen.xi, gen.h, integrands_only, leaf)


def running_gains(tree: ScenarioTree, f_levels, g_levels) -> NodeProcess:
    """Cumulative sum_{j<k} (f_j dA_j + g_j dt_j) along every path."""
    return tree.path_sum(
        f_levels[k] * tree.da[k] + g_levels[k] * tree.grid.steps[k] for k in range(tree.n_steps)
    )


def reward_process(tree: ScenarioTree, gen: GeneratorSpec) -> NodeProcess:
    """The stopped-reward process: running gains plus barrier, payoff at T."""
    f_levels, g_levels = gen.given_levels(tree)
    return _stopped_reward(gen, running_gains(tree, f_levels, g_levels))


def _stopped_reward(gen: GeneratorSpec, cum: NodeProcess) -> NodeProcess:
    """Running gains ``cum`` plus the barrier before T and the payoff at T."""
    eta = [cum[k] + gen.h[k] for k in range(len(cum) - 1)]
    eta.append(cum[-1] + gen.xi)
    return eta


def solve_via_snell(tree: ScenarioTree, gen: GeneratorSpec):
    """Alternate route: envelope of the reward process plus its decomposition.

    Returns (y, decomposition, eta); Y is the envelope minus the running
    gains, K is the decomposition's increasing part (``dk``, ``k_cum``) and
    eta the reward process (``reward_process``) whose envelope it is.
    """
    gen.validate(tree)
    f_levels, g_levels = gen.given_levels(tree)
    cum = running_gains(tree, f_levels, g_levels)
    eta = _stopped_reward(gen, cum)
    envelope = snell_envelope(tree, eta)
    dec = doob_meyer(tree, envelope)
    return [envelope[k] - cum[k] for k in range(tree.n_steps + 1)], dec, eta


@dataclass(frozen=True)
class SkorohodReport:
    """Worst-node diagnostics for the minimal-push conditions."""

    max_product: float
    max_negative_dk: float
    max_barrier_violation: float

    @property
    def passed(self) -> bool:
        return (
            self.max_product <= SKOROHOD_TOL
            and self.max_negative_dk <= SKOROHOD_TOL
            and self.max_barrier_violation <= SKOROHOD_TOL
        )


def check_skorohod(tree: ScenarioTree, sol: RbsdeSolution, h: NodeProcess) -> SkorohodReport:
    """Verify (Y - h) dK = 0 node-wise, dK >= 0 and Y >= h."""
    max_product = 0.0
    max_neg = 0.0
    for k in range(tree.n_steps):
        max_product = max(max_product, float(np.max(np.abs((sol.y[k] - h[k]) * sol.dk[k]))))
        max_neg = max(max_neg, float(np.max(-sol.dk[k], initial=0.0)))
    max_violation = max(
        float(np.max(h[k] - sol.y[k])) for k in range(tree.n_steps + 1)
    )
    return SkorohodReport(
        max_product=max_product,
        max_negative_dk=max_neg,
        max_barrier_violation=max(max_violation, 0.0),
    )


@dataclass(frozen=True)
class EquationResidualReport:
    """Worst-node diagnostics of the per-branch backward-equation residual."""

    max_branch_residual: float
    max_conditional_mean: float
    max_mismatch_vs_representation: float


def check_equation_residual(
    tree: ScenarioTree, sol: RbsdeSolution, gen: GeneratorSpec
) -> EquationResidualReport:
    """Residual of the one-step equation on every child branch.

    residual = Y_k - [Y_{k+1} + f dA + g dt - sum_e U(e) dq - Z dW + dK]
    per branch; its conditional mean vanishes and its L2 norm under the child
    measure equals the representation residual tracked by the solver.
    """
    f_levels, g_levels = gen.given_levels(tree)
    max_res = 0.0
    max_cmean = 0.0
    max_mismatch = 0.0
    for k in range(tree.n_steps):
        n_k, b = tree.level_size(k), tree.branching(k)
        ynext = sol.y[k + 1].reshape(n_k, b)
        mark = tree.branch_mark[k]
        q = tree.jump_prob[k] * tree.phi[k]
        dq = np.stack([(mark == e).astype(float) - q[e] for e in range(tree.n_marks)])
        z = sol.z[k] if sol.z is not None else np.zeros(n_k)
        rhs = (
            ynext
            + (f_levels[k] * tree.da[k] + g_levels[k] * tree.grid.steps[k] + sol.dk[k])[:, None]
            - sol.u[k] @ dq
            - z[:, None] * tree.branch_dw[k][None, :]
        )
        res = sol.y[k][:, None] - rhs
        max_res = max(max_res, float(np.max(np.abs(res))))
        cmean = res @ tree.branch_prob[k]
        max_cmean = max(max_cmean, float(np.max(np.abs(cmean))))
        l2 = np.sqrt(np.maximum(res**2 @ tree.branch_prob[k], 0.0))
        max_mismatch = max(max_mismatch, float(np.max(np.abs(l2 - sol.residual[k]))))
    return EquationResidualReport(
        max_branch_residual=max_res,
        max_conditional_mean=max_cmean,
        max_mismatch_vs_representation=max_mismatch,
    )


def a_priori_majorant(tree: ScenarioTree, gen: GeneratorSpec, sol: RbsdeSolution, beta: float) -> list:
    """Check the weighted bound e^{beta A_k / 2} |Y_k| <= S_k node-wise.

    S is the conditional expectation of
        e^{beta A_T/2}|xi| + beta^{-1/2} (sum e^{beta A} f^2 dA)^{1/2}
        + sum e^{beta A/2}|g| dt + max e^{beta A/2}|h|,
    with the f-integral weighted at the right endpoint of each step so the
    Cauchy-Schwarz bound it certifies holds on any grid.  Returns the list of
    violating (level, node, lhs, rhs) tuples; empty means the bound holds.
    """
    f_levels, g_levels = gen.given_levels(tree)
    a = tree.a_levels
    n = tree.n_steps

    has_f = any(bool(np.any(f_levels[k] != 0)) for k in range(n))
    f_sq = tree.path_sum(np.exp(beta * a[k + 1]) * f_levels[k] ** 2 * tree.da[k] for k in range(n))
    g_abs = tree.path_sum(
        np.exp(beta * a[k] / 2) * np.abs(g_levels[k]) * tree.grid.steps[k] for k in range(n)
    )
    h_max = [np.exp(beta * a[0] / 2) * np.abs(gen.h[0])]
    for k in range(n):
        h_max.append(
            np.maximum(
                tree.repeat_to_children(h_max[k], k),
                np.exp(beta * a[k + 1] / 2) * np.abs(gen.h[k + 1]),
            )
        )
    if has_f and beta <= 0:
        raise BetaZero("the f-term of the majorant needs beta > 0")
    f_term = np.sqrt(f_sq[-1]) / np.sqrt(beta) if has_f else np.zeros(tree.n_leaves)
    zeta = np.exp(beta * a[-1] / 2) * np.abs(gen.xi) + f_term + g_abs[-1] + h_max[-1]

    s = [None] * (n + 1)
    s[n] = zeta
    violations = []
    for k in range(n, -1, -1):
        if k < n:
            s[k] = cexp_level(tree, k, s[k + 1])
        lhs = np.exp(beta * a[k] / 2) * np.abs(sol.y[k])
        bad = lhs > s[k] + MAJORANT_TOL
        for i in np.flatnonzero(bad):
            violations.append((k, int(i), float(lhs[i]), float(s[k][i])))
    return violations
