"""Snell envelope, Doob-Meyer decomposition and jump-support diagnostics.

On the tree every increasing process is predictable one step ahead: the
increment dK_k decided at a level-k node applies over (t_k, t_{k+1}].  The
discrete decomposition therefore carries the whole of K as its "jump" part
(K^c = 0); the continuous/discontinuous split has no separate content here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSupermartingale
from .lattice import NodeProcess, ScenarioTree, cexp_level

SUPERMARTINGALE_TOL = 1e-10
SUPPORT_TOL = 1e-12  # dK and R - eta above this count as positive


def snell_envelope(tree: ScenarioTree, eta: NodeProcess) -> NodeProcess:
    """Smallest supermartingale dominating eta, by backward induction.

    R_N = eta_N at the leaves and R_k = max(eta_k, E[R_{k+1} | node]).
    """
    n = tree.n_steps
    r = [None] * (n + 1)
    r[n] = np.asarray(eta[n], dtype=float).copy()
    for k in range(n - 1, -1, -1):
        r[k] = np.maximum(eta[k], cexp_level(tree, k, r[k + 1]))
    return r


@dataclass(frozen=True)
class SnellDecomposition:
    """Split R = M - K with M = R + K a martingale and K predictable nondecreasing.

    ``dk[k]`` is the increment decided at level k (over (t_k, t_{k+1}]);
    ``k_cum[k]`` the accumulated K at level k (K_0 = 0).
    """

    r: NodeProcess
    k_cum: NodeProcess
    dk: NodeProcess


def doob_meyer(tree: ScenarioTree, r: NodeProcess) -> SnellDecomposition:
    """Decompose a tree supermartingale into martingale minus increasing part.

    dK_k = R_k - E[R_{k+1} | node] >= 0; raises NotSupermartingale if any
    conditional increment of R is positive beyond tolerance.
    """
    dk = []
    for k in range(tree.n_steps):
        drift = r[k] - cexp_level(tree, k, r[k + 1])
        if np.any(drift < -SUPERMARTINGALE_TOL):
            worst = float(drift.min())
            raise NotSupermartingale(
                f"conditional increment +{-worst:.3e} at level {k} exceeds tolerance"
            )
        dk.append(np.maximum(drift, 0.0))

    return SnellDecomposition(r=list(r), k_cum=tree.path_sum(dk), dk=dk)


def envelope_jump_support(tree: ScenarioTree, dec: SnellDecomposition, eta: NodeProcess) -> list:
    """Nodes where K increases while the envelope sits strictly above eta.

    Empty iff every node with dK > SUPPORT_TOL has R = eta there (the discrete
    form of K growing only on the contact set).  Each violation is reported
    as (level, node_index, dK, R - eta).
    """
    violations = []
    for k, dk in enumerate(dec.dk):
        gap = dec.r[k] - eta[k]
        bad = (dk > SUPPORT_TOL) & (gap > SUPPORT_TOL)
        for i in np.flatnonzero(bad):
            violations.append((k, int(i), float(dk[i]), float(gap[i])))
    return violations
