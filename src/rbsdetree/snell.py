"""Snell envelope, the increments of its increasing part, and where they sit.

On the tree every increasing process is predictable one step ahead: the
increment dK_k decided at a level-k node applies over (t_k, t_{k+1}], so
K is all "jump" (K^c = 0).  ``doob_meyer`` returns the level list of dK;
``tree.path_sum(dk)`` accumulates K.
"""

from __future__ import annotations

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


def doob_meyer(tree: ScenarioTree, r: NodeProcess) -> NodeProcess:
    """The increments dK_k = R_k - E[R_{k+1} | node] >= 0 of K in R = M - K, one array per step.

    R is a tree supermartingale and M = R + K a martingale; raises
    NotSupermartingale if any conditional increment of R is positive beyond tolerance.
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
    return dk


def envelope_jump_support(tree: ScenarioTree, r: NodeProcess, dk: NodeProcess, eta: NodeProcess) -> list:
    """Nodes where the envelope ``r`` of eta is pushed (``dk``) while it sits strictly above eta.

    Empty iff every node with dK > SUPPORT_TOL has R = eta there (the discrete
    form of K growing only on the contact set).  Each violation is reported
    as (level, node_index, dK, R - eta).
    """
    violations = []
    for k, dk_k in enumerate(dk):
        gap = r[k] - eta[k]
        bad = (dk_k > SUPPORT_TOL) & (gap > SUPPORT_TOL)
        for i in np.flatnonzero(bad):
            violations.append((k, int(i), float(dk_k[i]), float(gap[i])))
    return violations
