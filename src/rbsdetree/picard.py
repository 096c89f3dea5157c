"""Fixed-point solver for state-dependent generators via frozen iteration.

The problem is a ``GeneratorSpec`` (xi, h and any given generator levels)
and its ``StateGenerators``.  Each sweep evaluates the state generators at
the previous iterate, solves the resulting known-generator reflected
equation, and measures the move in the composite weighted norm; the map
contracts once the weight exponents clear the Lipschitz thresholds.  A point of the iteration is the solver's own
integrands-only ``RbsdeSolution`` (Y, U, Z), with Z zero on a jump-only tree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import BetaTooSmall, NoConvergence
from .lattice import ScenarioTree
from .rbsde import GeneratorSpec, RbsdeSolution, leaf_representation
from .rbsde import solve_given_generators

# Not called here (the CLI checks the final iterate; one solver serves both
# filtrations); kept as names of this module because perfbench/tracer.py wraps them.
from .rbsde import check_equation_residual, check_skorohod  # noqa: F401
from .rbsde import solve_given_generators as solve_mpp_only  # noqa: F401
from .wnorm import WeightedNorm, norm_sq

ALPHA_MAX = 1.0 - 1e-9
RATE_SLACK = 0.05  # how far a late ratio of successive distances may exceed alpha
RATE_BOUND = ALPHA_MAX + RATE_SLACK  # the bound on ``PicardTrace.late_ratios``


class LipschitzConstants(NamedTuple):
    """Certified constants (L_f, L_U, L_g, L_Z) of the generator pair."""

    l_f: float = 0.0
    l_u: float = 0.0
    l_g: float = 0.0
    l_z: float = 0.0


class StateGenerators(NamedTuple):
    """Generators f(tree, k, y, u) and g(tree, k, y, z) that read the state, and their constants.

    Each returns one value per node of level k.  A None generator is the
    spec's given levels, so a spec may pair a given g with a state f.
    """

    f: Optional[Callable]
    g: Optional[Callable]
    lipschitz: LipschitzConstants


def beta_terms(lip: LipschitzConstants) -> tuple:
    """(L_U^2/alpha, 2 L_f/sqrt(alpha)) at alpha = ALPHA_MAX: beta must exceed their sum."""
    return lip.l_u**2 / ALPHA_MAX, 2 * lip.l_f / np.sqrt(ALPHA_MAX)


def gamma_terms(lip: LipschitzConstants) -> tuple:
    """(L_Z^2/alpha, 2 L_g/sqrt(alpha)) at alpha = ALPHA_MAX: gamma must exceed their sum."""
    return lip.l_z**2 / ALPHA_MAX, 2 * lip.l_g / np.sqrt(ALPHA_MAX)


@dataclass(frozen=True)
class ContractionConfig:
    """Weight exponents and iteration limits for the fixed-point solver, at alpha = ALPHA_MAX."""

    beta: float
    gamma: float
    lipschitz: LipschitzConstants
    max_iter: int = 40
    tol: float = 1e-9

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
        minimal = sum(beta_terms(self.lipschitz))
        if self.beta <= minimal:
            raise BetaTooSmall(self.beta, minimal)
        if self.gamma <= sum(gamma_terms(self.lipschitz)):
            raise ValueError(f"gamma = {float(self.gamma)!r} is not above its Lipschitz threshold")


def select_contraction_parameters(lip: LipschitzConstants, beta: float, max_iter: int = 40,
                                  tol: float = 1e-9) -> ContractionConfig:
    """The contraction config for ``beta``, with gamma one above the sum of ``gamma_terms``.

    Raises BetaTooSmall if beta is not above the sum of ``beta_terms``, and
    ValueError if adding the one rounds back to that sum (possible from 2^53 on).
    """
    return ContractionConfig(beta, sum(gamma_terms(lip)) + 1.0, lip, max_iter=max_iter, tol=tol)


def _zero_point(tree: ScenarioTree) -> RbsdeSolution:
    """The start point (0, 0, 0): an integrands-only solution."""
    y = [np.zeros(tree.level_size(k)) for k in range(tree.n_steps + 1)]
    u = [np.zeros((tree.level_size(k), tree.n_marks)) for k in range(tree.n_steps)]
    return RbsdeSolution(y=y, u=u, z=[np.zeros_like(x) for x in y[:-1]])


def composite_distance(
    tree: ScenarioTree, t1: RbsdeSolution, t2: RbsdeSolution, cfg: ContractionConfig
) -> float:
    """Distance of two points (Y, U, Z) in the composite weighted norm of the contraction argument.

    One that overflows is inf or nan, with no warning; the caller rejects it.
    """
    lip, b, g = cfg.lipschitz, cfg.beta, cfg.gamma
    root_alpha = np.sqrt(ALPHA_MAX)
    dy = [t1.y[k] - t2.y[k] for k in range(tree.n_steps)]
    du = [t1.u[k] - t2.u[k] for k in range(tree.n_steps)]
    dz = [t1.z[k] - t2.z[k] for k in range(tree.n_steps)]
    with np.errstate(over="ignore", invalid="ignore"):
        total = (lip.l_f / root_alpha) * norm_sq(tree, dy, WeightedNorm("A", b, g))
        total += (lip.l_g / root_alpha) * norm_sq(tree, dy, WeightedNorm("W", b, g))
        total += norm_sq(tree, du, WeightedNorm("p", b, g))
        total += norm_sq(tree, dz, WeightedNorm("W", b, g))
    return float(np.sqrt(max(total, 0.0)))


@dataclass
class PicardTrace:
    """Per-iteration distances plus the final solution.

    ``frozen_spec`` is the known-generator spec whose exact solution the
    final iterate is (generators evaluated at the previous iterate); the
    fixed-point property is certified by the last distance being <= tol.
    """

    distances: list
    solution: RbsdeSolution
    frozen_spec: GeneratorSpec

    @property
    def late_ratios(self) -> list:
        """The ratios d_{j+1}/d_j judged at RATE_BOUND: past the first, from d_j > 1e-12."""
        d = self.distances
        return [d2 / d1 for d1, d2 in zip(d[1:], d[2:]) if d1 > 1e-12]


def _frozen_spec(tree: ScenarioTree, gen: GeneratorSpec, state: StateGenerators, point: RbsdeSolution):
    """``gen`` with ``state``'s generators evaluated at ``point``."""
    f_levels, g_levels = gen.f_levels, gen.g_levels
    if state.f is not None:
        f_levels = [state.f(tree, k, point.y[k], point.u[k]) for k in range(tree.n_steps)]
    if state.g is not None:
        g_levels = [state.g(tree, k, point.y[k], point.z[k]) for k in range(tree.n_steps)]
    return replace(gen, f_levels=f_levels, g_levels=g_levels)


def picard_solve(
    tree: ScenarioTree,
    gen: GeneratorSpec,
    state: StateGenerators,
    cfg: ContractionConfig,
    init: Optional[RbsdeSolution] = None,
) -> PicardTrace:
    """Iterate the frozen-generator map from (0, 0, 0), or ``init``, until the move is small.

    A sweep is an integrands-only solve, (Y, U, Z) alone, which is all the
    next sweep and the distance read; the final iterate is solved in full,
    push and residuals included.  Y_N = xi in every sweep, so xi and h are
    checked and Y_N's representation is made once, before the first sweep; a
    sweep checks only its frozen f and g.  ``cfg`` is selected for
    ``state.lipschitz``.  Raises NoConvergence (carrying the distance trace)
    if the iteration cap is reached first.
    """
    leaf = leaf_representation(tree, gen)
    point = init if init is not None else _zero_point(tree)
    distances = []
    frozen = None
    for _ in range(cfg.max_iter):
        frozen = _frozen_spec(tree, gen, state, point)
        sweep = solve_given_generators(tree, frozen, integrands_only=True, leaf=leaf)
        d = composite_distance(tree, point, sweep, cfg)
        distances.append(d)
        point = sweep
        if d <= cfg.tol:
            break
    else:
        raise NoConvergence(distances, cfg.tol)

    return PicardTrace(distances, solve_given_generators(tree, frozen, leaf=leaf), frozen)
