"""Fixed-point solver for state-dependent generators via frozen iteration.

Each sweep evaluates the generators at the previous iterate, solves the
resulting known-generator reflected equation, and measures the move in the
composite weighted norm; the map contracts once the weight exponents clear
the Lipschitz thresholds.  A point of the iteration is the solver's own
integrands-only ``RbsdeSolution`` (Y, U, Z), with Z None on a jump-only tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BetaTooSmall, NoConvergence
from .lattice import ScenarioTree
from .rbsde import GeneratorSpec, LipschitzConstants, RbsdeSolution, leaf_representation
from .rbsde import solve_given_generators

# Not called here (the CLI checks the final iterate; one solver serves both
# filtrations); kept as names of this module because perfbench/tracer.py wraps them.
from .rbsde import check_equation_residual, check_skorohod  # noqa: F401
from .rbsde import solve_given_generators as solve_mpp_only  # noqa: F401
from .wnorm import WeightedNorm, norm_sq

ALPHA_MAX = 1.0 - 1e-9


def _beta_requirement(lip: LipschitzConstants, alpha: float) -> float:
    return lip.l_u**2 / alpha + 2 * lip.l_f / np.sqrt(alpha)


def _gamma_requirement(lip: LipschitzConstants, alpha: float) -> float:
    return lip.l_z**2 / alpha + 2 * lip.l_g / np.sqrt(alpha)


@dataclass(frozen=True)
class ContractionConfig:
    """Weight exponents and iteration limits for the fixed-point solver."""

    beta: float
    gamma: float
    alpha: float
    lipschitz: LipschitzConstants
    max_iter: int = 40
    tol: float = 1e-9

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.beta <= _beta_requirement(self.lipschitz, self.alpha):
            raise BetaTooSmall(self.beta, _beta_requirement(self.lipschitz, self.alpha))
        if self.gamma <= _gamma_requirement(self.lipschitz, self.alpha):
            raise ValueError("gamma below its Lipschitz threshold")


def select_contraction_parameters(
    lip: LipschitzConstants,
    beta: float,
    max_iter: int = 40,
    tol: float = 1e-9,
) -> ContractionConfig:
    """Pick the largest admissible alpha (bisection to 1e-9) and a valid gamma.

    The admissibility threshold beta > L_U^2/alpha + 2 L_f/sqrt(alpha) is
    monotone in alpha, so the feasible set is an interval reaching up to 1;
    the returned alpha is its upper end capped just below 1.
    """
    minimal = lip.l_u**2 + 2 * lip.l_f
    if beta <= minimal:
        raise BetaTooSmall(beta, minimal)
    # The threshold is decreasing in alpha, so bisect for the lower feasibility
    # boundary and take the upper end of the feasible interval, capped below 1.
    lo, hi = 1e-12, ALPHA_MAX
    if beta <= _beta_requirement(lip, hi):
        raise BetaTooSmall(beta, _beta_requirement(lip, hi))
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if beta > _beta_requirement(lip, mid):
            hi = mid
        else:
            lo = mid
    alpha = ALPHA_MAX
    gamma = _gamma_requirement(lip, alpha) + 1.0
    return ContractionConfig(
        beta=beta, gamma=gamma, alpha=alpha, lipschitz=lip, max_iter=max_iter, tol=tol
    )


def _zero_point(tree: ScenarioTree) -> RbsdeSolution:
    """The start point (0, 0, 0): an integrands-only solution, Z None on a jump-only tree."""
    y = [np.zeros(tree.level_size(k)) for k in range(tree.n_steps + 1)]
    u = [np.zeros((tree.level_size(k), tree.n_marks)) for k in range(tree.n_steps)]
    return RbsdeSolution(y=y, u=u, z=[np.zeros_like(x) for x in y[:-1]] if tree.n_brownian == 2 else None)


def composite_distance(
    tree: ScenarioTree, t1: RbsdeSolution, t2: RbsdeSolution, cfg: ContractionConfig
) -> float:
    """Distance of two points (Y, U, Z) in the composite weighted norm of the contraction argument."""
    lip, b, g = cfg.lipschitz, cfg.beta, cfg.gamma
    root_alpha = np.sqrt(cfg.alpha)
    dy = [t1.y[k] - t2.y[k] for k in range(tree.n_steps)]
    du = [t1.u[k] - t2.u[k] for k in range(tree.n_steps)]
    total = (lip.l_f / root_alpha) * norm_sq(tree, dy, WeightedNorm("A", b, g))
    total += (lip.l_g / root_alpha) * norm_sq(tree, dy, WeightedNorm("W", b, g))
    total += norm_sq(tree, du, WeightedNorm("p", b, g))
    if t1.z is not None and t2.z is not None:
        dz = [t1.z[k] - t2.z[k] for k in range(tree.n_steps)]
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
    def ratios(self) -> list:
        return [
            d2 / d1 for d1, d2 in zip(self.distances, self.distances[1:]) if d1 > 0
        ]


def _frozen_spec(tree: ScenarioTree, gen: GeneratorSpec, point: RbsdeSolution) -> GeneratorSpec:
    f_levels, g_levels = gen.given_levels(tree)
    if gen.f_state is not None:
        f_levels = [gen.f_state(tree, k, point.y[k], point.u[k]) for k in range(tree.n_steps)]
    if gen.g_state is not None:
        zk = point.z if point.z is not None else [np.zeros(tree.level_size(k)) for k in range(tree.n_steps)]
        g_levels = [gen.g_state(tree, k, point.y[k], zk[k]) for k in range(tree.n_steps)]
    return GeneratorSpec(
        xi=gen.xi,
        h=gen.h,
        f_levels=f_levels,
        g_levels=g_levels,
        lipschitz=gen.lipschitz,
    )


def picard_solve(
    tree: ScenarioTree,
    gen: GeneratorSpec,
    cfg: ContractionConfig,
    init: Optional[RbsdeSolution] = None,
) -> PicardTrace:
    """Iterate the frozen-generator map from (0, 0, 0), or ``init``, until the move is small.

    A sweep is an integrands-only solve, (Y, U, Z) alone, which is all the
    next sweep and the distance read; the final iterate is solved in full,
    push and residuals included.  Y_N = xi in every sweep, so xi and h are
    checked and Y_N's representation is made once, before the first sweep; a
    sweep checks only its frozen f and g.  Raises NoConvergence (carrying the
    distance trace) if the iteration cap is reached first.
    """
    leaf = leaf_representation(tree, gen)
    point = init if init is not None else _zero_point(tree)
    distances = []
    frozen = None
    for _ in range(cfg.max_iter):
        frozen = _frozen_spec(tree, gen, point)
        sweep = solve_given_generators(tree, frozen, integrands_only=True, leaf=leaf)
        d = composite_distance(tree, point, sweep, cfg)
        distances.append(d)
        point = sweep
        if d <= cfg.tol:
            break
    else:
        raise NoConvergence(distances, cfg.tol)

    return PicardTrace(distances, solve_given_generators(tree, frozen, leaf=leaf), frozen)
