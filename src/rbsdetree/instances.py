"""Problem-instance builders: closed-form generator families and random suites.

The closed-form families are the ones whose Lipschitz constants can be
certified exactly: affine (and clipped-affine) generators, terminal payoffs
polynomial in the terminal Brownian value and jump count, and barriers that
are piecewise-constant in time plus a linear functional of (w, n).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .lattice import ScenarioTree, TimeGrid, build_tree
from .mpp import CompensatorSpec, MarkSet
from .rbsde import GeneratorSpec, LipschitzConstants


def make_tree(
    n_steps: int,
    horizon: float,
    mark_labels,
    rate: float,
    n_brownian: int = 2,
    budget: int = 2_000_000,
) -> ScenarioTree:
    """Tree over a uniform grid, A(t) = rate * t and a uniform mark kernel."""
    marks = MarkSet(tuple(mark_labels))
    comp = CompensatorSpec.linear(rate, np.full(marks.size, 1.0 / marks.size))
    grid = TimeGrid.uniform(n_steps, horizon)
    return build_tree(grid, marks, comp, n_brownian=n_brownian, budget=budget)


def _clip(x, bound: Optional[float]):
    return np.clip(x, -bound, bound) if bound is not None else x


def affine_generators(
    fa: float,
    fb: float,
    fc,
    ga: float,
    gz: float,
    f_offset=None,
    g_offset=None,
    clip: Optional[float] = None,
):
    """Affine (or clipped-affine) generator pair with certified constants.

    f(t, y, u) = fa * cl(y) + fb * cl(<fc, u>_phi) + f_offset(t, state)
    g(t, y, z) = ga * cl(y) + gz * cl(z) + g_offset(t, state)

    where <.,.>_phi is the mark-kernel inner product and cl clips at +/-clip
    (identity when clip is None; clipping is 1-Lipschitz so the constants are
    unchanged).  Offsets are callables (tree, k) -> per-node array, or None.
    Returns (f_state, g_state, constants_fn) where constants_fn(tree) yields
    the certified LipschitzConstants for that tree's kernel.
    """
    fc = np.asarray(fc, dtype=float)

    def f_state(tree, k, y, u):
        umean = u @ (fc * tree.phi[k])
        base = fa * _clip(y, clip) + fb * _clip(umean, clip)
        if f_offset is not None:
            base = base + f_offset(tree, k)
        return base + np.zeros(tree.level_size(k))

    def g_state(tree, k, y, z):
        base = ga * _clip(y, clip) + gz * _clip(z, clip)
        if g_offset is not None:
            base = base + g_offset(tree, k)
        return base + np.zeros(tree.level_size(k))

    def constants(tree) -> LipschitzConstants:
        kernel_norm = max(
            float(np.sqrt(fc**2 @ tree.phi[k])) for k in range(tree.n_steps)
        )
        return LipschitzConstants(
            l_f=abs(fa), l_u=abs(fb) * kernel_norm, l_g=abs(ga), l_z=abs(gz)
        )

    return f_state, g_state, constants


def terminal_payoff(tree: ScenarioTree, const=0.0, w=0.0, n=0.0, wn=0.0) -> np.ndarray:
    """xi = const + w * W_T + n * N_T + wn * W_T N_T at the leaves."""
    wt, nt = tree.w[-1], tree.n_jumps[-1]
    return const + w * wt + n * nt + wn * wt * nt


def linear_barrier(
    tree: ScenarioTree,
    base,
    w: float = 0.0,
    n: float = 0.0,
    leaf_slack: float = 10.0,
    xi: Optional[np.ndarray] = None,
):
    """Barrier base_k + w * W_k + n * N_k, capped at xi - leaf_slack at leaves.

    ``base`` is a scalar or one value per level (piecewise-constant in time).
    """
    base = np.broadcast_to(np.asarray(base, dtype=float), (tree.n_steps + 1,))
    h = [
        base[k] + w * tree.w[k] + n * tree.n_jumps[k]
        for k in range(tree.n_steps + 1)
    ]
    if xi is None:
        xi = terminal_payoff(tree)
    h[-1] = np.minimum(h[-1], xi - leaf_slack)
    return h


def state_levels(tree: ScenarioTree, const=0.0, tanh_w=0.0, n=0.0, t=0.0) -> list:
    """const + tanh_w * tanh(W_k) + n * N_k + t * t_k on levels 0..N-1.

    A given generator process, smooth in the node state; the closing zeros
    make every level a full per-node array.
    """
    return [
        const
        + tanh_w * np.tanh(tree.w[k])
        + n * tree.n_jumps[k]
        + t * tree.grid.times[k]
        + np.zeros(tree.level_size(k))
        for k in range(tree.n_steps)
    ]


def random_given_instance(
    rng,
    max_steps: int = 4,
    n_brownian: int = 2,
    with_jumps: Optional[bool] = None,
    cross_terminal: bool = False,
    max_interior: Optional[int] = None,
):
    """Random known-generator instance with an often-active barrier.

    The barrier at the leaves is forced below the terminal payoff, interior
    barrier levels are drawn high enough that reflection binds on a good
    fraction of draws.
    """
    if with_jumps is None:
        with_jumps = bool(rng.integers(0, 2))
    n_steps = int(rng.integers(1, max_steps + 1))
    rate = float(rng.uniform(0.3, 1.2)) if with_jumps else 0.0
    if max_interior is not None:
        while True:
            b = n_brownian * (2 if rate > 0 else 1)
            interior = sum(b**k for k in range(n_steps))
            if interior <= max_interior:
                break
            n_steps -= 1
    tree = make_tree(n_steps, horizon=1.0, mark_labels=("e1",), rate=rate, n_brownian=n_brownian)

    xi = terminal_payoff(
        tree,
        const=float(rng.uniform(-0.5, 0.5)),
        w=float(rng.uniform(-1.0, 1.0)),
        n=float(rng.uniform(-1.0, 1.0)),
        wn=float(rng.uniform(-1.0, 1.0)) if cross_terminal else 0.0,
    )
    h = linear_barrier(
        tree,
        base=rng.uniform(-0.5, 0.8, size=tree.n_steps + 1),
        w=float(rng.uniform(-0.5, 0.5)),
        n=float(rng.uniform(-0.5, 0.5)),
        leaf_slack=float(rng.choice([0.0, 0.5, 2.0])),
        xi=xi,
    )
    f_levels = state_levels(tree, *rng.uniform(-1.0, 1.0, size=4))
    g_levels = state_levels(tree, *rng.uniform(-1.0, 1.0, size=4)) if n_brownian == 2 else None
    return tree, GeneratorSpec(xi=xi, h=h, f_levels=f_levels, g_levels=g_levels)


def random_oracle_instance(rng):
    """Random instance small enough for exhaustive rule enumeration."""
    kind = int(rng.integers(0, 3))
    if kind == 0:  # Brownian-only, branching 2, up to 7 interior nodes
        return random_given_instance(rng, max_steps=3, with_jumps=False)
    if kind == 1:  # Brownian + jumps, branching 4, up to 5 interior nodes
        return random_given_instance(rng, max_steps=2, with_jumps=True)
    # jump-only filtration, branching 2 (no g drawn there)
    return random_given_instance(rng, max_steps=3, n_brownian=1, with_jumps=True)


def random_picard_instance(rng, n_brownian: int = 2, max_lip: float = 0.5):
    """Random affine state-dependent instance with certified constants."""
    tree, base = random_given_instance(rng, max_steps=3, n_brownian=n_brownian,
                                       with_jumps=True, max_interior=64)
    fa = float(rng.uniform(-max_lip, max_lip))
    fb = float(rng.uniform(-max_lip, max_lip))
    ga = float(rng.uniform(-max_lip, max_lip)) if n_brownian == 2 else 0.0
    gz = float(rng.uniform(-max_lip, max_lip)) if n_brownian == 2 else 0.0
    f_off = state_levels(tree, *rng.uniform(-1.0, 1.0, size=4))
    g_off = state_levels(tree, *rng.uniform(-1.0, 1.0, size=4)) if n_brownian == 2 else None
    f_state, g_state, constants = affine_generators(
        fa, fb, fc=np.ones(tree.n_marks), ga=ga, gz=gz,
        f_offset=lambda t, k: f_off[k],
        g_offset=(lambda t, k: g_off[k]) if g_off is not None else None,
    )
    lip = constants(tree)
    gen = GeneratorSpec(
        xi=base.xi,
        h=base.h,
        f_state=f_state,
        g_state=g_state if n_brownian == 2 else None,
        lipschitz=lip,
    )
    return tree, gen
