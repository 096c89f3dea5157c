"""Acceptance harness: the ten primary verification criteria.

Each criterion is a function returning a CriterionResult with a one-line
verdict; run_all executes the whole suite.  The same functions back the CLI
``verify`` verb and the acceptance test module, so a failure shows up
identically in both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import RbsdeTreeError
from .instances import (
    linear_barrier,
    make_tree,
    random_given_instance,
    random_oracle_instance,
    random_picard_instance,
    state_levels,
    terminal_payoff,
)
from .picard import RATE_SLACK, LipschitzConstants, StateGenerators, picard_solve
from .picard import select_contraction_parameters
from .rbsde import (
    EQUATION_TOL,
    ROUTE_TOL,
    SKOROHOD_TOL,
    GeneratorSpec,
    RbsdeSolution,
    check_equation_residual,
    check_skorohod,
    a_priori_majorant,
    reward_process,
    solve_given_generators,
    solve_via_snell,
)
from .snell import SUPPORT_TOL
from .stopping import (
    OPTIMAL_TOL,
    VALUE_TOL,
    brute_force_value,
    epsilon_optimal_time,
    k_flatness_before_stop,
    reward_of_rule,
    rule_from_mask,
    smallest_optimal_time,
    stop_levels,
)
from .wnorm import WeightedNorm, norm_sq

BASE_SEED = 20260823


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion."""

    name: str
    passed: bool
    detail: str
    seconds: float

    @property
    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _timed(name):
    def wrap(fn):
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                passed, detail = fn(*args, **kwargs)
            except RbsdeTreeError as exc:  # e.g. a Picard run that does not converge
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            return CriterionResult(name, passed, detail, time.perf_counter() - t0)

        run.__name__ = fn.__name__
        return run

    return wrap


def _count(scale: str, small: int) -> int:
    return small * (2 if scale == "full" else 1)


# ---------------------------------------------------------------------------
# 1. Root value equals the exhaustive stopping oracle.
# ---------------------------------------------------------------------------
@_timed("oracle equivalence")
def criterion_oracle_equivalence(scale: str = "small"):
    rng = np.random.default_rng(BASE_SEED + 1)
    worst = 0.0
    for _ in range(n := _count(scale, 20)):
        tree, gen = random_oracle_instance(rng)
        sol = solve_given_generators(tree, gen)
        cert = brute_force_value(tree, reward_process(tree, gen), keep_table=False)
        worst = max(worst, abs(float(sol.y[0][0]) - cert.value))
    return worst <= VALUE_TOL, f"max |Y_0 - oracle| = {worst:.3e} over {n} instances (tol {VALUE_TOL:g})"


# ---------------------------------------------------------------------------
# 2. Minimal-push conditions hold node-wise.
# ---------------------------------------------------------------------------
@_timed("minimal-push conditions")
def criterion_skorohod(scale: str = "small"):
    rng = np.random.default_rng(BASE_SEED + 2)
    worst_prod = worst_neg = worst_bar = 0.0
    for _ in range(n := _count(scale, 50)):
        tree, gen = random_given_instance(rng, max_steps=4, cross_terminal=True)
        sol = solve_given_generators(tree, gen)
        rec = check_skorohod(tree, sol, gen.h)
        worst_prod = max(worst_prod, rec["max_product"])
        worst_neg = max(worst_neg, rec["max_negative_dk"])
        worst_bar = max(worst_bar, rec["max_barrier_violation"])
    ok = max(worst_prod, worst_neg, worst_bar) <= SKOROHOD_TOL
    return ok, (
        f"max (Y-h)dK = {worst_prod:.3e}, max -dK = {worst_neg:.3e}, "
        f"max h-Y = {worst_bar:.3e} (tol {SKOROHOD_TOL:g}) over {n} instances"
    )


# ---------------------------------------------------------------------------
# 3. Direct recursion and envelope-decomposition route agree.
# ---------------------------------------------------------------------------
@_timed("route equivalence")
def criterion_route_equivalence(scale: str = "small"):
    rng = np.random.default_rng(BASE_SEED + 2)  # same instances as criterion 2
    worst = 0.0
    for _ in range(n := _count(scale, 50)):
        tree, gen = random_given_instance(rng, max_steps=4, cross_terminal=True)
        direct = solve_given_generators(tree, gen)
        y, _, dk, _ = solve_via_snell(tree, gen)
        k_cum = tree.path_sum(dk)
        for k in range(tree.n_steps + 1):
            worst = max(worst, float(np.max(np.abs(direct.y[k] - y[k]))))
            worst = max(worst, float(np.max(np.abs(direct.k_cum[k] - k_cum[k]))))
    detail = f"max node-wise |direct - envelope route| = {worst:.3e} over {n} instances (tol {ROUTE_TOL:g})"
    return worst <= ROUTE_TOL, detail


# ---------------------------------------------------------------------------
# 4. Fixed-point iteration contracts at the certified rate.
# ---------------------------------------------------------------------------
@_timed("fixed-point contraction")
def criterion_picard(scale: str = "small"):
    rng = np.random.default_rng(BASE_SEED + 4)
    worst_ratio = 0.0
    worst_gap = 0.0
    max_iters = 0
    for i in range(n := _count(scale, 20)):
        n_brownian = 1 if i % 4 == 3 else 2
        tree, gen, state = random_picard_instance(rng, n_brownian=n_brownian)
        lip = state.lipschitz
        beta = lip.l_u**2 + 2 * lip.l_f + 0.5
        cfg = select_contraction_parameters(lip, beta, max_iter=40, tol=1e-9)
        trace = picard_solve(tree, gen, state, cfg)
        max_iters = max(max_iters, len(trace.distances))
        worst_ratio = max([worst_ratio, *trace.late_ratios])
        sol = trace.solution
        ones = RbsdeSolution(*([np.ones_like(x) for x in process] for process in (sol.y, sol.u, sol.z)))
        other = picard_solve(tree, gen, state, cfg, init=ones).solution
        worst_gap = max([worst_gap] + [float(np.max(np.abs(a - b))) for a, b in zip(sol.y, other.y)])
        bound = cfg.alpha + RATE_SLACK
    ok = worst_ratio <= bound and worst_gap <= 1e-8 and max_iters <= 40
    return ok, (
        f"max ratio = {worst_ratio:.4f} (bound {bound:.4f}), max iters = {max_iters}, "
        f"init gap = {worst_gap:.3e} (tol 1e-8) over {n} instances"
    )


# ---------------------------------------------------------------------------
# 5. Near-contact stopping is epsilon-optimal and push-free before it.
# ---------------------------------------------------------------------------
@_timed("epsilon-optimal stopping")
def criterion_epsilon_optimality(scale: str = "small"):
    rng = np.random.default_rng(BASE_SEED + 5)
    worst_gap = -np.inf
    worst_flat = 0.0
    for _ in range(n := _count(scale, 20)):
        tree, gen = random_given_instance(rng, max_steps=4, cross_terminal=True)
        sol = solve_given_generators(tree, gen)
        eta = reward_process(tree, gen)
        for eps in (0.1, 0.01, 0.001):
            rule = epsilon_optimal_time(tree, sol, gen.h, eps)
            reward = reward_of_rule(tree, eta, rule)
            worst_gap = max(worst_gap, float(sol.y[0][0]) - reward - eps)
            worst_flat = max(worst_flat, k_flatness_before_stop(tree, sol, rule))
    ok = worst_gap <= OPTIMAL_TOL and worst_flat <= SUPPORT_TOL
    return ok, (
        f"max Y_0 - reward - eps = {worst_gap:.3e}, "
        f"max push before stop = {worst_flat:.3e} (tol {SUPPORT_TOL:g}) "
        f"over {n} instances x eps in {{0.1,0.01,0.001}}"
    )


# ---------------------------------------------------------------------------
# 6. First contact is optimal and earliest among all optimal rules.
# ---------------------------------------------------------------------------
@_timed("smallest optimal rule")
def criterion_smallest_optimal(scale: str = "small"):
    rng = np.random.default_rng(BASE_SEED + 6)
    worst_value = 0.0
    latest = True
    for _ in range(n := _count(scale, 20)):
        tree, gen = random_oracle_instance(rng)
        sol = solve_given_generators(tree, gen)
        eta = reward_process(tree, gen)
        star = smallest_optimal_time(tree, sol, gen.h)
        reward = reward_of_rule(tree, eta, star)
        worst_value = max(worst_value, abs(float(sol.y[0][0]) - reward))
        star_levels = stop_levels(tree, star)
        cert = brute_force_value(tree, eta)
        for mask in cert.optimal_masks():
            other = rule_from_mask(tree, int(mask))
            if np.any(star_levels > stop_levels(tree, other)):
                latest = False
    ok = worst_value <= VALUE_TOL and latest
    return ok, (
        f"max |Y_0 - reward(first contact)| = {worst_value:.3e} (tol {VALUE_TOL:g}), "
        f"earliest among optimal rules: {latest}, over {n} instances"
    )


# ---------------------------------------------------------------------------
# 7. Weighted a-priori bound dominates the solution node-wise.
# ---------------------------------------------------------------------------
@_timed("a-priori majorant")
def criterion_majorant(scale: str = "small"):
    rng = np.random.default_rng(BASE_SEED + 7)
    n_viol = 0
    for _ in range(n := _count(scale, 20)):
        tree, gen = random_given_instance(rng, max_steps=4, cross_terminal=True)
        sol = solve_given_generators(tree, gen)
        for beta in (0.5, 1.0, 2.0):
            n_viol += len(a_priori_majorant(tree, gen, sol, beta=beta))
    return n_viol == 0, f"{n_viol} node-level violations over {n} instances x beta in {{0.5,1,2}}"


# ---------------------------------------------------------------------------
# 8. Representation residuals: exact for separable data, closed form for cross terms.
# ---------------------------------------------------------------------------
def _separable_instance(rng, kind: int):
    """Instance whose branchwise values stay inside the representable span."""
    if kind == 0:  # Brownian-only tree: two branches, span {1, dW} is complete
        return random_given_instance(rng, max_steps=4, with_jumps=False)
    if kind == 1:  # jump-only tree: span {1, compensated indicator} is complete
        return random_given_instance(rng, max_steps=4, n_brownian=1, with_jumps=True)
    # mixed tree with additively separable data and a non-binding barrier
    tree = make_tree(
        int(rng.integers(1, 4)), 1.0, ("e1",), rate=float(rng.uniform(0.3, 1.2))
    )
    xi = terminal_payoff(
        tree,
        const=float(rng.uniform(-0.5, 0.5)),
        w=float(rng.uniform(-1, 1)),
        n=float(rng.uniform(-1, 1)),
    )
    h = linear_barrier(tree, base=-100.0, leaf_slack=100.0, xi=xi)
    f_levels = [rng.uniform(-1, 1) * np.tanh(tree.w[k]) + rng.uniform(-1, 1) * tree.n_jumps[k]
                for k in range(tree.n_steps)]
    return tree, GeneratorSpec(xi=xi, h=h, f_levels=f_levels)


CROSS_RATE = 0.8  # jump rate of the criterion-8 cross instance


def _cross_instance(n_steps: int, wn: float = 1.0, rate: float = CROSS_RATE):
    tree = make_tree(n_steps, 1.0, ("e1",), rate=rate)
    xi = terminal_payoff(tree, wn=wn)
    h = linear_barrier(tree, base=-100.0, leaf_slack=100.0, xi=xi)
    return tree, GeneratorSpec(xi=xi, h=h)


def _cross_peak_residual(n_steps: int) -> float:
    """The exact representation residual of every node of ``_cross_instance``.

    Over one step of length dt, the payoff W_T N_T moves by terms in 1, dW
    and the jump indicator dN, which the representation spans, plus the
    product dW (dN - q) with q = P(jump) = 1 - e^{-CROSS_RATE dt}.  That
    product is orthogonal to the span, and its L2 norm is sqrt(dt q (1 - q)).
    """
    dt = 1.0 / n_steps
    q = -np.expm1(-CROSS_RATE * dt)
    return float(np.sqrt(dt * q * (1.0 - q)))


@_timed("representation residuals")
def criterion_representation(scale: str = "small"):
    rng = np.random.default_rng(BASE_SEED + 8)
    worst_sep = 0.0
    for i in range(n := _count(scale, 12)):
        tree, gen = _separable_instance(rng, i % 3)
        sol = solve_given_generators(tree, gen)
        worst_sep = max(worst_sep, check_equation_residual(tree, sol, gen)[1])

    worst_cmean = 0.0
    peaks, predicted = [], []
    for n_steps in (4, 8):
        tree, gen = _cross_instance(n_steps)
        sol = solve_given_generators(tree, gen)
        worst_cmean = max(worst_cmean, check_equation_residual(tree, sol, gen)[0]["max_conditional_mean"])
        peaks.append(max(float(np.max(r)) for r in sol.residual))
        predicted.append(_cross_peak_residual(n_steps))
    gap = max(abs(a - b) for a, b in zip(peaks, predicted))
    ok = worst_sep <= 1e-12 and worst_cmean <= EQUATION_TOL and gap <= 1e-12
    return ok, (
        f"separable residual = {worst_sep:.3e} over {n} instances (tol 1e-12), cross-term conditional "
        f"mean = {worst_cmean:.3e} (tol {EQUATION_TOL:g}), cross-term peak residual at N = 4, 8 = "
        f"{peaks[0]:.6f}, {peaks[1]:.6f}, predicted sqrt(dt q(1-q)) with q = 1 - e^(-{CROSS_RATE} dt) "
        f"= {predicted[0]:.6f}, {predicted[1]:.6f} (gap {gap:.1e}, tol 1e-12)"
    )


# ---------------------------------------------------------------------------
# 9. Hand-computed fixtures reproduce exactly.
# ---------------------------------------------------------------------------
def fixture_reflected_binomial():
    """One binomial step, payoff W_1, barrier 0.5 at the root."""
    tree = make_tree(1, 1.0, ("e1",), rate=0.0)
    xi = tree.w[-1].copy()
    gen = GeneratorSpec(xi=xi, h=[np.array([0.5]), xi - 0.0])
    return tree, gen


def fixture_jump_count():
    """One jump-only step with unit compensator mass ln 2, payoff N_1."""
    tree = make_tree(1, 1.0, ("e1",), rate=np.log(2.0), n_brownian=1)
    xi = tree.n_jumps[-1].astype(float)
    gen = GeneratorSpec(xi=xi, h=[np.array([-10.0]), xi - 10.0])
    return tree, gen


def fixture_linear_fixed_point():
    """One jump-only step, f = 0.1 y, xi = 1: fixed point Y_0 = 1/0.9.  Returns (tree, spec, state)."""
    tree = make_tree(1, 1.0, ("e1",), rate=1.0, n_brownian=1)
    xi = np.ones(tree.n_leaves)
    state = StateGenerators(f=lambda t, k, y, u: 0.1 * y, g=None, lipschitz=LipschitzConstants(l_f=0.1))
    return tree, GeneratorSpec(xi=xi, h=[np.array([-10.0]), xi - 10.0]), state


@_timed("hand-computed fixtures")
def criterion_fixtures(scale: str = "small"):
    errs = {}

    tree, gen = fixture_reflected_binomial()
    sol = solve_given_generators(tree, gen)
    errs["reflected Y_0"] = abs(float(sol.y[0][0]) - 0.5)
    errs["reflected Z_0"] = abs(float(sol.z[0][0]) - 1.0)
    errs["reflected dK_0"] = abs(float(sol.dk[0][0]) - 0.5)

    tree, gen = fixture_jump_count()
    sol = solve_given_generators(tree, gen)
    errs["jump Y_0"] = abs(float(sol.y[0][0]) - 0.5)
    errs["jump U"] = abs(float(sol.u[0][0, 0]) - 1.0)
    errs["jump |U|^2"] = abs(norm_sq(tree, sol.u, WeightedNorm("p", 0.0)) - np.log(2.0))

    tree, gen, state = fixture_linear_fixed_point()
    cfg = select_contraction_parameters(state.lipschitz, beta=0.7, tol=1e-13)
    trace = picard_solve(tree, gen, state, cfg)
    errs["fixed point Y_0"] = abs(float(trace.solution.y[0][0]) - 1.0 / 0.9)

    worst = max(errs.values())
    name = max(errs, key=errs.get)
    return worst <= 1e-12, f"max fixture error = {worst:.3e} at '{name}' (tol 1e-12)"


# ---------------------------------------------------------------------------
# 10. A jump-only tree solves as the binomial tree with the same jumps.
# ---------------------------------------------------------------------------
def w_free_pair(rng, n_steps: int, labels, rate: float):
    """[(jump-only tree, spec), (binomial tree, spec)]: one problem on two trees, same grid and jumps.

    xi, h, f and g depend on the level, the time and the jump count N only, so
    the Brownian moves leave every process as on the jump-only tree, and Z = 0.
    """
    c_xi, n_xi, n_h = rng.uniform(-1.0, 1.0, size=3)
    base, slack = rng.uniform(-0.5, 0.8, size=n_steps + 1), float(rng.choice([0.0, 0.5, 2.0]))
    f_coef, g_coef = rng.uniform(-1.0, 1.0, size=(2, 3))
    pair = []
    for n_brownian in (1, 2):
        tree = make_tree(n_steps, 1.0, labels, rate=rate, n_brownian=n_brownian)
        xi = terminal_payoff(tree, const=c_xi, n=n_xi)
        h = linear_barrier(tree, base=base, n=n_h, leaf_slack=slack, xi=xi)
        f, g = (state_levels(tree, const=c, n=n, t=t) for c, n, t in (f_coef, g_coef))
        pair.append((tree, GeneratorSpec(xi=xi, h=h, f_levels=f, g_levels=g)))
    return pair


def filtration_gap(pair):
    """(max node-wise gap in Y, U, dK and K, max |Z| on the binomial tree) of a ``w_free_pair``.

    Nodes match by jump history.  Branches are Brownian-major, so a binomial
    branch's jump outcome is its index modulo the jump-only tree's branching.
    """
    (jump_tree, jump_gen), (tree, gen) = pair
    a, b = solve_given_generators(jump_tree, jump_gen), solve_given_generators(tree, gen)
    gap = 0.0
    match = np.zeros(1, dtype=np.int64)  # the jump-only node of each binomial node
    for k in range(tree.n_steps + 1):
        pairs = [(a.y, b.y), (a.k_cum, b.k_cum)] + ([(a.u, b.u), (a.dk, b.dk)] if k < tree.n_steps else [])
        gap = max([gap] + [float(np.max(np.abs(x[k][match] - y[k]))) for x, y in pairs])
        if k < tree.n_steps:
            b_k, jump_b_k = tree.branching(k), jump_tree.branching(k)
            match = np.repeat(match * jump_b_k, b_k) + np.tile(np.arange(b_k) % jump_b_k, len(match))
    return gap, max(float(np.max(np.abs(z))) for z in b.z)


@_timed("jump-only mode equivalence")
def criterion_mpp_only(scale: str = "small"):
    rng = np.random.default_rng(BASE_SEED + 10)
    worst_gap = worst_z = 0.0
    for _ in range(n := _count(scale, 20)):
        labels = ("e1", "e2")[: int(rng.integers(1, 3))]
        pair = w_free_pair(rng, int(rng.integers(1, 5)), labels, float(rng.uniform(0.3, 1.2)))
        gap, z_max = filtration_gap(pair)
        worst_gap, worst_z = max(worst_gap, gap), max(worst_z, z_max)
    return max(worst_gap, worst_z) <= 1e-12, (
        f"max node-wise gap jump-only vs binomial tree (Y, U, dK, K) = {worst_gap:.3e}, "
        f"max |Z| = {worst_z:.3e} over {n} instances (tol 1e-12)"
    )


ALL_CRITERIA = (
    criterion_oracle_equivalence,
    criterion_skorohod,
    criterion_route_equivalence,
    criterion_picard,
    criterion_epsilon_optimality,
    criterion_smallest_optimal,
    criterion_majorant,
    criterion_representation,
    criterion_fixtures,
    criterion_mpp_only,
)


def run_all(scale: str = "small") -> list:
    """Run every acceptance criterion; failures are reported, never raised."""
    if scale not in ("small", "full"):
        raise ValueError("scale must be 'small' or 'full'")
    return [fn(scale) for fn in ALL_CRITERIA]


def format_report(results) -> str:
    lines = [r.line for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
