"""Command-line entry point: config ingestion, orchestration, persistence.

Verbs: solve, picard, oracle, simulate, norms, verify.  Configuration is a
YAML file; results are a summary JSON record plus CSV node tables in the
output directory.  Exit codes: 0 all checks pass, 1 a check failed, 2 the
configuration is invalid.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import _kernels
from .errors import ConfigInvalid, EnumerationBudgetExceeded, RbsdeTreeError
from .instances import affine_generators, linear_barrier, terminal_payoff
from .lattice import DEFAULT_NODE_BUDGET, ScenarioTree, TimeGrid, build_tree
from .mpp import CompensatorSpec, MarkSet, counting_process, simulate_path
from .picard import picard_solve, select_contraction_parameters
from .rbsde import (
    GeneratorSpec,
    LipschitzConstants,
    a_priori_majorant,
    check_equation_residual,
    check_skorohod,
    solve_given_generators,
    solve_mpp_only,
    solve_via_snell,
)
from .snell import envelope_jump_support
from .stopping import (
    brute_force_value,
    epsilon_optimal_time,
    k_flatness_before_stop,
    reward_of_rule,
    smallest_optimal_time,
)
from .verify import format_report, run_all
from .wnorm import WeightedNorm, cauchy_weight_bound, norm_sq

MODES = ("given", "picard", "mpp-only")
FAMILIES = ("given", "affine", "clipped-affine")


@dataclass
class RunConfig:
    """Validated run configuration (mirrors the YAML layout)."""

    n_steps: int
    horizon: float
    mark_labels: tuple
    compensator: dict
    brownian: str  # "binomial" | "none"
    mode: str
    terminal: dict
    barrier: dict
    generator: dict
    beta: float = 1.0
    gamma: float = 0.0
    stopping: dict = field(default_factory=dict)
    picard: dict = field(default_factory=dict)
    simulate: dict = field(default_factory=dict)
    seed: int = 0
    out: Optional[str] = None

    def echo(self) -> dict:
        return {
            "grid": {"n_steps": self.n_steps, "horizon": self.horizon},
            "marks": list(self.mark_labels),
            "compensator": self.compensator,
            "brownian": self.brownian,
            "mode": self.mode,
            "terminal": self.terminal,
            "barrier": self.barrier,
            "generator": self.generator,
            "beta": self.beta,
            "gamma": self.gamma,
            "stopping": self.stopping,
            "picard": self.picard,
            "simulate": self.simulate,
            "seed": self.seed,
        }


def _require(raw: dict, key: str, kind=None, section: str = ""):
    """``raw[key]``; ConfigInvalid at ``section.key`` if missing or not a ``kind``."""
    path = f"{section}.{key}" if section else key
    if key not in raw:
        raise ConfigInvalid(path, "missing required field")
    val = raw[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigInvalid(path, f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _mapping(raw: dict, key: str, section: str = "") -> dict:
    """The optional mapping at ``key``: {} when absent or null."""
    return {} if raw.get(key) is None else dict(_require(raw, key, dict, section))


def _require_finite(node, path: str):
    """Raise ConfigInvalid at the dotted path of any non-finite number."""
    if isinstance(node, dict):
        for key, val in node.items():
            _require_finite(val, f"{path}.{key}" if path else str(key))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _require_finite(val, f"{path}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigInvalid(path, f"must be finite, got {node!r}")


def _number(value, path: str, kind=float):
    """``kind(value)``; ConfigInvalid at ``path`` if it fails or is not finite."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigInvalid(path, f"expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigInvalid(path, f"must be finite, got {value!r}")
    return out


def _numbers(values, path: str, length: Optional[int] = None) -> list:
    """A list of finite floats, ``length`` of them if given, each read by ``_number``."""
    if not isinstance(values, list) or length not in (None, len(values)):
        raise ConfigInvalid(path, f"need a list of {length or 'finite'} numbers")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(values)]


def _at_least(value, path: str, low, kind=float):
    """``_number(value, path, kind)``, which must be >= ``low``."""
    out = _number(value, path, kind)
    if out < low:
        raise ConfigInvalid(path, f"must be >= {low}, got {value!r}")
    return out


def parse_config(raw: dict) -> RunConfig:
    """Validate the parsed YAML mapping into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("<root>", "config must be a mapping")
    _require_finite(raw, "")
    grid = _require(raw, "grid", dict)
    n_steps = _number(_require(grid, "n_steps"), "grid.n_steps", int)
    horizon = _number(_require(grid, "horizon"), "grid.horizon")
    if n_steps < 1:
        raise ConfigInvalid("grid.n_steps", "must be >= 1")
    if horizon <= 0:
        raise ConfigInvalid("grid.horizon", "must be > 0")

    labels = tuple(str(x) for x in _require(raw, "marks", list))
    if not labels or len(set(labels)) != len(labels):
        raise ConfigInvalid("marks", "need at least one distinct label")

    comp = dict(_require(raw, "compensator", dict))
    ctype = comp.get("type", "linear")
    if ctype == "linear":
        if _number(comp.get("rate", -1.0), "compensator.rate") < 0:
            raise ConfigInvalid("compensator.rate", "linear compensator needs rate >= 0")
    elif ctype == "piecewise":
        for key in ("breakpoints", "values", "phi_rows"):
            _require(comp, key, list, "compensator")
    else:
        raise ConfigInvalid("compensator.type", f"unknown type {ctype!r}")

    brownian = raw.get("brownian", "binomial")
    if brownian not in ("binomial", "none"):
        raise ConfigInvalid("brownian", "must be 'binomial' or 'none'")
    mode = raw.get("mode", "given")
    if mode not in MODES:
        raise ConfigInvalid("mode", f"must be one of {MODES}")
    if mode == "mpp-only" and brownian != "none":
        raise ConfigInvalid("mode", "mpp-only requires brownian: none")

    gen = _mapping(raw, "generator")
    for key in ("f", "g"):
        _mapping(gen, key, "generator")
    family = gen.get("family", "given")
    if family not in FAMILIES:
        raise ConfigInvalid("generator.family", f"must be one of {FAMILIES}")
    if mode == "picard" and family == "given":
        raise ConfigInvalid(
            "generator.family", "picard mode needs an affine or clipped-affine family"
        )
    if family == "clipped-affine" and "clip" not in gen:
        raise ConfigInvalid("generator.clip", "clipped-affine family needs a clip bound")

    stopping = _mapping(raw, "stopping")
    for i, eps in enumerate(_numbers(stopping.get("epsilons", []), "stopping.epsilons")):
        _at_least(eps, f"stopping.epsilons[{i}]", 0.0)
    picard = _mapping(raw, "picard")
    _at_least(picard.get("max_iter", 40), "picard.max_iter", 1, int)
    if _number(picard.get("tol", 1e-9), "picard.tol") <= 0:
        raise ConfigInvalid("picard.tol", "must be > 0")
    simulate = _mapping(raw, "simulate")
    _at_least(simulate.get("n_paths", 10_000), "simulate.n_paths", 1, int)

    cfg = RunConfig(
        n_steps=n_steps,
        horizon=horizon,
        mark_labels=labels,
        compensator=comp,
        brownian=brownian,
        mode=mode,
        terminal=_mapping(raw, "terminal"),
        barrier=_mapping(raw, "barrier"),
        generator=gen,
        beta=_at_least(raw.get("beta", 1.0), "beta", 0.0),
        gamma=_at_least(raw.get("gamma", 0.0), "gamma", 0.0),
        stopping=stopping,
        picard=picard,
        simulate=simulate,
        seed=_at_least(raw.get("seed", 0), "seed", 0, int),
        out=raw.get("out"),
    )
    if cfg.mode == "picard":
        lip = _family_constants(cfg)
        minimal = lip.l_u**2 + 2 * lip.l_f
        if cfg.beta <= minimal:
            raise ConfigInvalid(
                "beta",
                f"picard mode needs beta > L_U^2 + 2 L_f = {minimal!r}, got {cfg.beta!r}",
            )
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigInvalid("--config", f"file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigInvalid("--config", f"not valid YAML: {exc}")
    return parse_config(raw)


def _compensator_spec(cfg: RunConfig) -> CompensatorSpec:
    """The configured compensator; ConfigInvalid at the field it rejects."""
    comp = cfg.compensator
    m = len(cfg.mark_labels)
    if comp.get("type", "linear") == "linear":
        phi = _numbers(comp.get("phi", [1.0 / m] * m), "compensator.phi", m)
        return _kernel_checked("compensator.phi", CompensatorSpec.linear,
                               _number(comp["rate"], "compensator.rate"), phi)
    bp = _numbers(comp["breakpoints"], "compensator.breakpoints")
    if len(bp) < 2 or bp[0] != 0.0 or any(b <= a for a, b in zip(bp, bp[1:])):
        raise ConfigInvalid("compensator.breakpoints", "need two or more times rising from 0")
    values = _numbers(comp["values"], "compensator.values", len(bp))
    if values[0] != 0.0 or any(b < a for a, b in zip(values, values[1:])):
        raise ConfigInvalid("compensator.values", "need A(0) = 0 and nondecreasing values")
    rows = comp["phi_rows"]
    if len(rows) != len(bp):
        raise ConfigInvalid("compensator.phi_rows", "need one kernel row per breakpoint")
    rows = [_numbers(row, f"compensator.phi_rows[{i}]", m) for i, row in enumerate(rows)]
    return _kernel_checked("compensator.phi_rows", CompensatorSpec.piecewise, bp, values, rows)


def _kernel_checked(path: str, build, *args) -> CompensatorSpec:
    """``build(*args)``; ConfigInvalid at ``path`` if it rejects a mark kernel."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigInvalid(path, str(exc)) from None


def build_problem(cfg: RunConfig):
    """Materialize (tree, generator spec) from a validated config.

    Every number is read, and ConfigInvalid raised at its field, before the
    tree is built.
    """
    comp = _compensator_spec(cfg)
    budget = _number(cfg.generator.get("budget", DEFAULT_NODE_BUDGET), "generator.budget", int)
    term = {k: _number(cfg.terminal.get(k, 0.0), f"terminal.{k}") for k in ("const", "w", "n", "wn")}
    bar = {k: _number(cfg.barrier.get(k, 0.0), f"barrier.{k}") for k in ("w", "n", "leaf_slack")}
    base = cfg.barrier.get("base", -1e6)
    bar["base"] = (
        _numbers(base, "barrier.base", cfg.n_steps + 1)
        if isinstance(base, list)
        else _number(base, "barrier.base")
    )
    gen = cfg.generator
    offsets = [
        {k: _number((gen.get(side) or {}).get(k, 0.0), f"generator.{side}.{k}")
         for k in ("const", "tanh_w", "n", "t")}
        for side in ("f", "g")
    ]
    family = gen.get("family", "given")
    affine = None if family == "given" else _affine_coefficients(cfg)
    if family == "clipped-affine":
        affine["clip"] = _number(gen["clip"], "generator.clip")
    tree = build_tree(
        TimeGrid.uniform(cfg.n_steps, cfg.horizon),
        MarkSet(cfg.mark_labels),
        comp,
        n_brownian=1 if cfg.brownian == "none" else 2,
        budget=budget,
    )
    xi = terminal_payoff(tree, **term)
    h = linear_barrier(tree, **bar, xi=xi)
    return tree, _build_generator(cfg, tree, xi, h, offsets, affine)


def _offset_levels(tree: ScenarioTree, c: dict):
    return [
        c["const"]
        + c["tanh_w"] * np.tanh(tree.w[k])
        + c["n"] * tree.n_jumps[k]
        + c["t"] * tree.grid.times[k]
        + np.zeros(tree.level_size(k))
        for k in range(tree.n_steps)
    ]


def _affine_coefficients(cfg: RunConfig) -> dict:
    """The affine family's fa, fb, fc, ga and gz, each read by ``_number``."""
    gen = cfg.generator
    m = len(cfg.mark_labels)
    coeffs = {key: _number(gen.get(key, 0.0), f"generator.{key}") for key in ("fa", "fb", "ga", "gz")}
    coeffs["fc"] = _numbers(gen.get("fc", [1.0] * m), "generator.fc", m)
    return coeffs


def _family_constants(cfg: RunConfig):
    c = _affine_coefficients(cfg)
    # The kernel norm needs a tree; a probability kernel makes it <= max|fc|,
    # and for the beta guard the conservative max|fc| is the right constant.
    return LipschitzConstants(
        l_f=abs(c["fa"]),
        l_u=abs(c["fb"]) * max(abs(x) for x in c["fc"]),
        l_g=abs(c["ga"]),
        l_z=abs(c["gz"]),
    )


def _build_generator(cfg: RunConfig, tree: ScenarioTree, xi, h, offsets, affine) -> GeneratorSpec:
    """The generator spec; ``affine`` is None for the given family."""
    f_off, g_off = (_offset_levels(tree, c) for c in offsets)
    if affine is None:
        g_levels = None if cfg.brownian == "none" else g_off
        return GeneratorSpec(xi=xi, h=h, f_levels=f_off, g_levels=g_levels)
    f_state, g_state, constants = affine_generators(
        **affine, f_offset=lambda t, k: f_off[k], g_offset=lambda t, k: g_off[k]
    )
    return GeneratorSpec(
        xi=xi,
        h=h,
        f_state=f_state,
        g_state=None if cfg.brownian == "none" else g_state,
        lipschitz=constants(tree),
    )


# ---------------------------------------------------------------------------
# Artifact persistence
# ---------------------------------------------------------------------------
def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_summary(out_dir: Path, summary: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "summary.json"
    path.write_text(
        json.dumps(summary, sort_keys=True, indent=2, default=_json_default) + "\n"
    )
    return path


CSV_CHUNK_ROWS = 1 << 14


def _float_text(values) -> list:
    """``repr(float(x))`` of every entry, calling ``repr`` once per distinct value.

    Entries are told apart by their bit pattern, so -0.0 and 0.0 keep their
    own text; a tree repeats its values, so there are few distinct ones.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def write_solution_csv(out_dir: Path, tree: ScenarioTree, gen: GeneratorSpec, sol):
    """One row per node, level by level; every float field is its exact repr.

    Rows are built column by column in chunks of ``CSV_CHUNK_ROWS`` and end
    in ``\\r\\n`` as ``csv.writer`` ends them; only the header, which holds
    the user's mark labels, goes through ``csv.writer`` for quoting.  All
    float columns of a chunk go through one ``_float_text`` call, because on
    small trees numpy's per-call cost outweighs the formatting.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "solution.csv"
    mark_cols = [f"u_{label}" for label in tree.marks.labels]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(
            ["level", "node", "t", "w", "n_jumps", "y", "h", "z", *mark_cols, "dk", "k_cum", "residual"]
        )
        for k in range(tree.n_steps + 1):
            t = repr(float(tree.grid.times[k]))
            interior = k < tree.n_steps
            n_k = tree.level_size(k)
            for lo in range(0, n_k, CSV_CHUNK_ROWS):
                rows = slice(lo, min(lo + CSV_CHUNK_ROWS, n_k))
                n = rows.stop - lo
                floats = [tree.w[k][rows], sol.y[k][rows], gen.h[k][rows]]
                if interior:
                    floats.append(np.zeros(n) if sol.z is None else sol.z[k][rows])
                    floats.extend(sol.u[k][rows].T)
                    floats.extend(x[k][rows] for x in (sol.dk, sol.k_cum, sol.residual))
                else:
                    floats.append(sol.k_cum[k][rows])
                text = _float_text(np.concatenate(floats))
                w, y, h, *rest = (text[j * n:(j + 1) * n] for j in range(len(floats)))
                cols = [
                    [str(k)] * n,
                    map(str, range(rows.start, rows.stop)),
                    [t] * n,
                    w,
                    map(str, tree.n_jumps[k][rows].tolist()),
                    y,
                    h,
                ]
                if interior:
                    cols.extend(rest)
                else:
                    empty = [""] * n
                    cols.extend([empty] * (len(mark_cols) + 2))
                    cols.extend([*rest, empty])
                fh.write("\r\n".join(map(",".join, zip(*cols))))
                fh.write("\r\n")
    return path


def write_trace_csv(out_dir: Path, distances):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "trace.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "distance"])
        for i, d in enumerate(distances):
            writer.writerow([i + 1, repr(float(d))])
    return path


# ---------------------------------------------------------------------------
# Checks shared by the solve-family verbs
# ---------------------------------------------------------------------------
def run_checks(tree, gen, sol, frozen: GeneratorSpec, beta: float) -> dict:
    """Every applicable invariant check with its verdict and diagnostics."""
    sk = check_skorohod(tree, sol, gen.h)
    eq = check_equation_residual(tree, sol, frozen)
    checks = {
        "minimal_push": {
            "passed": bool(sk.passed),
            "max_product": sk.max_product,
            "max_negative_dk": sk.max_negative_dk,
            "max_barrier_violation": sk.max_barrier_violation,
        },
        "equation_residual": {
            "passed": bool(eq.max_conditional_mean <= 1e-10
                           and eq.max_mismatch_vs_representation <= 1e-10),
            "max_conditional_mean": eq.max_conditional_mean,
            "max_mismatch_vs_representation": eq.max_mismatch_vs_representation,
        },
        "terminal_match": {
            "passed": bool(np.max(np.abs(sol.y[-1] - gen.xi)) <= 1e-12),
            "max_gap": float(np.max(np.abs(sol.y[-1] - gen.xi))),
        },
    }
    if frozen.is_given:
        y, dec = solve_via_snell(tree, frozen)
        gap = max(float(np.max(np.abs(sol.y[k] - y[k]))) for k in range(tree.n_steps + 1))
        from .rbsde import reward_process

        support = envelope_jump_support(tree, dec, reward_process(tree, frozen))
        checks["route_equivalence"] = {"passed": bool(gap <= 1e-10), "max_gap": gap}
        checks["push_only_on_contact"] = {
            "passed": not support,
            "violations": [list(v) for v in support[:10]],
        }
    if beta > 0:
        viols = a_priori_majorant(tree, frozen, sol, beta=beta)
        checks["a_priori_majorant"] = {
            "passed": not viols,
            "violations": [list(v) for v in viols[:10]],
        }
    return checks


def _certificate_record(tree, cert) -> dict:
    """The oracle's value, maximizing rule and size as written to summary.json."""
    return {
        "value": cert.value,
        "rule_nodes": [
            [k, int(i)] for k in range(tree.n_steps) for i in np.flatnonzero(cert.best_rule.stop[k])
        ],
        "n_interior": cert.n_interior,
        "epsilon": cert.epsilon,
    }


def run_stopping(tree, gen, sol, options: dict) -> dict:
    out = {}
    y0 = float(sol.y[0][0])
    for eps in options.get("epsilons", []):
        tol = float(eps)
        rule = epsilon_optimal_time(tree, sol, gen.h, tol)
        reward = reward_of_rule(tree, gen, rule)
        out[f"epsilon_{eps}"] = {
            "reward": reward,
            "gap": y0 - reward,
            "passed": bool(y0 <= reward + tol + 1e-12),
            "push_before_stop": k_flatness_before_stop(tree, sol, rule),
        }
    star = smallest_optimal_time(tree, sol, gen.h)
    reward = reward_of_rule(tree, gen, star)
    out["first_contact"] = {"reward": reward, "passed": bool(abs(y0 - reward) <= 1e-10)}
    if options.get("oracle", False):
        try:
            cert = brute_force_value(tree, gen, keep_table=False)
            out["oracle"] = {
                **_certificate_record(tree, cert),
                "gap": y0 - cert.value,
                "passed": bool(abs(y0 - cert.value) <= 1e-10),
            }
        except EnumerationBudgetExceeded as exc:
            out["oracle"] = {"skipped": str(exc)}
    return out


def norm_table(tree, sol, beta: float, gamma: float) -> dict:
    table = {
        "Y_A": float(norm_sq(tree, sol.y, WeightedNorm("A", beta, gamma))),
        "Y_W": float(norm_sq(tree, sol.y, WeightedNorm("W", beta, gamma))),
        "Y_A_plus_lambda": float(norm_sq(tree, sol.y, WeightedNorm("A-plus-lambda", beta, gamma))),
        "U_p": float(norm_sq(tree, sol.u, WeightedNorm("p", beta, gamma))),
    }
    if sol.z is not None:
        table["Z_W"] = float(norm_sq(tree, sol.z, WeightedNorm("W", beta, gamma)))
    return table


def _collect_verdicts(section, prefix, verdicts):
    for name, rec in section.items():
        if isinstance(rec, dict) and "passed" in rec:
            verdicts[f"{prefix}{name}"] = bool(rec["passed"])


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------
def _solve(cfg: RunConfig, tree: ScenarioTree, gen: GeneratorSpec):
    """Solve the configured problem in its mode.

    Returns (solution, the known-generator spec it exactly solves,
    contraction parameters, Picard trace); the last two are None outside
    picard mode.  In picard mode the final iterate exactly solves the
    generators frozen at the previous one, and the distance trace certifies
    the fixed-point gap.
    """
    if cfg.mode == "picard":
        contraction = select_contraction_parameters(
            gen.lipschitz,
            cfg.beta,
            max_iter=_number(cfg.picard.get("max_iter", 40), "picard.max_iter", int),
            tol=_number(cfg.picard.get("tol", 1e-9), "picard.tol"),
        )
        trace = picard_solve(tree, gen, contraction)
        return trace.solution, trace.frozen_spec, contraction, trace
    solve = solve_mpp_only if cfg.mode == "mpp-only" else solve_given_generators
    return solve(tree, gen), gen, None, None


def cmd_solve(cfg: RunConfig, out_dir: Path) -> int:
    tree, gen = build_problem(cfg)
    sol, frozen, contraction, trace = _solve(cfg, tree, gen)
    checks = run_checks(tree, gen, sol, frozen, cfg.beta)
    stopping = run_stopping(tree, frozen, sol, cfg.stopping)
    verdicts = {}
    summary = {
        "config": cfg.echo(),
        "mode": cfg.mode,
        "tree": tree.level_summary(),
        "y0": float(sol.y[0][0]),
    }
    if trace is not None:
        verdicts["picard.converged"] = bool(trace.converged)
        bound = contraction.alpha + 0.05
        late = [r for d, r in zip(trace.distances[1:], trace.ratios[1:]) if d > 1e-12]
        verdicts["picard.contraction_rate"] = all(r <= bound for r in late)
        summary["contraction"] = {
            "alpha": contraction.alpha,
            "beta": contraction.beta,
            "gamma": contraction.gamma,
            "rate_bound": bound,
            "iterations": len(trace.distances),
            "distances": [float(d) for d in trace.distances],
        }
    _collect_verdicts(checks, "check.", verdicts)
    _collect_verdicts(stopping, "stopping.", verdicts)
    summary.update(
        checks=checks,
        stopping=stopping,
        norms=norm_table(tree, sol, cfg.beta, cfg.gamma),
        verdicts=verdicts,
        all_passed=all(verdicts.values()),
    )
    write_summary(out_dir, summary)
    write_solution_csv(out_dir, tree, frozen, sol)
    passed = f"{sum(verdicts.values())}/{len(verdicts)} checks passed"
    if trace is None:
        print(f"Y_0 = {summary['y0']!r}; {passed}")
    else:
        write_trace_csv(out_dir, trace.distances)
        print(f"Y_0 = {summary['y0']!r} after {len(trace.distances)} iterations; {passed}")
    print(f"artifact written to {out_dir}")
    return 0 if summary["all_passed"] else 1


def cmd_picard(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.mode != "picard":
        raise ConfigInvalid("mode", "the picard verb needs mode: picard")
    return cmd_solve(cfg, out_dir)


def cmd_oracle(cfg: RunConfig, out_dir: Path) -> int:
    tree, gen = build_problem(cfg)
    if not gen.is_given:
        raise ConfigInvalid("mode", "the oracle verb needs a given-generator family")
    sol = _solve(cfg, tree, gen)[0]
    cert = brute_force_value(tree, gen, keep_table=False)
    y0 = float(sol.y[0][0])
    gap = abs(y0 - cert.value)
    summary = {
        "config": cfg.echo(),
        "y0": y0,
        "certificate": {**_certificate_record(tree, cert), "n_rules": 1 << cert.n_interior},
        "gap": gap,
        "all_passed": bool(gap <= 1e-10),
    }
    write_summary(out_dir, summary)
    print(f"Y_0 = {y0!r}, oracle = {cert.value!r}, gap = {gap:.3e}")
    return 0 if summary["all_passed"] else 1


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    marks = MarkSet(cfg.mark_labels)
    grid = TimeGrid.uniform(cfg.n_steps, cfg.horizon)
    spec = _compensator_spec(cfg)
    n_paths = _number(cfg.simulate.get("n_paths", 10_000), "simulate.n_paths", int)
    da = spec.increments(grid.times)
    p_event = -np.expm1(-da)
    counts = _kernels.simulate_event_counts(p_event, n_paths, cfg.seed)

    # Per-step Bernoulli mean is p_event; its sum is the expected total count.
    expected = float(p_event.sum())
    std = float(np.sqrt(np.sum(p_event * (1 - p_event)) / n_paths))
    mean = float(counts.mean())
    within = abs(mean - expected) <= 3 * std + 1e-12

    sample = simulate_path(spec, marks, grid, cfg.seed)
    summary = {
        "config": cfg.echo(),
        "n_paths": n_paths,
        "backend": "numpy",
        "mean_count": mean,
        "expected_count": expected,
        "three_sigma": 3 * std,
        "within_three_sigma": bool(within),
        "sample_path": {
            "events": [[t, label] for t, label in sample.events],
            "counting": counting_process(sample, grid).tolist(),
        },
        "all_passed": bool(within),
    }
    write_summary(out_dir, summary)
    print(
        f"mean count {mean:.4f} vs expected {expected:.4f} "
        f"(3-sigma {3 * std:.4f}) over {n_paths} paths"
    )
    return 0 if within else 1


def cmd_norms(cfg: RunConfig, out_dir: Path) -> int:
    tree, gen = build_problem(cfg)
    sol, frozen, _, _ = _solve(cfg, tree, gen)
    table = norm_table(tree, sol, cfg.beta, cfg.gamma)
    # In picard mode ``gen`` is state-dependent and its given levels are zero;
    # the frozen spec carries the f that the final iterate solves with.
    f_levels, _ = frozen.given_levels(tree)
    bound = None
    if cfg.beta > 0:
        lhs, rhs = cauchy_weight_bound(tree, f_levels, cfg.beta)
        bound = {"lhs": lhs, "rhs": rhs, "passed": bool(lhs <= rhs + 1e-12)}
    summary = {
        "config": cfg.echo(),
        "norms": table,
        "cauchy_weight_bound": bound,
        "all_passed": bound is None or bound["passed"],
    }
    write_summary(out_dir, summary)
    for name, value in table.items():
        print(f"{name} = {value!r}")
    return 0 if summary["all_passed"] else 1


def cmd_verify(scale: str, out_dir: Optional[Path]) -> int:
    results = run_all(scale)
    report = format_report(results)
    print(report)
    if out_dir is not None:
        summary = {
            "scale": scale,
            "criteria": [
                {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": r.seconds}
                for r in results
            ],
            "all_passed": all(r.passed for r in results),
        }
        write_summary(out_dir, summary)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbsde-tree",
        description="Reflected backward solver and verification harness on scenario trees",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("solve", "picard", "oracle", "simulate", "norms"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
    v = sub.add_parser("verify")
    v.add_argument("--scale", choices=("small", "full"), default="small")
    v.add_argument("--out", default=None, help="optional report directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "verify":
            return cmd_verify(args.scale, Path(args.out) if args.out else None)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = _at_least(args.seed, "--seed", 0, int)
        out_dir = Path(args.out or cfg.out or "out")
        handler = {
            "solve": cmd_solve,
            "picard": cmd_picard,
            "oracle": cmd_oracle,
            "simulate": cmd_simulate,
            "norms": cmd_norms,
        }[args.verb]
        return handler(cfg, out_dir)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RbsdeTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
