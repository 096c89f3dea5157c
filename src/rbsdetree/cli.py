"""Command-line entry point: config ingestion, orchestration, persistence.

Verbs: solve, oracle, simulate, norms, verify.  ``solve`` runs the configured
mode (given, picard, or mpp-only: the given mode on a jump-only tree, with no
Z) through the one reflected solver.  Configuration is a YAML file; results
are a summary JSON record plus CSV node tables in the output directory.  Exit
codes: 0 all checks pass, 1 a check failed, 2 the configuration is invalid:
a field is malformed or unknown, the problem data, the norm weights or a
weighted norm overflow, or the output directory cannot be written.  A
solve's checks read the one known-generator spec that its solution solves
(in picard mode, the generators frozen at the last iterate), and its
stopping checks the one stopped reward that the envelope route built from
that spec.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import yaml

from . import _kernels
from .errors import BudgetExceeded, ConfigInvalid, EnumerationBudgetExceeded, RbsdeTreeError
from .instances import affine_generators, linear_barrier, state_levels, terminal_payoff
from .lattice import DEFAULT_NODE_BUDGET, ScenarioTree, TimeGrid, build_tree
from .mpp import CompensatorSpec, MarkSet, counting_process, simulate_path
from .picard import ContractionConfig, PicardTrace, picard_solve, select_contraction_parameters
from .rbsde import (
    BARRIER_TOL,
    GeneratorSpec,
    RbsdeSolution,
    a_priori_majorant,
    check_equation_residual,
    check_skorohod,
    reward_process,
    solve_given_generators,
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

# Not called here: one solver serves both filtrations, and perfbench/tracer.py wraps this name.
from .rbsde import solve_given_generators as solve_mpp_only  # noqa: F401

MODES = ("given", "picard", "mpp-only")
FAMILIES = ("given", "affine", "clipped-affine")
#: The keys that ``parse_config`` reads from each mapping; any other key is an error.
ROOT_KEYS = ("grid", "marks", "compensator", "brownian", "mode", "generator", "terminal", "barrier",
             "stopping", "picard", "simulate", "beta", "gamma", "seed", "out")
TERMINAL_KEYS = ("const", "w", "n", "wn")
OFFSET_KEYS = ("const", "tanh_w", "n", "t")  # generator.f and generator.g
AFFINE_KEYS = ("fa", "fb", "ga", "gz")  # and fc, and clip for clipped-affine
FAMILY_KEYS = {"given": (), "affine": (*AFFINE_KEYS, "fc"), "clipped-affine": (*AFFINE_KEYS, "fc", "clip")}


@dataclass(frozen=True)
class RunConfig:
    """A validated run configuration: every number read, checked and typed once.

    ``sections`` keeps the raw YAML mappings that ``echo`` writes back into
    the ``config`` block of summary.json (compensator, terminal, barrier,
    generator, stopping, picard, simulate); nothing else reads them.  The
    compensator spec holds closures, so equality compares its section.
    """

    n_steps: int
    horizon: float
    mark_labels: tuple
    compensator: CompensatorSpec = field(compare=False)
    brownian: str  # "binomial" | "none"
    mode: str
    terminal: dict  # terminal_payoff keywords
    barrier: dict  # linear_barrier keywords
    offsets: tuple  # f and g offset coefficients
    affine: Optional[dict]  # affine_generators coefficients; None for the given family
    budget: int
    beta: float
    gamma: float
    epsilons: tuple  # (tolerance, label) pairs; the label is the YAML value's text
    oracle: bool
    max_iter: int
    tol: float
    n_paths: int
    seed: int
    out: Optional[str]
    sections: dict

    def echo(self) -> dict:
        return {
            "grid": {"n_steps": self.n_steps, "horizon": self.horizon},
            "marks": list(self.mark_labels),
            "brownian": self.brownian,
            "mode": self.mode,
            "beta": self.beta,
            "gamma": self.gamma,
            "seed": self.seed,
            **self.sections,
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


def _known(raw: dict, keys, section: str = "") -> dict:
    """``raw``; ConfigInvalid at ``section.key`` for the first key outside ``keys``."""
    for key in raw:
        if key not in keys:
            path = f"{section}.{key}" if section else str(key)
            raise ConfigInvalid(path, f"unknown key; expected one of {', '.join(keys)}")
    return raw


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


def _number(value, path: str, kind=float, low=None):
    """``value`` as a finite ``kind`` (float or int), at least ``low`` if given.

    ConfigInvalid at ``path`` for a bool, for anything ``float()`` rejects
    (numeric strings such as ``1e-9``, which YAML 1.1 reads as text, pass),
    for a non-finite value and, when ``kind`` is int, for a fractional one.
    """
    if isinstance(value, bool):
        raise ConfigInvalid(path, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigInvalid(path, f"expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigInvalid(path, f"must be finite, got {value!r}")
    if kind is int:
        if not out.is_integer():
            raise ConfigInvalid(path, f"expected an integer, got {value!r}")
        out = value if isinstance(value, int) else int(out)
    if low is not None and out < low:
        raise ConfigInvalid(path, f"must be >= {low}, got {value!r}")
    return out


def _numbers(values, path: str, length: Optional[int] = None, low=None) -> list:
    """A list of finite floats, ``length`` of them if given, each read by ``_number``."""
    if not isinstance(values, list) or length not in (None, len(values)):
        raise ConfigInvalid(path, f"need a list of {length or 'finite'} numbers")
    return [_number(x, f"{path}[{i}]", low=low) for i, x in enumerate(values)]


def parse_config(raw: dict) -> RunConfig:
    """Read and check every field of the parsed YAML mapping into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("<root>", "config must be a mapping")
    _known(raw, ROOT_KEYS)
    _require_finite(raw, "")
    grid = _known(_require(raw, "grid", dict), ("n_steps", "horizon"), "grid")
    n_steps = _number(_require(grid, "n_steps"), "grid.n_steps", int)
    horizon = _number(_require(grid, "horizon"), "grid.horizon")
    if n_steps < 1:
        raise ConfigInvalid("grid.n_steps", "must be >= 1")
    if horizon <= 0:
        raise ConfigInvalid("grid.horizon", "must be > 0")

    labels = tuple(str(x) for x in _require(raw, "marks", list))
    if not labels or len(set(labels)) != len(labels):
        raise ConfigInvalid("marks", "need at least one distinct label")
    m = len(labels)
    comp = dict(_require(raw, "compensator", dict))

    brownian = raw.get("brownian", "binomial")
    if brownian not in ("binomial", "none"):
        raise ConfigInvalid("brownian", "must be 'binomial' or 'none'")
    mode = raw.get("mode", "given")
    if mode not in MODES:
        raise ConfigInvalid("mode", f"must be one of {MODES}")
    if mode == "mpp-only" and brownian != "none":
        raise ConfigInvalid("mode", "mpp-only requires brownian: none")

    gen = _mapping(raw, "generator")
    sides = [_known(_mapping(gen, side, "generator"), OFFSET_KEYS, f"generator.{side}") for side in "fg"]
    family = gen.get("family", "given")
    if family not in FAMILIES:
        raise ConfigInvalid("generator.family", f"must be one of {FAMILIES}")
    affine = None
    if family != "given":
        affine = {k: _number(gen.get(k, 0.0), f"generator.{k}") for k in AFFINE_KEYS}
        affine["fc"] = _numbers(gen.get("fc", [1.0] * m), "generator.fc", m)
    if family == "clipped-affine":
        if "clip" not in gen:
            raise ConfigInvalid("generator.clip", "clipped-affine family needs a clip bound")
        affine["clip"] = _number(gen["clip"], "generator.clip")
    # Only the fixed-point solver reads a state-dependent family.
    if (mode == "picard") != (family != "given"):
        need = "an affine or clipped-affine" if mode == "picard" else "the given"
        raise ConfigInvalid("generator.family", f"{mode} mode needs {need} family")
    _known(gen, ("family", "f", "g", "budget", *FAMILY_KEYS[family]), "generator")

    terminal = _known(_mapping(raw, "terminal"), TERMINAL_KEYS, "terminal")
    barrier = _known(_mapping(raw, "barrier"), ("w", "n", "leaf_slack", "base"), "barrier")
    base = barrier.get("base", -1e6)
    stopping = _known(_mapping(raw, "stopping"), ("epsilons", "oracle"), "stopping")
    eps = stopping.get("epsilons", [])
    picard = _known(_mapping(raw, "picard"), ("max_iter", "tol"), "picard")
    simulate = _known(_mapping(raw, "simulate"), ("n_paths",), "simulate")
    cfg = RunConfig(
        n_steps=n_steps,
        horizon=horizon,
        mark_labels=labels,
        compensator=_compensator_spec(comp, m),
        brownian=brownian,
        mode=mode,
        terminal={k: _number(terminal.get(k, 0.0), f"terminal.{k}") for k in TERMINAL_KEYS},
        barrier={
            **{k: _number(barrier.get(k, 0.0), f"barrier.{k}") for k in ("w", "n", "leaf_slack")},
            "base": _numbers(base, "barrier.base", n_steps + 1)
            if isinstance(base, list)
            else _number(base, "barrier.base"),
        },
        offsets=tuple(
            {k: _number(side.get(k, 0.0), f"generator.{name}.{k}") for k in OFFSET_KEYS}
            for name, side in zip("fg", sides)
        ),
        affine=affine,
        budget=_number(gen.get("budget", DEFAULT_NODE_BUDGET), "generator.budget", int),
        beta=_number(raw.get("beta", 1.0), "beta", low=0.0),
        gamma=_number(raw.get("gamma", 0.0), "gamma", low=0.0),
        epsilons=tuple(zip(_numbers(eps, "stopping.epsilons", low=0.0), map(str, eps))),
        oracle="oracle" in stopping and _require(stopping, "oracle", bool, "stopping"),
        max_iter=_number(picard.get("max_iter", 40), "picard.max_iter", int, low=1),
        tol=_number(picard.get("tol", 1e-9), "picard.tol"),
        n_paths=_number(simulate.get("n_paths", 10_000), "simulate.n_paths", int, low=1),
        seed=_number(raw.get("seed", 0), "seed", int, low=0),
        out=None if raw.get("out") is None else _require(raw, "out", str),
        sections=dict(compensator=comp, terminal=terminal, barrier=barrier, generator=gen,
                      stopping=stopping, picard=picard, simulate=simulate),
    )
    if cfg.tol <= 0:
        raise ConfigInvalid("picard.tol", "must be > 0")
    if mode == "picard":
        # The kernel norm needs a tree; a probability kernel makes it <= max|fc|,
        # and for the beta guard the conservative max|fc| is the right constant.
        l_u = abs(affine["fb"]) * max(abs(x) for x in affine["fc"])
        minimal = l_u**2 + 2 * abs(affine["fa"])
        if cfg.beta <= minimal:
            raise ConfigInvalid(
                "beta",
                f"picard mode needs beta > L_U^2 + 2 L_f = {minimal!r}, got {cfg.beta!r}",
            )
    return cfg


#: libyaml's loader where PyYAML was built with it.  Both loaders share the
#: SafeConstructor and the resolver, so they build the same mapping.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path) -> RunConfig:
    # Bytes, so that the YAML reader decodes them and reports bad encoding.
    try:
        with open(path, "rb") as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except FileNotFoundError:
        raise ConfigInvalid("--config", f"file not found: {path}")
    except OSError as exc:
        raise ConfigInvalid("--config", f"cannot read {path}: {exc.strerror}")
    except yaml.YAMLError as exc:
        raise ConfigInvalid("--config", f"not valid YAML: {exc}")
    return parse_config(raw)


def _compensator_spec(comp: dict, m: int) -> CompensatorSpec:
    """The compensator of ``comp`` over ``m`` marks; ConfigInvalid at the field it rejects."""
    ctype = comp.get("type", "linear")
    if ctype == "linear":
        _known(comp, ("type", "rate", "phi"), "compensator")
        rate = _number(comp.get("rate", -1.0), "compensator.rate")
        if rate < 0:
            raise ConfigInvalid("compensator.rate", "linear compensator needs rate >= 0")
        phi = _numbers(comp.get("phi", [1.0 / m] * m), "compensator.phi", m)
        return _kernel_checked("compensator.phi", CompensatorSpec.linear, rate, phi)
    if ctype != "piecewise":
        raise ConfigInvalid("compensator.type", f"unknown type {ctype!r}")
    _known(comp, ("type", "breakpoints", "values", "phi_rows"), "compensator")
    bp, values, rows = (
        _require(comp, key, list, "compensator") for key in ("breakpoints", "values", "phi_rows")
    )
    bp = _numbers(bp, "compensator.breakpoints")
    if len(bp) < 2 or bp[0] != 0.0 or any(b <= a for a, b in zip(bp, bp[1:])):
        raise ConfigInvalid("compensator.breakpoints", "need two or more times rising from 0")
    values = _numbers(values, "compensator.values", len(bp))
    if values[0] != 0.0 or any(b < a for a, b in zip(values, values[1:])):
        raise ConfigInvalid("compensator.values", "need A(0) = 0 and nondecreasing values")
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


def _weight_field(tree: ScenarioTree, beta: float, gamma: float) -> str:
    """The field a weight overflow names: ``gamma`` if gamma T outweighs beta A_T, else ``beta``."""
    return "gamma" if gamma * float(tree.grid.times[-1]) > beta * float(tree.a_levels[-1]) else "beta"


def build_problem(cfg: RunConfig):
    """Materialize (tree, generator spec) from a validated config.

    ConfigInvalid names the field whose node values are not finite (payoff,
    barrier, an f or g offset), a barrier above the payoff at a leaf, and
    weights e^{beta A_T + gamma T} that overflow.
    """
    try:
        tree = build_tree(
            TimeGrid.uniform(cfg.n_steps, cfg.horizon),
            MarkSet(cfg.mark_labels),
            cfg.compensator,
            n_brownian=1 if cfg.brownian == "none" else 2,
            budget=cfg.budget,
        )
    except BudgetExceeded as exc:
        raise ConfigInvalid("generator.budget", str(exc)) from None
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are named below
        xi = terminal_payoff(tree, **cfg.terminal)
        h = linear_barrier(tree, **cfg.barrier, xi=xi)
        f_off, g_off = [state_levels(tree, **c) for c in cfg.offsets]
        terms = float(cfg.beta * tree.a_levels[-1]), float(cfg.gamma * tree.grid.times[-1])
        weight = np.exp(terms[0] + terms[1])
    for path, levels in ("terminal", [xi]), ("barrier", h), ("generator.f", f_off), ("generator.g", g_off):
        if not all(np.all(np.isfinite(level)) for level in levels):
            raise ConfigInvalid(path, "has a non-finite value at a node")
    gap = float(np.max(h[-1] - xi))
    if gap > BARRIER_TOL:
        raise ConfigInvalid("barrier.leaf_slack", f"the barrier exceeds the payoff at a leaf by {gap:.3e}")
    if not np.isfinite(weight):
        raise ConfigInvalid(
            _weight_field(tree, cfg.beta, cfg.gamma),
            f"the norm weight e^(beta A_T + gamma T) = e^({terms[0]!r} + {terms[1]!r}) overflows",
        )
    if cfg.affine is None:
        g_levels = None if cfg.brownian == "none" else g_off
        return tree, GeneratorSpec(xi=xi, h=h, f_levels=f_off, g_levels=g_levels)
    f_state, g_state, constants = affine_generators(
        **cfg.affine, f_offset=lambda t, k: f_off[k], g_offset=lambda t, k: g_off[k]
    )
    g_state = None if cfg.brownian == "none" else g_state
    return tree, GeneratorSpec(xi=xi, h=h, f_state=f_state, g_state=g_state, lipschitz=constants(tree))


# ---------------------------------------------------------------------------
# Artifact persistence
# ---------------------------------------------------------------------------
def write_summary(out_dir: Path, summary: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "summary.json"
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return path


CSV_CHUNK_ROWS = 1 << 14
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)  # odd; 2^64 over the golden ratio


def _float_text(values) -> list:
    """``repr(float(x))`` of every entry, calling ``repr`` once per distinct value.

    Entries are told apart by their bit pattern, so -0.0 and 0.0 keep their
    own text; a tree repeats its values, so there are few distinct ones.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _row_hash(bits: np.ndarray) -> np.ndarray:
    """A 64-bit multiplicative hash of each column of a (fields, rows) uint64 array."""
    h = np.zeros(bits.shape[1], dtype=np.uint64)
    for field_bits in bits:
        h ^= field_bits
        h *= _HASH_MULT
        h ^= h >> np.uint64(29)
    return h


_DIGITS = [str(r) for r in range(1000)]  # node index text below 1000
_PADDED = [f"{r:03d}" for r in range(1000)]  # last three digits after a "k,q" head


def _csv_rows(tree: ScenarioTree, gen: GeneratorSpec, sol, batch, memo: dict) -> str:
    """The text of one batch of rows; ``memo`` maps a row's key bytes to its tail.

    A row's key is the bit pattern of its fields (level, t, w, n_jumps, y, h,
    z, u..., dk, k_cum, residual; zero where a leaf row is empty), which fix
    all of its text but the node index.  Rows are grouped by a hash of their
    key and every row is checked against its group's representative, any
    member of the group; if any differs, every row of the batch counts as
    distinct.  Only keys missing from ``memo`` are formatted.
    """
    m = tree.n_marks
    keys = np.zeros((10 + m, sum(hi - lo for _, lo, hi in batch)))
    heads, nodes = [], []
    for k, lo, hi in batch:
        rows, cols = slice(lo, hi), slice(len(nodes), len(nodes) + hi - lo)
        keys[:2, cols] = [[k], [tree.grid.times[k]]]
        keys[2:6, cols] = tree.w[k][rows], tree.n_jumps[k][rows], sol.y[k][rows], gen.h[k][rows]
        if k < tree.n_steps:
            if sol.z is not None:
                keys[6, cols] = sol.z[k][rows]
            keys[7:7 + m, cols] = sol.u[k][rows].T
            keys[7 + m:, cols] = sol.dk[k][rows], sol.k_cum[k][rows], sol.residual[k][rows]
        else:
            keys[8 + m, cols] = sol.k_cum[k][rows]
        for q in range(lo // 1000, (hi - 1) // 1000 + 1):
            a, b = max(lo - 1000 * q, 0), min(hi - 1000 * q, 1000)
            heads += [f"{k},{q}" if q else f"{k},"] * (b - a)
            nodes += (_PADDED if q else _DIGITS)[a:b]
    bits = keys.view(np.uint64)
    h = _row_hash(bits)
    order = h.argsort()
    starts = np.concatenate(([True], h[order[1:]] != h[order[:-1]]))
    first, inverse = order[starts], np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    if not (bits.take(first[inverse], axis=1) == bits).all():
        first = inverse = np.arange(len(nodes))
    distinct = keys[:, first]
    names = np.ascontiguousarray(distinct.T).view(f"V{keys.itemsize * len(keys)}").ravel().tolist()
    fresh = [j for j, name in enumerate(names) if name not in memo]
    new = distinct[:, fresh]
    # t, w, y, h, z, u..., dk, k_cum, residual; a leaf row leaves all but k_cum empty.
    text = np.array(_float_text(np.delete(new, (0, 3), axis=0).ravel()), dtype=object)
    text = text.reshape(8 + m, len(fresh))
    text[np.ix_([*range(4, 6 + m), 7 + m], np.flatnonzero(new[0] == tree.n_steps))] = ""
    jumps = map(str, new[3].astype(np.int64).tolist())
    fields = zip(text[0], text[1], jumps, *text[2:])
    memo.update(zip([names[j] for j in fresh], [f",{','.join(row)}\r\n" for row in fields]))
    tails = np.array([memo[name] for name in names], dtype=object)
    out = [None] * (3 * len(nodes))
    out[0::3], out[1::3], out[2::3] = heads, nodes, tails[inverse].tolist()
    return "".join(out)


def write_solution_csv(out_dir: Path, tree: ScenarioTree, gen: GeneratorSpec, sol):
    """One row per node, level by level; every float field is its exact repr.

    Rows go out in batches of up to ``CSV_CHUNK_ROWS`` that may span levels,
    so a small tree is one batch.  Apart from its node index, a row's text
    is fixed by its fields' bits, and a tree repeats its rows (the 7-step
    ``picard_affine`` tree has under 600 distinct ones among 335,923).  Each
    row joins three existing strings: a head (``"k,"``, or ``"k,q"`` for
    nodes 1000q to 1000q + 999) shared by a thousand rows, the last digits
    from a fixed table, and a tail formatted once per file (a dict keyed by
    the row's bits).  Rows are grouped by numpy's default sort of a row
    hash; any member may stand for its group, as every row is checked bit
    for bit against it.
    Rows end in ``\\r\\n`` as ``csv.writer`` ends them; only the header, which
    holds the user's mark labels, goes through ``csv.writer`` for quoting.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "solution.csv"
    mark_cols = [f"u_{label}" for label in tree.marks.labels]
    sizes = [tree.level_size(k) for k in range(tree.n_steps + 1)]
    starts = np.cumsum([0, *sizes]).tolist()
    memo = {}
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(
            ["level", "node", "t", "w", "n_jumps", "y", "h", "z", *mark_cols, "dk", "k_cum", "residual"]
        )
        for lo in range(0, starts[-1], CSV_CHUNK_ROWS):
            hi = lo + CSV_CHUNK_ROWS
            # (level, first node, end node) of each level the batch of rows [lo, hi) meets.
            batch = [(k, max(lo - s, 0), min(hi - s, n))
                     for k, (s, n) in enumerate(zip(starts, sizes)) if s < hi and s + n > lo]
            fh.write(_csv_rows(tree, gen, sol, batch, memo))
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
def run_checks(tree, sol, spec: GeneratorSpec, beta: float):
    """Every applicable check of ``sol``, which solves ``spec``, and the envelope route's stopped reward."""
    sk = check_skorohod(tree, sol, spec.h)
    eq = check_equation_residual(tree, sol, spec)
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
    }
    y, dec, eta = solve_via_snell(tree, spec)
    gap = max(float(np.max(np.abs(sol.y[k] - y[k]))) for k in range(tree.n_steps + 1))
    support = envelope_jump_support(tree, dec, eta)
    del y, dec  # the route's Y, envelope and push, freed before the majorant builds its own
    checks["route_equivalence"] = {"passed": bool(gap <= 1e-10), "max_gap": gap}
    checks["push_only_on_contact"] = {
        "passed": not support,
        "violations": [list(v) for v in support[:10]],
    }
    if beta > 0:
        viols = a_priori_majorant(tree, spec, sol, beta=beta)
        checks["a_priori_majorant"] = {
            "passed": not viols,
            "violations": [list(v) for v in viols[:10]],
        }
    return checks, eta


def _certificate_record(tree, cert) -> dict:
    """The oracle's value, maximizing rule and size as written to summary.json."""
    return {
        "value": cert.value,
        "rule_nodes": [
            [k, int(i)] for k in range(tree.n_steps) for i in np.flatnonzero(cert.best_rule.stop[k])
        ],
        "n_interior": cert.n_interior,
    }


def run_stopping(tree, spec: GeneratorSpec, sol, eta, epsilons, oracle: bool) -> dict:
    """Stopping-rule checks: each (tolerance, label) in ``epsilons``, first contact, the oracle.

    Every rule is valued on ``eta``, the one stopped reward of ``spec``, the problem ``sol`` solves.
    """
    out = {}
    y0 = float(sol.y[0][0])
    for tol, label in epsilons:
        rule = epsilon_optimal_time(tree, sol, spec.h, tol)
        reward = reward_of_rule(tree, eta, rule)
        push = k_flatness_before_stop(tree, sol, rule)
        out[f"epsilon_{label}"] = {
            "reward": reward,
            "gap": y0 - reward,
            "passed": bool(y0 <= reward + tol + 1e-12 and push <= 1e-12),
            "push_before_stop": push,
        }
    star = smallest_optimal_time(tree, sol, spec.h)
    reward = reward_of_rule(tree, eta, star)
    out["first_contact"] = {"reward": reward, "passed": bool(abs(y0 - reward) <= 1e-10)}
    if oracle:
        try:
            cert = brute_force_value(tree, eta, keep_table=False)
            out["oracle"] = {
                **_certificate_record(tree, cert),
                "gap": y0 - cert.value,
                "passed": bool(abs(y0 - cert.value) <= 1e-10),
            }
        except EnumerationBudgetExceeded as exc:
            out["oracle"] = {"skipped": str(exc)}
    return out


def norm_table(tree, sol, beta: float, gamma: float) -> dict:
    """Squared weighted norms of Y (compensator clock, Lebesgue clock and both), U and Z.

    ConfigInvalid names ``beta`` or ``gamma`` (as ``build_problem`` does for
    the weight) and the norm's key if a norm overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is named below
        y_a, y_w = (norm_sq(tree, sol.y, WeightedNorm(kind, beta, gamma)) for kind in "AW")
        table = {"Y_A": y_a, "Y_W": y_w, "Y_A_plus_lambda": y_a + y_w,
                 "U_p": norm_sq(tree, sol.u, WeightedNorm("p", beta, gamma))}
        if sol.z is not None:
            table["Z_W"] = norm_sq(tree, sol.z, WeightedNorm("W", beta, gamma))
    for key, value in table.items():
        if not math.isfinite(value):
            raise ConfigInvalid(_weight_field(tree, beta, gamma), f"the weighted norm {key} overflows")
    return table


def _collect_verdicts(section, prefix, verdicts):
    for name, rec in section.items():
        if isinstance(rec, dict) and "passed" in rec:
            verdicts[f"{prefix}{name}"] = bool(rec["passed"])


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------
class Solved(NamedTuple):
    """A configured problem, solved in its mode.

    ``spec`` is the known-generator spec that ``sol`` exactly solves: the
    configured one outside picard mode, where ``contraction`` and ``trace``
    are None.  In picard mode it holds the generators frozen at the previous
    iterate, and the distance trace certifies the fixed-point gap.  Its xi
    and h are the configured arrays in every mode.
    """

    tree: ScenarioTree
    sol: RbsdeSolution
    spec: GeneratorSpec
    contraction: Optional[ContractionConfig]
    trace: Optional[PicardTrace]


def _solve(cfg: RunConfig) -> Solved:
    """Build the configured problem and solve it in its mode."""
    tree, gen = build_problem(cfg)
    if cfg.mode == "picard":
        contraction = select_contraction_parameters(
            gen.lipschitz, cfg.beta, max_iter=cfg.max_iter, tol=cfg.tol
        )
        trace = picard_solve(tree, gen, contraction)
        return Solved(tree, trace.solution, trace.frozen_spec, contraction, trace)
    return Solved(tree, solve_given_generators(tree, gen), gen, None, None)


def _finish(out_dir: Path, summary: dict, *lines: str) -> int:
    """Write ``summary`` (after every other artifact), print ``lines``; 0 iff all checks passed."""
    write_summary(out_dir, summary)
    for line in lines:
        print(line)
    return 0 if summary["all_passed"] else 1


def cmd_solve(cfg: RunConfig, out_dir: Path) -> int:
    tree, sol, spec, contraction, trace = _solve(cfg)
    checks, eta = run_checks(tree, sol, spec, cfg.beta)
    stopping = run_stopping(tree, spec, sol, eta, cfg.epsilons, cfg.oracle)
    verdicts = {}
    summary = {
        "config": cfg.echo(),
        "mode": cfg.mode,
        "tree": tree.level_summary(),
        "y0": float(sol.y[0][0]),
    }
    if trace is not None:
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
    write_solution_csv(out_dir, tree, spec, sol)
    if trace is not None:
        write_trace_csv(out_dir, trace.distances)
    after = "" if trace is None else f" after {len(trace.distances)} iterations"
    line = f"Y_0 = {summary['y0']!r}{after}; {sum(verdicts.values())}/{len(verdicts)} checks passed"
    return _finish(out_dir, summary, line, f"artifact written to {out_dir}")


def cmd_oracle(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.affine is not None:
        raise ConfigInvalid("mode", "the oracle verb needs a given-generator family")
    tree, sol, spec = _solve(cfg)[:3]
    cert = brute_force_value(tree, reward_process(tree, spec), keep_table=False)
    y0 = float(sol.y[0][0])
    gap = abs(y0 - cert.value)
    summary = {
        "config": cfg.echo(),
        "y0": y0,
        "certificate": {**_certificate_record(tree, cert), "n_rules": 1 << cert.n_interior},
        "gap": gap,
        "all_passed": bool(gap <= 1e-10),
    }
    return _finish(out_dir, summary, f"Y_0 = {y0!r}, oracle = {cert.value!r}, gap = {gap:.3e}")


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    marks = MarkSet(cfg.mark_labels)
    grid = TimeGrid.uniform(cfg.n_steps, cfg.horizon)
    spec, n_paths = cfg.compensator, cfg.n_paths
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
    line = f"mean count {mean:.4f} vs expected {expected:.4f} (3-sigma {3 * std:.4f}) over {n_paths} paths"
    return _finish(out_dir, summary, line)


def cmd_norms(cfg: RunConfig, out_dir: Path) -> int:
    run = _solve(cfg)
    table = norm_table(run.tree, run.sol, cfg.beta, cfg.gamma)
    # In picard mode the configured spec is state-dependent; ``spec`` carries
    # the f that the final iterate solves with.
    f_levels, _ = run.spec.given_levels(run.tree)
    bound = None
    if cfg.beta > 0:
        lhs, rhs, excess = cauchy_weight_bound(run.tree, f_levels, cfg.beta)
        bound = {"lhs": lhs, "rhs": rhs, "passed": bool(excess <= 1e-12)}
    summary = {
        "config": cfg.echo(),
        "norms": table,
        "cauchy_weight_bound": bound,
        "all_passed": bound is None or bound["passed"],
    }
    return _finish(out_dir, summary, *(f"{name} = {value!r}" for name, value in table.items()))


def cmd_verify(scale: str, out_dir: Optional[Path]) -> int:
    if out_dir is not None:
        _make_out_dir(out_dir, "--out")
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
def _make_out_dir(out_dir: Path, name: str) -> Path:
    """Create ``out_dir`` if missing; ConfigInvalid at ``name`` if it cannot be a directory."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(name, f"cannot create directory {str(out_dir)!r}: {exc.strerror}") from None
    return out_dir


def build_parser() -> argparse.ArgumentParser:
    """One flat parser; ``main`` checks which options go with the verb."""
    parser = argparse.ArgumentParser(
        prog="rbsde-tree",
        description="Reflected backward solver and verification harness on scenario trees",
    )
    verbs = ("solve", "oracle", "simulate", "norms", "verify")
    parser.add_argument("verb", choices=verbs)
    parser.add_argument("--config", help="YAML run configuration (every verb but verify)")
    parser.add_argument("--seed", type=int, help="override the config seed (not for verify)")
    parser.add_argument("--out", help="output directory (optional report directory for verify)")
    parser.add_argument("--scale", choices=("small", "full"), help="verify only; default small")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "verify":
        if args.config is not None or args.seed is not None:
            parser.error("verify takes no --config or --seed")
    elif args.config is None:
        parser.error(f"{args.verb} needs --config")
    elif args.scale is not None:
        parser.error(f"--scale is for verify only, not {args.verb}")
    try:
        if args.verb == "verify":
            return cmd_verify(args.scale or "small", Path(args.out) if args.out else None)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=_number(args.seed, "--seed", int, low=0))
        verbs = {"solve": cmd_solve, "oracle": cmd_oracle, "simulate": cmd_simulate, "norms": cmd_norms}
        handler = verbs[args.verb]
        # Before any work, so that a bad path never costs a solve.
        name = "out" if cfg.out and not args.out else "--out"
        out_dir = _make_out_dir(Path(args.out or cfg.out or "out"), name)
        try:
            return handler(cfg, out_dir)
        except OSError as exc:  # an artifact in the output directory cannot be written
            path = str(exc.filename or out_dir)
            raise ConfigInvalid(name, f"cannot write {path!r}: {exc.strerror}") from None
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RbsdeTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
