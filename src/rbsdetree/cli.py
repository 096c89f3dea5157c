"""Command-line entry point: config ingestion, orchestration, persistence.

Verbs: solve, oracle, simulate, norms, verify.  ``solve`` runs the configured
mode (given, picard, or mpp-only: the given mode on a jump-only tree, where
Z = 0) through the one reflected solver.  Configuration is a YAML file; results
are a summary JSON record plus CSV node tables in the output directory.  Exit
codes: 0 all checks pass, 1 a check failed, 2 the configuration is invalid:
a field is malformed or unknown, the problem data, the norm weights, a
weighted norm or a Picard distance overflow, or the output directory cannot
be written.  A
solve's checks read the one known-generator spec that its solution solves
(in picard mode, the generators frozen at the last iterate), and its
stopping checks the one stopped reward that the envelope route built from
that spec.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
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
from .picard import ALPHA_MAX, RATE_SLACK, ContractionConfig, LipschitzConstants, PicardTrace
from .picard import StateGenerators, beta_requirement, gamma_terms, picard_solve, select_contraction_parameters
from .rbsde import (
    BARRIER_TOL,
    ROUTE_TOL,
    GeneratorSpec,
    RbsdeSolution,
    a_priori_majorant,
    check_equation_residual,
    check_skorohod,
    reward_process,
    solve_given_generators,
    solve_via_snell,
)
from .snell import SUPPORT_TOL, envelope_jump_support
from .stopping import (
    ENUMERATION_CAP,
    OPTIMAL_TOL,
    VALUE_TOL,
    brute_force_value,
    epsilon_optimal_time,
    k_flatness_before_stop,
    reward_of_rule,
    smallest_optimal_time,
)
from .verify import format_report, run_all
from .wnorm import CAUCHY_TOL, WeightedNorm, cauchy_weight_bound, norm_sq

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
        affine["clip"] = _number(gen["clip"], "generator.clip", low=0.0)
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
        # so with this L_U any beta that passes here passes picard's own check.
        fc = max(abs(x) for x in affine["fc"])
        l_u, l_f = abs(affine["fb"]) * fc, abs(affine["fa"])
        u_field = "generator.fb" if abs(affine["fb"]) >= fc else "generator.fc"
        if not math.isfinite(l_u * l_u):
            raise ConfigInvalid(u_field, f"L_U = |fb| max|fc| = {l_u!r} overflows L_U^2 in picard mode's beta bound")
        minimal = float(beta_requirement(LipschitzConstants(l_f=l_f, l_u=l_u)))
        if not math.isfinite(minimal):  # no beta can pass: name the field of the larger term
            f_term = 2 * l_f / math.sqrt(ALPHA_MAX)
            raise ConfigInvalid("generator.fa" if f_term >= l_u * l_u / ALPHA_MAX else u_field,
                                f"L_U^2/alpha + 2 L_f/sqrt(alpha) with L_U = {l_u!r} and L_f = |fa| = {l_f!r}"
                                f" overflows picard mode's beta bound at alpha = {ALPHA_MAX!r}")
        if cfg.beta <= minimal:
            raise ConfigInvalid(
                "beta",
                f"picard mode needs beta > L_U^2/alpha + 2 L_f/sqrt(alpha) = {minimal!r} at alpha = {ALPHA_MAX!r},"
                f" got {cfg.beta!r}",
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
    """Materialize (tree, generator spec, state generators) from a validated config.

    The state generators are None outside picard mode; in picard mode the
    spec holds xi and h, and its f and g are zero.

    ConfigInvalid names the field whose node values are not finite (payoff,
    barrier, an f or g offset), a barrier above the payoff at a leaf, and
    weights e^{beta A_T + gamma T} that overflow.  A tree has a node per
    level at least, so a step count past both the budget and the default
    budget is refused before its time grid is made.
    """
    if cfg.n_steps + 1 > max(cfg.budget, DEFAULT_NODE_BUDGET):
        raise ConfigInvalid("generator.budget",
                            f"a {cfg.n_steps}-step tree needs at least {cfg.n_steps + 1} nodes, one per level; "
                            f"budget is {cfg.budget}")
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
        return tree, GeneratorSpec(xi=xi, h=h, f_levels=f_off, g_levels=g_levels), None
    state = affine_generators(tree, **cfg.affine, f_offset=f_off, g_offset=g_off)
    g_state = None if cfg.brownian == "none" else state.g
    return tree, GeneratorSpec(xi=xi, h=h), state._replace(g=g_state)


# ---------------------------------------------------------------------------
# Artifact persistence
# ---------------------------------------------------------------------------
def _new_file(path: Path):
    """``path`` opened for writing as a new file.  An earlier file there is unlinked, not truncated
    (10-15 ms on ext4 just after a large write) nor written through a link."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    return open(path, "w", newline="")


def write_summary(out_dir: Path, summary: dict):
    path = out_dir / "summary.json"
    with _new_file(path) as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
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


_DIGITS = [str(r) for r in range(1000)]  # node index text below 1000
_PADDED = [f"{r:03d}" for r in range(1000)]  # last three digits after a "k,q" head


def _node_rows(k: int, lo: int, tails: list) -> str:
    """The text of level k's rows lo, lo + 1, ...: each row's head and last digits, then its entry of ``tails``."""
    heads, nodes, hi = [], [], lo + len(tails)
    for q in range(lo // 1000, (hi - 1) // 1000 + 1):
        a, b = max(lo - 1000 * q, 0), min(hi - 1000 * q, 1000)
        heads += [f"{k},{q}" if q else f"{k},"] * (b - a)
        nodes += (_PADDED if q else _DIGITS)[a:b]
    out = [None] * (3 * len(tails))
    out[0::3], out[1::3], out[2::3] = heads, nodes, tails
    return "".join(out)


def _level_groups(columns, slot, cand):
    """(group of each node, the node that stands for each group, each group's key row) on one level.

    ``columns`` are the level's fields, and node i's candidate is node
    ``cand[slot[i]]``.  Every candidate is a representative, and so is
    every node whose fields' bits differ from its candidate's; each other
    node joins its candidate's group.  Representatives with equal bits share
    a group, which the first of them stands for.  A key row holds a node's
    fields as float64, and bits are compared, so -0.0 and 0.0 stay apart.
    """
    lead = {}  # a representative's key bits -> (its group, its node)

    def join(keys, nodes) -> list:
        rows = keys.T.copy().view(f"V{keys.itemsize * len(keys)}").ravel().tolist()
        return [lead.setdefault(row, (len(lead), node))[0] for row, node in zip(rows, nodes.tolist())]

    cand_keys = np.array([c[cand] for c in columns], dtype=np.float64)
    group = np.array(join(cand_keys, cand), dtype=np.int32)[slot]
    for lo in range(0, len(slot), CSV_CHUNK_ROWS):
        keys = np.array([c[lo:lo + CSV_CHUNK_ROWS] for c in columns], dtype=np.float64)
        fresh = np.flatnonzero((cand_keys.view(np.uint64).take(slot[lo:lo + CSV_CHUNK_ROWS], axis=1)
                                != keys.view(np.uint64)).any(axis=0))
        if fresh.size:
            group[fresh + lo] = join(keys[:, fresh], fresh + lo)
    first = np.array([node for _, node in lead.values()])
    return group, first, np.frombuffer(b"".join(lead)).reshape(len(lead), -1)


def write_solution_csv(out_dir: Path, tree: ScenarioTree, gen: GeneratorSpec, sol):
    """One row per node, level by level; every float field is its exact repr.

    Apart from its node index, a row's text is fixed by its fields' bits.
    The data are functions of the node state, so the tree repeats its rows
    branch by branch: the 7-step ``picard_affine`` tree of perfbench seed 1
    has 1, 4, 9, 16, 35, 60, 126 and 298 distinct rows on its levels.  Node
    i of level k, below parent i // b, takes as candidate the same branch
    below the node that stands for its parent's group; that node is a
    representative and its children are their own candidates, so every
    candidate is a representative and no node needs a chain of them.  A
    candidate is only a hint (``_level_groups`` checks every row bit for
    bit), so correctness does not rest on the tree's layout.  Each group's
    tail is formatted once, with one ``_float_text`` call per file, and
    rows go out ``CSV_CHUNK_ROWS`` at a time through ``_node_rows``.  Rows end in
    ``\\r\\n`` as ``csv.writer`` ends them; only the header, which holds the
    user's mark labels, goes through ``csv.writer`` for quoting.
    """
    path = out_dir / "solution.csv"
    n, m = tree.n_steps, tree.n_marks
    levels, floats = [], []
    group = first = np.zeros(1, dtype=np.intp)  # a virtual level above the root, with one group
    for k in range(n + 1):
        b = np.arange(tree.branching(k - 1) if k else 1)
        # A row's key columns: its fields in text order, without t and with n_jumps last.
        inner = [sol.z[k], *sol.u[k].T, sol.dk[k], sol.k_cum[k], sol.residual[k]] if k < n else [sol.k_cum[k]]
        columns = [tree.w[k], sol.y[k], gen.h[k], *inner, tree.n_jumps[k]]
        slot, cand = np.add.outer(group * len(b), b).ravel(), np.add.outer(first * len(b), b).ravel()
        group, first, keys = _level_groups(columns, slot, cand)
        del slot, cand  # the leaf level's would otherwise outlive the formatting below
        levels.append((group, keys))
        floats += [tree.grid.times[k:k + 1], keys[:, :-1].ravel()]
    text = _float_text(np.concatenate(floats))  # per level: t, then the float fields of each group
    with _new_file(path) as fh:
        csv.writer(fh).writerow(["level", "node", "t", "w", "n_jumps", "y", "h", "z",
                                 *[f"u_{label}" for label in tree.marks.labels], "dk", "k_cum", "residual"])
        pos = 0
        for k, (group, keys) in enumerate(levels):
            width = keys.shape[1] - 1
            t, cells = text[pos], text[pos + 1:pos + 1 + width * len(keys)]
            pos += 1 + len(cells)
            rows = [cells[i:i + width] for i in range(0, len(cells), width)]
            if k == n:  # z, u..., dk and residual are empty at a leaf
                rows = [[w, y, h, *[""] * (m + 2), kc, ""] for w, y, h, kc in rows]
            jumps = map(str, keys[:, -1].astype(np.int64).tolist())
            tails = np.array([f",{t},{r[0]},{j},{','.join(r[1:])}\r\n" for r, j in zip(rows, jumps)], dtype=object)
            for lo in range(0, len(group), CSV_CHUNK_ROWS):
                fh.write(_node_rows(k, lo, tails[group[lo:lo + CSV_CHUNK_ROWS]].tolist()))
    return path


def write_trace_csv(out_dir: Path, distances):
    path = out_dir / "trace.csv"
    with _new_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "distance"])
        for i, d in enumerate(distances):
            writer.writerow([i + 1, repr(float(d))])
    return path


# ---------------------------------------------------------------------------
# Checks shared by the solve-family verbs
# ---------------------------------------------------------------------------
def run_checks(tree, sol, spec: GeneratorSpec, beta: float):
    """Every applicable check of ``sol``, which solves ``spec``, and the envelope route's stopped reward.

    The checks run in this order: minimal push, equation residual, the a priori majorant (for
    beta > 0), then the envelope route with its gap to ``sol`` and where its push sits.  The route
    comes last so that its stopped reward, which is returned, is not alive while the majorant runs.
    """
    checks = {
        "minimal_push": check_skorohod(tree, sol, spec.h),
        "equation_residual": check_equation_residual(tree, sol, spec)[0],
    }
    if beta > 0:
        viols = a_priori_majorant(tree, spec, sol, beta=beta)
        checks["a_priori_majorant"] = {
            "passed": not viols,
            "violations": [list(v) for v in viols[:10]],
        }
    y, envelope, dk, eta = solve_via_snell(tree, spec)
    support = envelope_jump_support(tree, envelope, dk, eta)
    # The route's Y is read only here, so each level's |gap| is formed in Y's own array.
    for k in range(tree.n_steps + 1):
        np.abs(np.subtract(sol.y[k], y[k], out=y[k]), out=y[k])
    gap = max(float(np.max(y[k])) for k in range(tree.n_steps + 1))
    checks["route_equivalence"] = {"passed": bool(gap <= ROUTE_TOL), "max_gap": gap}
    checks["push_only_on_contact"] = {
        "passed": not support,
        "violations": [list(v) for v in support[:10]],
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
            "passed": bool(y0 <= reward + tol + OPTIMAL_TOL and push <= SUPPORT_TOL),
            "push_before_stop": push,
        }
    star = smallest_optimal_time(tree, sol, spec.h)
    reward = reward_of_rule(tree, eta, star)
    out["first_contact"] = {"reward": reward, "passed": bool(abs(y0 - reward) <= VALUE_TOL)}
    if oracle:
        try:
            cert = brute_force_value(tree, eta, keep_table=False)
            out["oracle"] = {
                **_certificate_record(tree, cert),
                "gap": y0 - cert.value,
                "passed": bool(abs(y0 - cert.value) <= VALUE_TOL),
            }
        except EnumerationBudgetExceeded as exc:
            out["oracle"] = {"skipped": str(exc)}
    return out


def norm_table(tree, sol, beta: float, gamma: float) -> dict:
    """Squared weighted norms of Y (compensator clock, Lebesgue clock and both), U and Z.

    Z is zero on a jump-only tree and is not reported there.  ConfigInvalid
    names ``beta`` or ``gamma`` (as ``build_problem`` does for the weight)
    and the norm's key if a norm overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is named below
        y_a, y_w = (norm_sq(tree, sol.y, WeightedNorm(kind, beta, gamma)) for kind in "AW")
        table = {"Y_A": y_a, "Y_W": y_w, "Y_A_plus_lambda": y_a + y_w,
                 "U_p": norm_sq(tree, sol.u, WeightedNorm("p", beta, gamma))}
        if tree.n_brownian == 2:
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


def _gamma_field(state: StateGenerators) -> str:
    """The field a too-large gamma names: that of the larger of its two ``gamma_terms``."""
    terms = gamma_terms(state.lipschitz)
    return "generator.gz" if terms[0] >= terms[1] else "generator.ga"


def _contraction(tree: ScenarioTree, state: StateGenerators, cfg: RunConfig) -> ContractionConfig:
    """``select_contraction_parameters``, whose gamma is one above the sum of ``gamma_terms``.

    Before any sweep, ConfigInvalid names ``generator.gz`` if L_Z^2 overflows a float, and the
    field of the larger term (``generator.gz`` or ``generator.ga``) if gamma loses the one or
    overflows level N - 1's weight e^{beta A + gamma t}.
    """
    l_z = state.lipschitz.l_z
    if not math.isfinite(l_z * l_z):
        raise ConfigInvalid("generator.gz", f"L_Z = |gz| = {l_z!r} overflows L_Z^2 in the weight's gamma")
    terms = gamma_terms(state.lipschitz)
    gamma = sum(terms) + 1.0
    with np.errstate(over="ignore"):  # an infinite weight is named below
        weight = np.exp(cfg.beta * tree.a_levels[-2] + gamma * tree.grid.times[-2])
    if not (np.isfinite(weight) and gamma > sum(terms)):
        raise ConfigInvalid(_gamma_field(state),
                            f"gamma = {float(gamma)!r}, one above its Lipschitz threshold, is too large "
                            "for the fixed-point weight e^(beta A + gamma t)")
    return select_contraction_parameters(state.lipschitz, cfg.beta, max_iter=cfg.max_iter, tol=cfg.tol)


def _solve(cfg: RunConfig) -> Solved:
    """Build the configured problem and solve it in its mode.

    In picard mode, ConfigInvalid names the field ``_contraction`` names if a Picard distance
    is not finite: a finite weight near the largest float can still overflow one.
    """
    tree, gen, state = build_problem(cfg)
    if state is not None:
        contraction = _contraction(tree, state, cfg)
        trace = picard_solve(tree, gen, state, contraction)
        if not np.all(np.isfinite(trace.distances)):
            raise ConfigInvalid(_gamma_field(state),
                                f"gamma = {float(contraction.gamma)!r} overflows a weighted Picard distance")
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
    del eta  # a leaf-sized process per level, not to be alive while the norms and solution.csv are made
    verdicts = {}
    summary = {
        "config": cfg.echo(),
        "mode": cfg.mode,
        "tree": tree.level_summary(),
        "y0": float(sol.y[0][0]),
    }
    if trace is not None:
        bound = contraction.alpha + RATE_SLACK
        verdicts["picard.contraction_rate"] = all(r <= bound for r in trace.late_ratios)
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
    tree, spec, _ = build_problem(cfg)
    n_interior = tree.total_nodes - tree.n_leaves
    if n_interior > ENUMERATION_CAP:  # before the solve, which the oracle could not certify
        raise ConfigInvalid(
            "grid.n_steps", f"{n_interior} interior nodes exceeds the enumeration cap {ENUMERATION_CAP}"
        )
    sol = solve_given_generators(tree, spec, integrands_only=True)  # only Y_0 is read
    cert = brute_force_value(tree, reward_process(tree, spec), keep_table=False)
    y0 = float(sol.y[0][0])
    gap = abs(y0 - cert.value)
    summary = {
        "config": cfg.echo(),
        "y0": y0,
        "certificate": {**_certificate_record(tree, cert), "n_rules": 1 << cert.n_interior},
        "gap": gap,
        "all_passed": bool(gap <= VALUE_TOL),
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
    # In picard mode ``spec`` holds the f that the final iterate solves: f frozen at the iterate before it.
    bound = None
    if cfg.beta > 0:
        lhs, rhs, excess = cauchy_weight_bound(run.tree, run.spec.f_levels, cfg.beta)
        bound = {"lhs": lhs, "rhs": rhs, "passed": bool(excess <= CAUCHY_TOL)}
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


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt(3) parameter numbers


@functools.cache
def _keep_freed_memory() -> bool:
    """Ask glibc, once per process, to keep freed memory: no block below 256 MiB gets its own
    mmap, and the heap is trimmed only past 512 MiB free.  So one stage's freed arrays serve the
    next without fresh page faults.  Does nothing where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows loads no library named None
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, 256 << 20)) and bool(mallopt(M_TRIM_THRESHOLD, 512 << 20))


def main(argv=None) -> int:
    _keep_freed_memory()
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
