"""Every leaf of every shipped config, set to each of 18 values, under each verb that reads it.

A leaf is a field of ``configs/*.yaml`` that holds no mapping: a list is a leaf, and so is each
of its entries.  Every run of a shipped config with one leaf changed must exit 0, exit 2 naming
the leaf (the list that holds it, or the field listed for it), or exit 1 for a listed reason,
with no traceback, no unlisted warning and no non-finite number in ``summary.json``.  Every key
that ``parse_config`` accepts is swept or listed as unswept with its reason.
"""

import copy
import io
import itertools
import json
import math
import re
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import yaml

from rbsdetree import cli
from rbsdetree.cli import main

CONFIGS = {path.stem: yaml.safe_load(path.read_text())
           for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))}
VALUES = [0, 1, -1, 2, 0.5, -0.5, 1e-300, 1e300, 1e6, 40, "x", None, [], True, [0.5, 0.5], {"a": 1}, math.nan, math.inf]
VERBS = ("solve", "norms", "oracle", "simulate")
#: The verbs that read each top-level field beyond parsing it.  ``parse_config`` checks every
#: field under every verb, so a value it rejects exits 2 alike under each.  The oracle verb
#: refuses picard mode before it reads a field, so it runs on the given-family configs only.
READERS = {
    "grid": VERBS, "marks": VERBS, "compensator": VERBS,
    **dict.fromkeys(("brownian", "mode", "terminal", "barrier", "generator", "beta", "gamma"),
                    ("solve", "norms", "oracle")),
    "stopping": ("solve",), "picard": ("solve", "norms"), "simulate": ("simulate",), "seed": ("simulate",),
}
#: Fields swept beside a config's leaves although it does not set them: gamma enters picard
#: mode's norm weight and Picard distance.
EXTRA_FIELDS = {"picard_affine": ("gamma",)}
#: Keys that ``parse_config`` accepts and no sweep sets, so the sweep cannot reach them.
UNSWEPT = {
    "out": "a path, not a number; test_cli.py and test_cli_input.py read it",
    "compensator.breakpoints": "no shipped config is piecewise; test_cli_input.py and test_mpp.py read it",
    "compensator.values": "no shipped config is piecewise; test_cli_input.py and test_mpp.py read it",
    "compensator.phi_rows": "no shipped config is piecewise; test_cli_input.py and test_mpp.py read it",
    "terminal.wn": "no shipped config sets it; test_artifacts.py reads it",
    "barrier.w": "no shipped config sets it; test_artifacts.py and test_cli_input.py read it",
    "barrier.n": "no shipped config sets it; test_artifacts.py and test_cli_input.py read it",
    "generator.budget": "no shipped config sets it; test_cli.py reads it",
    "generator.clip": "no shipped config is clipped-affine; test_cli.py and test_cli_input.py read it",
    "generator.f.t": "no shipped config sets it; generator.g.t, read by the same state_levels, is swept",
    "generator.f.n": "no shipped config sets it; test_artifacts.py reads it",
    "generator.g.tanh_w": "no shipped config sets it; generator.f.tanh_w, read by the same state_levels, is swept",
    "generator.g.n": "no shipped config sets it; test_artifacts.py reads it",
}

_DATA = ("terminal.const", "terminal.n", "barrier.base", "generator.f.const")
_PICARD_DATA = (*_DATA, "terminal.w", "generator.f.tanh_w", "generator.g.const", "generator.g.t")
_BUDGET = {("grid.n_steps", v): "generator.budget" for v in ("40", "1000000.0", "1e+300")}
_WEIGHT = {(field, v): "beta" for field in ("grid.horizon", "compensator.rate") for v in ("1000000.0", "1e+300")}
#: (config, field, repr of its value) of the runs that exit 2 naming another field, and that field.
#: A tree larger than the node budget names the budget; a norm weight e^(beta A_T) that
#: overflows names beta.  The data fields at 1e300 are named wrongly (CHANGES.md, FOUND): a
#: payoff, barrier or f/g offset of 1e300 makes a norm or a Picard distance overflow, and the
#: run names beta or generator.ga.
NAMED_ELSEWHERE = {
    **{("mpp_only", *key): name for key, name in {**_BUDGET, **_WEIGHT}.items()},
    **{("mpp_only", field, "1e+300"): "beta" for field in _DATA},
    **{("reflected_binomial", *key): name for key, name in _BUDGET.items()},
    **{("reflected_binomial", "compensator.rate", v): "beta" for v in ("1000000.0", "1e+300")},
    **{("reflected_binomial", field, "1e+300"): "beta" for field in ("terminal.w", "barrier.base")},
    **{("picard_affine", *key): name for key, name in {**_BUDGET, **_WEIGHT}.items()},
    **{("picard_affine", field, "1e+300"): "generator.ga" for field in _PICARD_DATA},
    # beta = 1.2 is not above L_U^2/alpha + 2 L_f/sqrt(alpha), which is finite.
    **{("picard_affine", "generator.fa", v): "beta" for v in ("1", "-1", "2", "40", "1000000.0", "1e+300")},
    **{("picard_affine", "generator.fb", v): "beta" for v in ("1", "-1", "2", "40", "1000000.0")},
    **{("picard_affine", f"generator.fc[{i}]", v): "beta" for i in (0, 1) for v in ("40", "1000000.0")},
}
#: Under ``simulate``, n_paths * n_steps past the ceiling names ``simulate.n_paths`` unless the
#: step count alone is past it.
NAMED_BY_SIMULATE = {("grid.n_steps", "1000000.0"): "simulate.n_paths"}
#: The runs above that also warn before they exit 2: a square overflows, and the infinity it
#: makes can then be subtracted from itself.
OVERFLOW_MESSAGES = {"overflow encountered in square", "invalid value encountered in subtract"}
OVERFLOW_WARNINGS = {("mpp_only", field, "1e+300") for field in _DATA} | {
    ("picard_affine", field, "1e+300") for field in _PICARD_DATA}
#: (config, field, repr of its value, verb) of the runs that exit 1, for a listed reason.
EXIT_1 = {
    # The iteration does not converge (ROADMAP item 1: the discrete map need not contract, and a
    # cap of 1 or 2 sweeps is too few).
    **{("picard_affine", field, v, verb): "error: no convergence"
       for field, v in (("generator.ga", "2"), ("generator.ga", "40"), ("picard.max_iter", "1"),
                        ("picard.max_iter", "2"), ("grid.horizon", "40"), ("compensator.rate", "40"))
       for verb in ("solve", "norms")},
    # An absolute check bound fails on data of size 1e6 (or 1e300), whose solves are exact to
    # a few ulps of the data (ROADMAP item 11).
    **{("mpp_only", field, "1000000.0", verb): "" for field, verb in (
        ("barrier.base", "solve"), ("generator.f.const", "solve"), ("generator.f.const", "oracle"),
        ("terminal.const", "solve"), ("terminal.const", "oracle"), ("terminal.n", "solve"))},
    ("mpp_only", "terminal.n", "1e+300", "oracle"): "",
    **{("picard_affine", field, "1000000.0", "solve"): "" for field in (
        "barrier.base", "generator.f.const", "generator.g.const", "generator.g.t",
        "terminal.const", "terminal.n", "terminal.w")},
}
#: The sweep's bound, in this process's CPU seconds: what the runs cost, whatever else the host runs.
SWEEP_SECONDS = 10.0


def _leaves(node, path=""):
    """The paths of every leaf under ``node``: ``a.b`` for a key, ``a[i]`` for a list entry."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _leaves(val, f"{path}.{key}" if path else key)
        return
    yield path
    if isinstance(node, list):
        for i, val in enumerate(node):
            yield from _leaves(val, f"{path}[{i}]")


def _changed(raw: dict, field: str, value) -> dict:
    raw = copy.deepcopy(raw)
    *parents, last = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", field)]
    node = raw
    for key in parents:
        node = node[key]
    node[last] = value
    return raw


def _finite_json(path: Path) -> bool:
    def reject(constant):
        raise ValueError(constant)

    try:
        json.loads(path.read_text(), parse_constant=reject)
    except ValueError:
        return False
    return True


_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


def _fault(config: Path, out: Path, key: tuple, verb: str):
    """What is wrong with the run of ``verb`` on ``config``, changed at ``key``, or None."""
    name, field, value = key
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main([verb, "--config", str(config), "--out", str(out)])
        except Exception as exc:  # noqa: BLE001 - a traceback is the fault reported
            return f"traceback {type(exc).__name__}: {exc}"
    first = (err.getvalue().splitlines() or [""])[0]
    expected_warning = key in OVERFLOW_WARNINGS and verb != "simulate"
    if caught and not (expected_warning and {str(w.message) for w in caught} <= OVERFLOW_MESSAGES):
        return f"warned {[str(w.message) for w in caught]}"
    if (out / "summary.json").exists() and not _finite_json(out / "summary.json"):
        return "summary.json holds a non-finite number"
    if code == 2:
        if verb == "simulate":
            named = NAMED_BY_SIMULATE.get((field, value), field)
        else:
            named = NAMED_ELSEWHERE.get(key, field)
        names = {named, field.rsplit("[", 1)[0]}  # a list entry may be blamed on its list
        ok = any(first.startswith(f"config error: {n}: ") for n in names)
        return None if ok else f"exit 2 not naming {named}: {first[:200]}"
    if code == 1:
        reason = EXIT_1.get((*key, verb))
        return None if reason is not None and first.startswith(reason) else f"unlisted exit 1: {first}"
    return None if code == 0 else f"exit {code}"


def test_each_leaf_of_each_shipped_config_exits_0_or_2_naming_it_or_1_for_a_listed_reason(tmp_path):
    start = time.process_time()
    faults = []
    runs = itertools.count()
    config = tmp_path / "cfg.yaml"
    for name, raw in CONFIGS.items():
        for field in (*_leaves(raw), *EXTRA_FIELDS.get(name, ())):
            readers = [v for v in READERS[re.split(r"[.\[]", field)[0]]
                       if not (v == "oracle" and raw.get("mode") == "picard")]
            for value in VALUES:
                changed = _changed(raw, field, value)
                config.write_text(yaml.dump(changed, Dumper=_DUMPER))
                try:
                    cli.parse_config(changed)
                    verbs = readers
                except cli.ConfigInvalid:  # every verb parses the whole config before its own work
                    verbs = readers[:1]
                for verb in verbs:
                    fault = _fault(config, tmp_path / f"out-{next(runs)}", (name, field, repr(value)), verb)
                    if fault is not None:
                        faults.append(f"{name} {field}={value!r} {verb}: {fault}")
    elapsed = time.process_time() - start
    assert faults == []
    assert elapsed < SWEEP_SECONDS, elapsed


def test_the_sweep_covers_73_leaves_and_every_listed_run_occurs():
    leaves = {(name, field) for name, raw in CONFIGS.items() for field in _leaves(raw)}
    assert len(leaves) == 73
    values = {repr(v) for v in VALUES}
    for name, field, value, *_ in (*NAMED_ELSEWHERE, *EXIT_1, *OVERFLOW_WARNINGS):
        assert (name, field) in leaves and value in values, (name, field, value)


def test_every_key_parse_config_accepts_is_swept_or_listed_as_unswept():
    sections = {
        "grid": cli.GRID_KEYS, "compensator": (*cli.LINEAR_KEYS, *cli.PIECEWISE_KEYS),
        "terminal": cli.TERMINAL_KEYS, "barrier": cli.BARRIER_KEYS, "stopping": cli.STOPPING_KEYS,
        "picard": cli.PICARD_KEYS, "simulate": cli.SIMULATE_KEYS,
        "generator": (*cli.GENERATOR_KEYS, *itertools.chain(*cli.FAMILY_KEYS.values())),
        "generator.f": cli.OFFSET_KEYS, "generator.g": cli.OFFSET_KEYS,
    }
    accepted = set(cli.ROOT_KEYS) | {f"{section}.{key}" for section, keys in sections.items() for key in keys}
    swept = {re.sub(r"\[\d+\]", "", field) for name, raw in CONFIGS.items()
             for field in (*_leaves(raw), *EXTRA_FIELDS.get(name, ()))}
    reached = {key for key in accepted if any(s == key or s.startswith(f"{key}.") for s in swept)}
    assert sorted(accepted - reached) == sorted(UNSWEPT)
    assert swept <= accepted
