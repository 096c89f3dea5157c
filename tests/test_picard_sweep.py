"""Each picard-mode field that the contraction rule reads, set to each of 18 values, under ``solve`` and ``norms``.

Every run of ``configs/picard_affine.yaml`` with one field changed must exit 0, exit 2 naming
the field (or the field listed for it), or exit 1 for a listed reason, with no traceback, no
warning and no non-finite number in ``summary.json``.
"""

import io
import json
import math
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import yaml

from rbsdetree.cli import main

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "picard_affine.yaml"
VALUES = [0, 1, -1, 2, 0.5, -0.5, 1e-300, 1e300, 1e6, 40, "x", None, [], True, [0.5, 0.5], {"a": 1}, math.nan, math.inf]
FIELDS = [
    "beta", "gamma", "generator.fa", "generator.fb", "generator.fc", "generator.ga", "generator.gz",
    "picard.max_iter", "picard.tol", "grid.horizon", "grid.n_steps", "compensator.rate",
]
# (field, repr of its value) of the runs that exit 2 naming another field, and that field.
NAMED_ELSEWHERE = {
    # beta = 1.2 is not above L_U^2/alpha + 2 L_f/sqrt(alpha), which is finite.
    **{("generator.fa", v): "beta" for v in ("1", "-1", "2", "40", "1000000.0", "1e+300")},
    **{("generator.fb", v): "beta" for v in ("1", "-1", "2", "40", "1000000.0")},
    # The norm weight e^(beta A_T) overflows.
    **{("grid.horizon", v): "beta" for v in ("1000000.0", "1e+300")},
    **{("compensator.rate", v): "beta" for v in ("1000000.0", "1e+300")},
    # The tree is larger than the node budget.
    **{("grid.n_steps", v): "generator.budget" for v in ("40", "1000000.0", "1e+300")},
}
# Runs that exit 1 because the iteration does not converge (ROADMAP item 1: the discrete
# map need not contract, and a cap of 1 or 2 sweeps is too few).
NO_CONVERGENCE = {
    ("generator.ga", "2"), ("generator.ga", "40"), ("picard.max_iter", "1"), ("picard.max_iter", "2"),
    ("grid.horizon", "40"), ("compensator.rate", "40"),
}
SWEEP_SECONDS = 10.0


def _changed(field: str, value) -> dict:
    raw = yaml.safe_load(CONFIG.read_text())
    *sections, key = field.split(".")
    node = raw
    for section in sections:
        node = node[section]
    node[key] = value
    return raw


def _finite_json(path: Path) -> bool:
    def reject(constant):
        raise ValueError(constant)

    try:
        json.loads(path.read_text(), parse_constant=reject)
    except ValueError:
        return False
    return True


def _fault(tmp_path: Path, field: str, value, verb: str):
    """What is wrong with one run, or None."""
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(_changed(field, value)))
    out = tmp_path / f"{verb}-{len(list(tmp_path.iterdir()))}"
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main([verb, "--config", str(config), "--out", str(out)])
        except Exception as exc:  # noqa: BLE001 - a traceback is the fault reported
            return f"traceback {type(exc).__name__}: {exc}"
    first = (err.getvalue().splitlines() or [""])[0]
    key = (field, repr(value))
    if caught:
        return f"warned {[str(w.message) for w in caught]}"
    if (out / "summary.json").exists() and not _finite_json(out / "summary.json"):
        return "summary.json holds a non-finite number"
    if code == 2:
        named = NAMED_ELSEWHERE.get(key, field)
        return None if first.startswith(f"config error: {named}: ") else f"exit 2 not naming {named}: {first}"
    if code == 1:
        listed = key in NO_CONVERGENCE and first.startswith("error: no convergence")
        return None if listed else f"unlisted exit 1: {first}"
    return None if code == 0 else f"exit {code}"


def test_each_picard_field_exits_0_or_2_naming_it_or_1_for_a_listed_reason(tmp_path):
    start = time.perf_counter()
    faults = []
    for field in FIELDS:
        for value in VALUES:
            for verb in ("solve", "norms"):
                fault = _fault(tmp_path, field, value, verb)
                if fault is not None:
                    faults.append(f"{field}={value!r} {verb}: {fault}")
    elapsed = time.perf_counter() - start
    assert faults == []
    assert elapsed < SWEEP_SECONDS, elapsed
