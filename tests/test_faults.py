"""Named faults, each in one program function, and the verdicts each must flip.

A fault monkeypatches one function of the program; no check and no bound
changes.  Under its fault a run must exit 1 with exactly the named verdicts
false, and never end in a traceback.  The fault-free row is the control: the
same runs pass.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from rbsdetree import _kernels, rbsde
from rbsdetree.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _no_fault(monkeypatch):
    pass


def _oracle_value_low(monkeypatch):
    """The rule enumeration reports its best value 1e-9 too low."""
    enumerate_rules = _kernels.enumerate_rules

    def low(*args, **kwargs):
        value, mask, table = enumerate_rules(*args, **kwargs)
        return value - 1e-9, mask, table

    monkeypatch.setattr(_kernels, "enumerate_rules", low)


def _root_push_high(monkeypatch):
    """The envelope route's push increment at the root is 1e-6 too large."""
    doob_meyer = rbsde.doob_meyer

    def high(*args):
        dk = doob_meyer(*args)
        return [dk[0] + 1e-6, *dk[1:]]

    monkeypatch.setattr(rbsde, "doob_meyer", high)


def _solver_f_zero(monkeypatch):
    """The backward solver is handed zero f levels in place of the spec's."""
    solve_backward = rbsde._solve_backward

    def without_f(tree, f_levels, *args):
        return solve_backward(tree, [np.zeros_like(f) for f in f_levels], *args)

    monkeypatch.setattr(rbsde, "_solve_backward", without_f)


FAULTS = {
    "none": _no_fault,
    "oracle value 1e-9 low": _oracle_value_low,
    "root push 1e-6 high": _root_push_high,
    "solver f zero": _solver_f_zero,
}

# (fault, verb, config, the verdicts that must be false); the oracle verb's one verdict is all_passed
CASES = [
    ("none", "solve", "mpp_only", set()),
    ("none", "oracle", "mpp_only", set()),
    ("oracle value 1e-9 low", "solve", "mpp_only", {"stopping.oracle"}),
    ("oracle value 1e-9 low", "oracle", "mpp_only", {"all_passed"}),
    ("root push 1e-6 high", "solve", "mpp_only", {"check.push_only_on_contact"}),
    ("solver f zero", "solve", "mpp_only",
     {"check.equation_residual", "check.route_equivalence", "stopping.first_contact", "stopping.oracle"}),
]


def _failed(summary):
    if "verdicts" not in summary:
        return set() if summary["all_passed"] else {"all_passed"}
    assert summary["all_passed"] == all(summary["verdicts"].values())
    return {name for name, passed in summary["verdicts"].items() if not passed}


@pytest.mark.parametrize("fault, verb, config, flipped", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_a_fault_flips_exactly_its_verdicts(tmp_path, monkeypatch, capsys, fault, verb, config, flipped):
    FAULTS[fault](monkeypatch)
    code = main([verb, "--config", str(CONFIGS / f"{config}.yaml"), "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "Traceback" not in capsys.readouterr().err
    assert code == (1 if flipped else 0)
    assert _failed(summary) == flipped
    if verb == "solve":
        assert any(name.startswith("check.") for name in summary["verdicts"])
