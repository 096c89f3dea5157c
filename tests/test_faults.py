"""Named faults, each in one program function, and the verdicts each must flip.

A fault monkeypatches one function of the program; no check and no bound
changes.  Under its fault a run must exit 1 with exactly the named verdicts
false, and never end in a traceback.  The fault-free row is the control: the
same runs pass.  A fault in the solver also fails ``verify`` criteria: since
``solve`` and ``verify`` judge against the same named bounds, the two agree.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from rbsdetree import _kernels, lattice, rbsde
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


def _drop_the_max(monkeypatch):
    """The backward solver sets Y_k = Ytil_k where it takes max(Ytil_k, h_k); dK = (h_k - Ytil_k)^+ as before."""

    def no_max(tree, f_levels, g_levels, xi, h, integrands_only, leaf=None):
        n = tree.n_steps
        y = [None] * n + [np.asarray(xi, dtype=float)]
        u, z, dk, residual = ([None] * n for _ in range(4))
        represent = lattice.representation_integrands if integrands_only else lattice.extract_representation
        for k in range(n - 1, -1, -1):
            rep = leaf if k == n - 1 and leaf is not None else represent(tree, k, y[k + 1])
            y[k] = rep.mean + f_levels[k] * tree.da[k] + g_levels[k] * tree.grid.steps[k]
            u[k], z[k], residual[k], dk[k] = rep.u, rep.z, rep.residual, np.maximum(h[k] - y[k], 0.0)
        sol = rbsde.RbsdeSolution(y=y, u=u, z=z)
        if integrands_only:
            return sol
        return dataclasses.replace(sol, dk=dk, k_cum=tree.path_sum(dk), residual=residual)

    monkeypatch.setattr(rbsde, "_solve_backward", no_max)


def _terminal_high(monkeypatch):
    """The backward solver starts from Y_N = xi + 1e-9."""
    solve_backward = rbsde._solve_backward

    def high(tree, f_levels, g_levels, xi, *args):
        return solve_backward(tree, f_levels, g_levels, np.asarray(xi) + 1e-9, *args)

    monkeypatch.setattr(rbsde, "_solve_backward", high)


FAULTS = {
    "none": _no_fault,
    "oracle value 1e-9 low": _oracle_value_low,
    "root push 1e-6 high": _root_push_high,
    "solver f zero": _solver_f_zero,
    "max dropped": _drop_the_max,
    "Y_N 1e-9 high": _terminal_high,
}

NO_MAX = {"check.equation_residual", "check.minimal_push", "check.route_equivalence", "stopping.first_contact"}

# (fault, verb, config, the verdicts that must be false); the oracle verb's one verdict is all_passed
CASES = [
    ("none", "solve", "mpp_only", set()),
    ("none", "oracle", "mpp_only", set()),
    ("oracle value 1e-9 low", "solve", "mpp_only", {"stopping.oracle"}),
    ("oracle value 1e-9 low", "oracle", "mpp_only", {"all_passed"}),
    ("root push 1e-6 high", "solve", "mpp_only", {"check.push_only_on_contact"}),
    ("solver f zero", "solve", "mpp_only",
     {"check.equation_residual", "check.route_equivalence", "stopping.first_contact", "stopping.oracle"}),
    ("none", "solve", "reflected_binomial", set()),
    ("none", "solve", "picard_affine", set()),
    # Y = Ytil leaves Y below h where the barrier binds: Y >= h, the equation with dK and both stopping
    # values fail.  picard_affine runs no oracle.
    ("max dropped", "solve", "reflected_binomial", NO_MAX | {"stopping.oracle"}),
    ("max dropped", "solve", "mpp_only", NO_MAX | {"stopping.oracle"}),
    ("max dropped", "solve", "picard_affine", NO_MAX),
    # The envelope route starts from xi; in picard mode Y_N's representation is of xi, so the last
    # step's residual has conditional mean 1e-9 as well.
    ("Y_N 1e-9 high", "solve", "reflected_binomial", {"check.route_equivalence"}),
    ("Y_N 1e-9 high", "solve", "mpp_only",
     {"check.route_equivalence", "stopping.first_contact", "stopping.oracle"}),
    ("Y_N 1e-9 high", "solve", "picard_affine", {"check.route_equivalence", "check.equation_residual"}),
]

# (fault, the ``verify --scale small`` criteria that must fail)
VERIFY_CASES = [
    ("max dropped", {"oracle equivalence", "minimal-push conditions", "route equivalence", "smallest optimal rule",
                     "representation residuals", "hand-computed fixtures"}),
    ("Y_N 1e-9 high", {"oracle equivalence", "route equivalence", "smallest optimal rule",
                       "hand-computed fixtures"}),
]


def _failed(summary):
    if "verdicts" not in summary:
        return set() if summary["all_passed"] else {"all_passed"}
    assert summary["all_passed"] == all(summary["verdicts"].values())
    return {name for name, passed in summary["verdicts"].items() if not passed}


# mpp_only rows keep their first ids: "fault-verb"
IDS = [f"{fault}-{verb}" + ("" if config == "mpp_only" else f"-{config}") for fault, verb, config, _ in CASES]


@pytest.mark.parametrize("fault, verb, config, flipped", CASES, ids=IDS)
def test_a_fault_flips_exactly_its_verdicts(tmp_path, monkeypatch, capsys, fault, verb, config, flipped):
    FAULTS[fault](monkeypatch)
    code = main([verb, "--config", str(CONFIGS / f"{config}.yaml"), "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "Traceback" not in capsys.readouterr().err
    assert code == (1 if flipped else 0)
    assert _failed(summary) == flipped
    if verb == "solve":
        assert any(name.startswith("check.") for name in summary["verdicts"])


@pytest.mark.parametrize("fault, failing", VERIFY_CASES, ids=[c[0] for c in VERIFY_CASES])
def test_a_solver_fault_fails_its_verify_criteria(tmp_path, monkeypatch, capsys, fault, failing):
    FAULTS[fault](monkeypatch)
    code = main(["verify", "--scale", "small", "--out", str(tmp_path)])
    criteria = json.loads((tmp_path / "summary.json").read_text())["criteria"]
    assert "Traceback" not in capsys.readouterr().err
    assert code == 1
    assert {c["name"] for c in criteria if not c["passed"]} == failing
