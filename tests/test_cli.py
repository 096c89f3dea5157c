import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from rbsdetree.cli import build_problem, load_config, main, parse_config
from rbsdetree.errors import ConfigInvalid

BASE = {
    "grid": {"n_steps": 1, "horizon": 1.0},
    "marks": ["e1"],
    "compensator": {"type": "linear", "rate": 0.0},
    "brownian": "binomial",
    "mode": "given",
    "terminal": {"w": 1.0},
    "barrier": {"base": 0.5, "leaf_slack": 0.0},
    "beta": 1.0,
    "stopping": {"epsilons": [0.1], "oracle": True},
    "seed": 7,
}


def _write(tmp_path, raw, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_parse_config_validation_messages():
    for raw, fieldname in [
        ({**BASE, "grid": {"n_steps": 0, "horizon": 1.0}}, "grid.n_steps"),
        ({**BASE, "marks": []}, "marks"),
        ({**BASE, "marks": ["a", "a"]}, "marks"),
        ({**BASE, "compensator": {"type": "weird"}}, "compensator.type"),
        ({**BASE, "brownian": "triangular"}, "brownian"),
        ({**BASE, "mode": "magic"}, "mode"),
        ({**BASE, "mode": "mpp-only"}, "mode"),
        ({**BASE, "generator": {"family": "clipped-affine"}}, "generator.clip"),
    ]:
        with pytest.raises(ConfigInvalid) as exc:
            parse_config(raw)
        assert fieldname in str(exc.value)


def test_picard_beta_guard_names_minimal_bound():
    raw = {
        **BASE,
        "mode": "picard",
        "generator": {"family": "affine", "fa": 0.5, "fb": 0.5},
        "beta": 1.0,
    }
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(raw)
    assert "1.25" in str(exc.value)  # L_U^2 + 2 L_f = 0.25 + 1.0


def test_config_round_trip():
    cfg = parse_config(BASE)
    again = parse_config(cfg.echo())
    assert again == cfg


def test_solve_artifact_and_exit_code(tmp_path):
    path = _write(tmp_path, BASE)
    out = tmp_path / "run"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["y0"] == 0.5
    assert summary["all_passed"] is True
    assert summary["stopping"]["oracle"]["value"] == 0.5
    body = (out / "solution.csv").read_text().splitlines()
    assert body[0].startswith("level,node,t,w,n_jumps,y,h,z,u_e1,dk,k_cum")
    assert len(body) == 1 + 3  # header + root + 2 leaves


def test_determinism_bit_identical(tmp_path):
    raw = {
        **BASE,
        "grid": {"n_steps": 3, "horizon": 1.0},
        "compensator": {"type": "linear", "rate": 0.8},
        "terminal": {"w": 0.5, "n": 0.4},
        "barrier": {"base": 0.2, "leaf_slack": 0.5},
        "generator": {"family": "given", "f": {"const": 0.3, "tanh_w": 0.1}},
    }
    path = _write(tmp_path, raw)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["solve", "--config", path, "--out", str(out)])
        outs.append(
            ((out / "summary.json").read_bytes(), (out / "solution.csv").read_bytes())
        )
    assert outs[0] == outs[1]


def test_picard_verb(tmp_path):
    raw = {
        **BASE,
        "grid": {"n_steps": 2, "horizon": 1.0},
        "compensator": {"type": "linear", "rate": 0.7},
        "mode": "picard",
        "generator": {"family": "affine", "fa": 0.2, "fb": 0.1, "ga": 0.1, "gz": 0.1},
        "terminal": {"const": 0.3, "w": 0.5},
        "barrier": {"base": 0.0, "leaf_slack": 0.5},
        "beta": 1.2,
        "stopping": {"epsilons": [0.01]},
    }
    path = _write(tmp_path, raw)
    out = tmp_path / "run"
    assert main(["picard", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"]["picard.converged"] is True
    assert summary["verdicts"]["picard.contraction_rate"] is True
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,distance"
    assert len(trace) - 1 == summary["contraction"]["iterations"]


def test_mpp_only_and_oracle_and_norms(tmp_path):
    raw = {
        **BASE,
        "grid": {"n_steps": 3, "horizon": 1.0},
        "compensator": {"type": "linear", "rate": 1.0},
        "brownian": "none",
        "mode": "mpp-only",
        "terminal": {"n": 1.0},
        "barrier": {"base": 0.4, "leaf_slack": 0.0},
        "generator": {"family": "given", "f": {"const": 0.1}},
    }
    path = _write(tmp_path, raw)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "s")]) == 0
    assert main(["oracle", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert main(["norms", "--config", path, "--out", str(tmp_path / "n")]) == 0
    oracle = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert oracle["gap"] <= 1e-10
    norms = json.loads((tmp_path / "n" / "summary.json").read_text())
    assert norms["cauchy_weight_bound"]["passed"] is True


def test_simulate_verb_and_seed_override(tmp_path):
    raw = {
        **BASE,
        "grid": {"n_steps": 4, "horizon": 1.0},
        "compensator": {"type": "linear", "rate": 1.0},
        "simulate": {"n_paths": 5000},
    }
    path = _write(tmp_path, raw)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", path, "--out", str(out), "--seed", "3"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 3
    assert summary["within_three_sigma"] is True


def test_exit_codes(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "missing.yaml")]) == 2
    bad = _write(tmp_path, {**BASE, "mode": "mpp-only"}, "bad.yaml")
    assert main(["solve", "--config", bad]) == 2


def test_build_problem_shapes():
    cfg = parse_config(BASE)
    tree, gen = build_problem(cfg)
    assert tree.n_leaves == 2
    assert np.allclose(gen.xi, tree.w[-1])
    assert gen.h[0][0] == 0.5


def _exit_and_error(tmp_path, capsys, raw, verb="solve"):
    path = _write(tmp_path, raw)
    code = main([verb, "--config", path, "--out", str(tmp_path / "run")])
    return code, capsys.readouterr().err


def test_nan_horizon_exits_2_naming_the_field(tmp_path, capsys):
    raw = {**BASE, "grid": {"n_steps": 1, "horizon": float("nan")}}
    code, err = _exit_and_error(tmp_path, capsys, raw)
    assert code == 2 and "grid.horizon" in err


def test_nan_barrier_base_exits_2_without_artifact(tmp_path, capsys):
    raw = {**BASE, "barrier": {"base": float("nan"), "leaf_slack": 0.0}}
    code, err = _exit_and_error(tmp_path, capsys, raw)
    assert code == 2 and "barrier.base" in err
    assert not (tmp_path / "run" / "summary.json").exists()


def test_infinite_beta_exits_2_naming_the_field(tmp_path, capsys):
    code, err = _exit_and_error(tmp_path, capsys, {**BASE, "beta": float("inf")})
    assert code == 2 and "beta" in err


def test_norms_honours_picard_iteration_cap(tmp_path):
    config = Path(__file__).resolve().parents[1] / "configs" / "picard_affine.yaml"
    raw = yaml.safe_load(config.read_text())
    raw["picard"]["max_iter"] = 2
    path = _write(tmp_path, raw)
    for verb in ("solve", "picard", "norms"):
        assert main([verb, "--config", path, "--out", str(tmp_path / verb)]) == 1
