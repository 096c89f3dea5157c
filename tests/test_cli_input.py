"""From argv and YAML text to a config: the loader and the argument parser."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsdetree import cli
from rbsdetree.cli import main
from rbsdetree.stopping import StoppingRule

from test_cli import BASE, CONFIGS, _write

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")

# Scalars as YAML 1.1 text: special floats, numbers YAML reads as strings
# (1e-9), other int notations, booleans, nulls, a date and quoted text.
SCALAR_TEXT = [
    ".nan", ".NaN", ".inf", "-.inf", "+.inf", "-0.0", "0.0", "1.0e-9", "1e-9", "1.5e+3", "3.",
    ".5", "0x1F", "017", "1_000", "true", "False", "no", "on", "~", "null", "abc", "'7'",
    '"1.0e-9"', "2001-12-14",
]
SCALARS = st.one_of(
    st.sampled_from(SCALAR_TEXT),
    st.integers(-(10**12), 10**12).map(str),
    st.floats(allow_nan=False).map(repr),
)
KEYS = st.sampled_from(["grid", "n_steps", "horizon", "marks", "rate", "phi", "tol", "seed", "a b", "x-1"])
NODES = st.recursive(
    SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(KEYS, children, max_size=4)),
    max_leaves=20,
)
DOCUMENTS = st.dictionaries(KEYS, NODES, min_size=1)


def _flow(node) -> str:
    if isinstance(node, dict):
        return "{" + ", ".join(f"{k}: {_flow(v)}" for k, v in node.items()) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_flow, node)) + "]"
    return node


def _block(node, indent="") -> list:
    """Block-style lines of a non-empty mapping or list; empty ones stay in flow style."""
    heads = [f"{k}:" for k in node] if isinstance(node, dict) else ["-"] * len(node)
    values = node.values() if isinstance(node, dict) else node
    lines = []
    for head, value in zip(heads, values):
        if isinstance(value, (dict, list)) and value:
            lines.append(indent + head)
            lines.extend(_block(value, indent + "  "))
        else:
            lines.append(f"{indent}{head} {_flow(value)}")
    return lines


def _both_loaders(text):
    """The reprs of the libyaml and the pure-Python mapping; repr keeps nan and -0.0 apart."""
    return [repr(yaml.load(text, Loader=loader)) for loader in (yaml.CSafeLoader, yaml.SafeLoader)]


@needs_libyaml
def test_libyaml_loader_builds_the_same_mapping():
    assert cli._YAML_LOADER is yaml.CSafeLoader
    for path in sorted(CONFIGS.glob("*.yaml")):
        fast, slow = _both_loaders(path.read_bytes())
        assert fast == slow, path.name


@needs_libyaml
@settings(max_examples=200, deadline=None, database=None)
@given(DOCUMENTS)
def test_libyaml_loader_agrees_in_flow_and_block_style(doc):
    flow, block = _flow(doc), "\n".join(_block(doc)) + "\n"
    fast, slow = _both_loaders(flow)
    assert fast == slow
    assert _both_loaders(block) == [fast, fast]


@pytest.mark.parametrize(
    "content",
    [b"grid: {n_steps: 2, horizon: [1.0\n", b"grid: {n_steps: 1, horizon: 1.0}\nmarks: [\xff]\n", None],
    ids=["unclosed-flow", "not-utf8", "directory"],
)
def test_unreadable_config_exits_2_naming_config(tmp_path, capsys, content):
    path = tmp_path / "bad.yaml"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["solve", "--config", str(path)]) == 2
    assert "config error: --config:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["solve"],
        ["bogus", "--config", "X"],
        ["solve", "--config", "X", "--scale", "full"],
        ["verify", "--config", "X"],
        ["verify", "--scale", "huge"],
        ["solve", "--config", "X", "--seed", "abc"],
        ["picard", "--config", "X"],
    ],
)
def test_bad_command_line_exits_2(tmp_path, capsys, argv):
    config = _write(tmp_path, BASE)
    with pytest.raises(SystemExit) as exc:
        main([config if a == "X" else a for a in argv])
    assert exc.value.code == 2
    assert "usage: rbsde-tree" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, scale, out",
    [(["verify"], "small", None), (["verify", "--scale", "full", "--out", "rep"], "full", "rep")],
)
def test_verify_takes_scale_and_out(monkeypatch, argv, scale, out):
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda *args: seen.append(args) or 0)
    assert main(argv) == 0
    assert seen == [(scale, None if out is None else cli.Path(out))]


@pytest.mark.parametrize(
    "out, from_config, fieldname",
    [("file", False, "--out"), ("file/sub", False, "--out"), ("file", True, "out")],
    ids=["existing-file", "below-a-file", "from-config"],
)
def test_unusable_output_path_exits_2_before_the_solve(tmp_path, capsys, monkeypatch, out, from_config, fieldname):
    (tmp_path / "file").write_text("not a directory\n")
    solves = []
    monkeypatch.setattr(cli, "build_problem", lambda cfg: solves.append(cfg))
    out = str(tmp_path / out)
    config = _write(tmp_path, {**BASE, "out": out} if from_config else BASE)
    code = main(["solve", "--config", config] + ([] if from_config else ["--out", out]))
    assert code == 2 and f"config error: {fieldname}: cannot create directory" in capsys.readouterr().err
    assert solves == []
    assert (tmp_path / "file").read_text() == "not a directory\n"


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_verify_with_unusable_output_path_exits_2_before_the_criteria(tmp_path, capsys, monkeypatch, out):
    (tmp_path / "file").write_text("")
    runs = []
    monkeypatch.setattr(cli, "run_all", lambda scale: runs.append(scale))
    assert main(["verify", "--out", str(tmp_path / out)]) == 2
    assert "config error: --out: cannot create directory" in capsys.readouterr().err
    assert runs == []


PIECEWISE = {"type": "piecewise", "breakpoints": [0.0, 1.0], "values": [0.0, 1.0], "phi_rows": [[1.0], [1.0]]}


@pytest.mark.parametrize(
    "name, changes, fieldname",
    [
        ("mpp_only", {"terminal": {"cnst": 3.0}}, "terminal.cnst"),
        ("mpp_only", {"barrier": {"leaf_slak": 0.5}}, "barrier.leaf_slak"),
        ("mpp_only", {"stoping": {"oracle": True}}, "stoping"),
        ("reflected_binomial", {"grid": {"n_step": 2}}, "grid.n_step"),
        ("mpp_only", {"compensator": {"values": [0.0, 1.0]}}, "compensator.values"),
        ("mpp_only", {"compensator": PIECEWISE}, "compensator.rate"),  # rate is the linear type's
        ("mpp_only", {"generator": {"fa": 0.2}}, "generator.fa"),  # the given family has no coefficients
        ("picard_affine", {"generator": {"clip": 1.0}}, "generator.clip"),  # affine is not clipped
        ("mpp_only", {"generator": {"f": {"const": 0.1, "tanhw": 1.0}}}, "generator.f.tanhw"),
        ("picard_affine", {"generator": {"g": {"nn": 1.0}}}, "generator.g.nn"),
        ("mpp_only", {"stopping": {"epsilon": [0.1]}}, "stopping.epsilon"),
        ("picard_affine", {"picard": {"maxiter": 10}}, "picard.maxiter"),
        ("mpp_only", {"simulate": {"paths": 10}}, "simulate.paths"),
    ],
)
def test_an_unknown_config_key_exits_2_naming_it_before_any_solve(tmp_path, capsys, monkeypatch, name, changes,
                                                                  fieldname):
    """A misspelt key is not read, so it would silently leave its field at the default."""
    solves = []
    monkeypatch.setattr(cli, "build_problem", lambda cfg: solves.append(cfg))
    code = main(["solve", "--config", _write(tmp_path, _shipped(name, **changes)), "--out", str(tmp_path / "run")])
    assert code == 2 and f"config error: {fieldname}: unknown key" in capsys.readouterr().err
    assert solves == []


def _shipped(name, **changes):
    """A shipped config with some fields of its sections, or some top-level scalars, replaced."""
    raw = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    for section, fields in changes.items():
        raw[section] = {**raw.get(section, {}), **fields} if isinstance(fields, dict) else fields
    return raw


OVERFLOW = {"const": 1.5e308, "t": 1.5e308}  # finite at t = 0, past the largest float later


@pytest.mark.parametrize(
    "name, verb, changes, fieldname, detail",
    [
        ("picard_affine", "solve", {"barrier": {"leaf_slack": -1.0}}, "barrier.leaf_slack", "by 7.660e-01"),
        ("mpp_only", "oracle", {"barrier": {"leaf_slack": -1.0}}, "barrier.leaf_slack", "by 4.000e-01"),
        ("picard_affine", "solve", {"terminal": {"w": 1.5e308}}, "terminal", "non-finite"),
        ("picard_affine", "solve", {"barrier": {"w": 1.5e308}}, "barrier", "non-finite"),
        ("reflected_binomial", "solve", {"grid": {"n_steps": 3}, "generator": {"f": OVERFLOW}},
         "generator.f", "non-finite"),
        ("picard_affine", "solve", {"generator": {"f": OVERFLOW}}, "generator.f", "non-finite"),
        ("picard_affine", "solve", {"generator": {"g": OVERFLOW}}, "generator.g", "non-finite"),
        ("mpp_only", "norms", {"generator": {"f": OVERFLOW}}, "generator.f", "non-finite"),
        ("mpp_only", "solve", {"beta": 1000}, "beta", "e^(1000.0 + 0.0) overflows"),
        ("reflected_binomial", "norms", {"gamma": 1000}, "gamma", "e^(0.0 + 1000.0) overflows"),
        ("mpp_only", "oracle", {"grid": {"n_steps": 5}}, "grid.n_steps",
         "31 interior nodes exceeds the enumeration cap 20"),
        # gamma is one above L_Z^2 + 2 L_g, and every sweep weighs level N - 1 by e^(beta A + gamma t)
        *(("picard_affine", "solve", {"generator": {"gz": gz}}, "generator.gz", "gamma = ")
          for gz in (35, 40, 50, 100)),
        ("picard_affine", "solve", {"generator": {"gz": 1e8}}, "generator.gz", "gamma = 1.000000001e+16"),
        ("picard_affine", "solve", {"generator": {"ga": 1e6}}, "generator.ga", "gamma = 2000001.0110000002"),
        # one step: level 0's weight is 1 at any gamma, but gamma = L_Z^2 + 1 rounds back to L_Z^2
        ("picard_affine", "solve", {"grid": {"n_steps": 1, "horizon": 1.0}, "generator": {"gz": 1e8}},
         "generator.gz", "gamma = 1.000000001e+16"),
    ],
    ids=["slack-picard", "slack-oracle", "payoff-overflow", "barrier-overflow", "f-overflow-given",
         "f-overflow-picard", "g-overflow-picard", "f-overflow-norms", "beta-overflow", "gamma-overflow",
         "oracle-over-cap", "gz-35", "gz-40", "gz-50", "gz-100", "gz-1e8", "ga-1e6", "gz-1e8-one-step"],
)
def test_bad_problem_data_exits_2_naming_the_field_before_any_solve(
    tmp_path, capsys, monkeypatch, name, verb, changes, fieldname, detail
):
    solves = []
    for attr in ("solve_given_generators", "picard_solve", "brute_force_value"):
        monkeypatch.setattr(cli, attr, lambda *a, _n=attr, **kw: solves.append(_n))
    config = _write(tmp_path, _shipped(name, **changes))
    with warnings.catch_warnings():  # an overflow while building xi or h is not reported as well
        warnings.simplefilter("error", RuntimeWarning)
        code = main([verb, "--config", config, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2 and f"config error: {fieldname}: " in err and detail in err
    assert solves == []
    assert not (tmp_path / "run" / "summary.json").exists()


def test_solve_above_the_enumeration_cap_records_the_oracle_as_skipped(tmp_path):
    """Only the oracle verb rejects such a tree; ``solve`` certifies what it can."""
    config = _write(tmp_path, _shipped("mpp_only", grid={"n_steps": 5}))
    assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == 0
    stopping = json.loads((tmp_path / "run" / "summary.json").read_text())["stopping"]
    assert stopping["oracle"] == {"skipped": "31 interior nodes exceeds enumeration cap 20"}


@pytest.mark.parametrize("verb", ["solve", "norms"])
@pytest.mark.parametrize(
    "name, changes, fieldname",
    [
        # e^(700 A_T) is finite, |Y|^2 ~ 1e200 times it is not
        ("mpp_only", {"beta": 700, "terminal": {"const": 1.0e100}}, "beta"),
        # A = 0, so gamma T is the larger exponent; |Y|^2 ~ 1e320 overflows alone
        ("reflected_binomial", {"gamma": 700, "terminal": {"const": 1.0e160}}, "gamma"),
    ],
    ids=["beta", "gamma"],
)
def test_a_weighted_norm_that_overflows_exits_2_naming_the_field(
    tmp_path, capsys, name, changes, fieldname, verb
):
    """The norm is known only after the solve, but before any artifact is written."""
    config = _write(tmp_path, _shipped(name, **changes))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([verb, "--config", config, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2 and f"config error: {fieldname}: the weighted norm Y_A overflows" in err
    assert not any((tmp_path / "run").iterdir())


def test_norms_with_weights_scaled_below_the_bound_exits_1(tmp_path, monkeypatch):
    build = cli.build_problem

    def lighter_weights(cfg):  # every weight e^{beta A} times e^{-50 beta}
        tree, gen, state = build(cfg)
        return dataclasses.replace(tree, a_levels=tree.a_levels - 50.0), gen, state

    monkeypatch.setattr(cli, "build_problem", lighter_weights)
    out = tmp_path / "run"
    assert main(["norms", "--config", str(CONFIGS / "mpp_only.yaml"), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cauchy_weight_bound"]["passed"] is False
    assert summary["all_passed"] is False


def test_an_epsilon_rule_that_stops_after_a_push_fails(tmp_path, monkeypatch):
    rule_of = cli.epsilon_optimal_time

    def one_level_later(tree, sol, h, tol):
        stop = rule_of(tree, sol, h, tol).stop
        later = [np.zeros(1, dtype=bool)]
        later += [tree.repeat_to_children(stop[k], k) for k in range(tree.n_steps - 1)]
        return StoppingRule.from_levels([*later, stop[-1]])

    # At eps = 1 the root stops; a step later the reward is still within eps of Y_0,
    # but the barrier pushed at the root before the stop.
    config = _write(tmp_path, _shipped("reflected_binomial", stopping={"epsilons": [1.0]}))
    out = tmp_path / "run"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    monkeypatch.setattr(cli, "epsilon_optimal_time", one_level_later)
    assert main(["solve", "--config", config, "--out", str(out)]) == 1
    record = json.loads((out / "summary.json").read_text())["stopping"]["epsilon_1.0"]
    assert record["gap"] <= 1.0 and record["push_before_stop"] == 0.5
    assert record["passed"] is False


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("name", ["mpp_only", "picard_affine", "reflected_binomial"])
@pytest.mark.parametrize("verb", ["solve", "oracle", "simulate", "norms"])
def test_summaries_of_shipped_configs_are_strict_json(tmp_path, name, verb):
    out = tmp_path / "run"
    code = main([verb, "--config", str(CONFIGS / f"{name}.yaml"), "--out", str(out)])
    if verb == "oracle" and name == "picard_affine":  # the oracle needs a given generator
        assert code == 2 and not (out / "summary.json").exists()
        return
    assert code == 0
    json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)


def test_a_negative_slack_that_keeps_the_barrier_below_the_payoff_runs(tmp_path, capsys):
    raw = _shipped("reflected_binomial", barrier={"base": [0.5, -1.0], "leaf_slack": -1.0})
    assert main(["solve", "--config", _write(tmp_path, raw), "--out", str(tmp_path / "run")]) == 0
    assert "9/9 checks passed" in capsys.readouterr().out


def test_a_large_gz_whose_fixed_point_weight_is_finite_still_solves(tmp_path, capsys):
    config = _write(tmp_path, _shipped("picard_affine", generator={"gz": 30}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == 0
    assert "after 21 iterations; 8/8 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("gz, code", [(32.51, 0), (32.55, 2), (32.59, 2)])
def test_a_picard_distance_that_overflows_exits_2_naming_gz(tmp_path, capsys, gz, code):
    """Past gz = 32.51 the fixed-point weight is finite but a weighted distance overflows;
    the run stops before any artifact, with no warning."""
    config = _write(tmp_path, _shipped("picard_affine", generator={"gz": gz}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert "after 20 iterations; 8/8 checks passed" in out and err == ""
        assert "inf" not in (tmp_path / "run" / "trace.csv").read_text()
    else:
        assert err.startswith("config error: generator.gz: gamma = ") and "Picard distance" in err
        assert not any((tmp_path / "run").iterdir())


@pytest.mark.parametrize("beta, code", [(0.4100000000041, 2), (0.41000000041, 0)])
def test_a_picard_beta_that_parses_passes_the_contraction_check(tmp_path, capsys, beta, code):
    """``picard_affine.yaml`` needs beta > L_U^2/alpha + 2 L_f/sqrt(alpha) = 0.41000000021 at
    alpha = 1 - 1e-9, which is what ``select_contraction_parameters`` checks.  A beta between
    that and L_U^2 + 2 L_f = 0.41 exits 2 naming ``beta``, before any tree is built."""
    config = _write(tmp_path, _shipped("picard_affine", beta=beta))
    assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("config error: beta: picard mode needs beta > ") and "0.4100000000041" in err
        assert "np.float64" not in err
        assert not (tmp_path / "run").exists()
