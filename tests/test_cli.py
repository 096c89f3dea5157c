import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from rbsdetree import cli
from rbsdetree.cli import build_problem, load_config, main, parse_config
from rbsdetree.errors import ConfigInvalid

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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
    assert "1.25" in str(exc.value)  # L_U^2/alpha + 2 L_f/sqrt(alpha) = 1.25000000075 at alpha = 1 - 1e-9


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


def test_solve_in_picard_mode_writes_the_trace(tmp_path):
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
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
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


def test_integral_floats_and_numeric_strings_are_read(tmp_path):
    raw = {
        **BASE,
        "grid": {"n_steps": 2.0, "horizon": "1.0"},
        "seed": 7.0,
        "picard": {"max_iter": 3.0, "tol": "1e-9"},
        "simulate": {"n_paths": 4000.0},
        "stopping": {"epsilons": ["1e-2"]},
    }
    cfg = parse_config(raw)
    assert (cfg.n_steps, cfg.seed, cfg.max_iter, cfg.n_paths) == (2, 7, 3, 4000)
    assert all(type(x) is int for x in (cfg.n_steps, cfg.seed, cfg.max_iter, cfg.n_paths))
    assert (cfg.horizon, cfg.tol, cfg.epsilons) == (1.0, 1e-9, ((0.01, "1e-2"),))
    out = tmp_path / "run"
    assert main(["solve", "--config", _write(tmp_path, raw), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["grid"] == {"n_steps": 2, "horizon": 1.0}
    assert summary["config"]["seed"] == 7
    assert "epsilon_1e-2" in summary["stopping"]


def test_picard_solve_checks_its_final_iterate_once(tmp_path, monkeypatch):
    """A solve checks its final iterate once: ``run_checks`` makes the one call of each check,
    and the running gains of the one stopped reward, which every stopping check reads, are
    built once, by the envelope route."""
    from rbsdetree import cli, picard, rbsde

    calls = []
    for module, name in [(rbsde, "running_gains")] + [
        (module, name) for module in (cli, picard) for name in ("check_skorohod", "check_equation_residual")
    ]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    raw = {
        **BASE,
        "grid": {"n_steps": 2, "horizon": 1.0},
        "compensator": {"type": "linear", "rate": 0.7},
        "mode": "picard",
        "generator": {"family": "affine", "fa": 0.2, "fb": 0.1, "ga": 0.1, "gz": 0.1},
        "beta": 1.2,
    }
    mpp_only = yaml.safe_load((CONFIGS / "mpp_only.yaml").read_text())
    for mode_raw in (raw, mpp_only):  # both with epsilon rules, first contact and the oracle
        assert mode_raw["stopping"]["epsilons"] and mode_raw["stopping"]["oracle"]
        calls.clear()
        out = tmp_path / mode_raw["mode"]
        assert main(["solve", "--config", _write(tmp_path, mode_raw), "--out", str(out)]) == 0
        assert sorted(calls) == ["check_equation_residual", "check_skorohod", "running_gains"]
        checks = json.loads((out / "summary.json").read_text())["checks"]
        assert checks["minimal_push"]["passed"] and checks["equation_residual"]["passed"]


def test_run_checks_builds_the_reward_process_once(monkeypatch):
    """The envelope route hands back the reward process that the contact check reads."""
    from rbsdetree import cli, rbsde

    calls = []
    real = rbsde.running_gains
    monkeypatch.setattr(rbsde, "running_gains", lambda *a: calls.append(1) or real(*a))
    tree, gen, _ = build_problem(parse_config(yaml.safe_load((CONFIGS / "mpp_only.yaml").read_text())))
    sol = cli.solve_given_generators(tree, gen)
    checks, eta = cli.run_checks(tree, sol, gen, beta=1.0)
    assert calls == [1]
    assert checks["route_equivalence"]["passed"] and checks["push_only_on_contact"]["passed"]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(eta, rbsde.reward_process(tree, gen), strict=True))


def test_stopping_verdicts_read_the_reward_process_of_the_cli(tmp_path, monkeypatch, capsys):
    """The stopping checks read the envelope route's eta; without its running gains that eta
    misses Y_0, and the stopping checks say so."""
    from rbsdetree import cli

    handed = []
    real_snell, real_stopping = cli.solve_via_snell, cli.run_stopping

    def snell(tree, spec):
        y, envelope, dk, eta = real_snell(tree, spec)
        handed.append(eta)
        return y, envelope, dk, eta

    def stopping(tree, spec, sol, eta, *args):
        assert eta is handed[0]
        return real_stopping(tree, spec, sol, [*spec.h[:-1], spec.xi], *args)

    monkeypatch.setattr(cli, "solve_via_snell", snell)
    monkeypatch.setattr(cli, "run_stopping", stopping)
    raw = yaml.safe_load((CONFIGS / "mpp_only.yaml").read_text())
    assert raw["generator"]["f"]["const"] != 0 and raw["stopping"]["oracle"]
    out = tmp_path / "run"
    assert main(["solve", "--config", _write(tmp_path, raw), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    verdicts = json.loads((out / "summary.json").read_text())["verdicts"]
    assert not verdicts["stopping.first_contact"] and not verdicts["stopping.oracle"]
    assert all(verdicts[name] for name in verdicts if name.startswith("check."))


def test_exit_codes(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "missing.yaml")]) == 2
    bad = _write(tmp_path, {**BASE, "mode": "mpp-only"}, "bad.yaml")
    assert main(["solve", "--config", bad]) == 2
    good = _write(tmp_path, BASE, "good.yaml")
    assert main(["simulate", "--config", good, "--seed", "-1", "--out", str(tmp_path / "sim")]) == 2


def test_build_problem_shapes():
    cfg = parse_config(BASE)
    tree, gen, state = build_problem(cfg)
    assert tree.n_leaves == 2
    assert np.allclose(gen.xi, tree.w[-1])
    assert gen.h[0][0] == 0.5
    assert state is None


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
    config = CONFIGS / "picard_affine.yaml"
    raw = yaml.safe_load(config.read_text())
    raw["picard"]["max_iter"] = 2
    path = _write(tmp_path, raw)
    for verb in ("solve", "norms"):
        assert main([verb, "--config", path, "--out", str(tmp_path / verb)]) == 1


PIECEWISE = {
    "type": "piecewise",
    "breakpoints": [0.0, 1.0],
    "values": [0.0, 0.5],
    "phi_rows": [[1.0], [1.0]],
}


@pytest.mark.parametrize(
    "section, key, value, fieldname",
    [
        ("grid", "horizon", "abc", "grid.horizon"),
        ("grid", "horizon", "nan", "grid.horizon"),
        ("grid", "n_steps", "many", "grid.n_steps"),
        ("barrier", "base", "abc", "barrier.base"),
        ("compensator", None, {**PIECEWISE, "breakpoints": [0.5, 1.0]}, "compensator.breakpoints"),
        ("compensator", None, {**PIECEWISE, "breakpoints": [0.0, "abc"]}, "compensator.breakpoints[1]"),
        ("compensator", None, {**PIECEWISE, "phi_rows": [[0.5], [1.0]]}, "compensator.phi_rows"),
        ("compensator", None, {**PIECEWISE, "values": [0.0]}, "compensator.values"),
        ("compensator", None, {**PIECEWISE, "values": [0.0, -0.5]}, "compensator.values"),
        ("compensator", None, {**PIECEWISE, "values": "abc"}, "compensator.values"),
        ("compensator", "phi", [0.7], "compensator.phi"),
        ("picard", None, 5, "picard"),
        ("terminal", None, [1], "terminal"),
        ("generator", "f", 3, "generator.f"),
        ("stopping", "epsilons", 0.1, "stopping.epsilons"),
        ("stopping", "epsilons", [-0.1], "stopping.epsilons[0]"),
        ("simulate", "n_paths", -5, "simulate.n_paths"),
        ("simulate", "n_paths", 0, "simulate.n_paths"),
        ("beta", None, -1, "beta"),
        ("gamma", None, -1, "gamma"),
        ("seed", None, -1, "seed"),
        ("marks", None, [1, "1"], "marks"),
        ("picard", "max_iter", 0, "picard.max_iter"),
        ("picard", "tol", 0.0, "picard.tol"),
        ("grid", "n_steps", 2.7, "grid.n_steps"),
        ("seed", None, 7.9, "seed"),
        ("picard", "max_iter", 2.5, "picard.max_iter"),
        ("simulate", "n_paths", 10.5, "simulate.n_paths"),
        ("grid", "horizon", True, "grid.horizon"),
        ("beta", None, True, "beta"),
        ("out", None, 5, "out"),
        # L_U = |fb| max|fc| and L_Z = |gz| whose squares overflow a float; L_U names its larger factor.
        ("generator", "fb", 1e300, "generator.fb"),
        ("generator", "fc", [1e300, 1.0], "generator.fc"),
        ("generator", "fc", [1.0, 1e300], "generator.fc"),
        ("generator", "gz", 1e300, "generator.gz"),
        # 2 L_f/sqrt(alpha) = 2 |fa|/sqrt(alpha) overflows, so no beta passes picard mode's bound.
        ("generator", "fa", 1e308, "generator.fa"),
    ],
)
def test_non_numeric_field_exits_2_naming_the_field(tmp_path, capsys, section, key, value, fieldname):
    """A bad field exits 2 with its dotted path on stderr, no traceback, and writes nothing.

    ``key`` None replaces the whole ``section``; otherwise ``key`` is set
    inside it.  The affine generator's coefficients are set in the shipped
    picard-mode config, the only mode that reads them.  Every verb that
    reads the field is run.
    """
    affine = section == "generator" and key in (*cli.AFFINE_KEYS, "fc")
    base = yaml.safe_load((CONFIGS / "picard_affine.yaml").read_text()) if affine else BASE
    raw = {**base, section: value if key is None else {**base.get(section, {}), key: value}}
    verbs = ("simulate", "solve") if section == "simulate" else ("solve", "norms") if affine else ("solve",)
    for verb in verbs:
        code, err = _exit_and_error(tmp_path, capsys, raw, verb)
        assert code == 2 and f"config error: {fieldname}:" in err and "Traceback" not in err
        assert not (tmp_path / "run" / "summary.json").exists()


@pytest.mark.parametrize(
    "mode, brownian, family",
    [
        ("given", "binomial", "affine"),
        ("given", "binomial", "clipped-affine"),
        ("mpp-only", "none", "affine"),
        ("mpp-only", "none", "clipped-affine"),
        ("picard", "binomial", "given"),
    ],
)
def test_a_family_its_mode_does_not_solve_exits_2(tmp_path, capsys, mode, brownian, family):
    """Only picard mode reads a state-dependent family; the others would solve with f = g = 0."""
    gen = {"family": family, "clip": 1.0, "f": {"const": 5.0}}
    raw = {**BASE, "mode": mode, "brownian": brownian, "generator": gen}
    code, err = _exit_and_error(tmp_path, capsys, raw)
    assert code == 2 and "config error: generator.family:" in err
    assert not (tmp_path / "run" / "summary.json").exists()


@pytest.mark.parametrize("artifact", ["solution.csv", "summary.json"])
def test_an_artifact_path_taken_by_a_directory_exits_2(tmp_path, capsys, artifact):
    out = tmp_path / "run"
    (out / artifact).mkdir(parents=True)
    code = main(["solve", "--config", _write(tmp_path, BASE), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "config error: --out: cannot write" in err and artifact in err
    assert not (out / "summary.json").is_file()


ARTIFACTS = ("summary.json", "solution.csv", "trace.csv")


def _solve_into(out: Path, config) -> dict:
    """The artifacts, name -> bytes, of a ``solve`` of ``config`` into ``out``, which must exit 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in ARTIFACTS if (out / name).exists()}


def test_a_rerun_into_the_same_directory_gives_the_bytes_of_a_fresh_one(tmp_path):
    config = CONFIGS / "picard_affine.yaml"
    fresh = _solve_into(tmp_path / "fresh", config)
    assert set(fresh) == set(ARTIFACTS)
    _solve_into(tmp_path / "run", CONFIGS / "reflected_binomial.yaml")  # a larger solution.csv to replace
    assert _solve_into(tmp_path / "run", config) == fresh


def test_a_rerun_replaces_a_hard_linked_artifact_and_leaves_the_link(tmp_path):
    out, kept = tmp_path / "run", tmp_path / "kept.csv"
    first = _solve_into(out, CONFIGS / "reflected_binomial.yaml")["solution.csv"]
    os.link(out / "solution.csv", kept)
    second = _solve_into(out, CONFIGS / "picard_affine.yaml")["solution.csv"]
    assert first != second
    assert kept.read_bytes() == first and (out / "solution.csv").read_bytes() == second


def test_a_rerun_replaces_a_symlinked_summary_and_leaves_its_target(tmp_path):
    out, target = tmp_path / "run", tmp_path / "target.json"
    target.write_text("{}\n")
    out.mkdir()
    (out / "summary.json").symlink_to(target)
    fresh = _solve_into(tmp_path / "fresh", CONFIGS / "picard_affine.yaml")
    assert _solve_into(out, CONFIGS / "picard_affine.yaml") == fresh
    assert not (out / "summary.json").is_symlink() and target.read_text() == "{}\n"


@pytest.fixture
def allocator_call():
    """``cli._keep_freed_memory`` as if this process had not called it yet."""
    cli._keep_freed_memory.cache_clear()
    yield
    cli._keep_freed_memory.cache_clear()


def _no_library(name):
    raise OSError(f"cannot load {name!r}")


@pytest.mark.parametrize("fake_cdll", [_no_library, lambda name: SimpleNamespace()],
                         ids=["no-library", "no-mallopt"])
def test_a_c_library_without_mallopt_gives_the_same_artifacts(
    tmp_path, monkeypatch, allocator_call, fake_cdll
):
    config = CONFIGS / "picard_affine.yaml"
    expected = _solve_into(tmp_path / "expected", config)
    cli._keep_freed_memory.cache_clear()
    monkeypatch.setattr(cli.ctypes, "CDLL", fake_cdll)
    assert _solve_into(tmp_path / "run", config) == expected
    assert cli._keep_freed_memory() is False


def test_the_allocator_is_set_once_per_process(tmp_path, monkeypatch, allocator_call):
    loads, calls = [], []
    library = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: loads.append(name) or library)
    for name in ("a", "b"):
        _solve_into(tmp_path / name, CONFIGS / "picard_affine.yaml")
    assert loads == [None]
    assert calls == [(cli.M_MMAP_THRESHOLD, 256 << 20), (cli.M_TRIM_THRESHOLD, 512 << 20)]


@pytest.mark.parametrize(
    "section, key, value, fieldname",
    [
        ("terminal", "w", "abc", "terminal.w"),
        ("barrier", "leaf_slack", "abc", "barrier.leaf_slack"),
        ("barrier", "base", [0.5, "abc"], "barrier.base[1]"),
        ("generator", "f", {"const": "abc"}, "generator.f.const"),
        ("generator", "clip", "abc", "generator.clip"),
        ("generator", "clip", -1.0, "generator.clip"),
    ],
)
def test_bad_problem_number_exits_2_before_the_tree_is_built(
    tmp_path, capsys, monkeypatch, section, key, value, fieldname
):
    from rbsdetree import cli

    builds = []
    real_build_tree = cli.build_tree
    monkeypatch.setattr(cli, "build_tree", lambda *a, **kw: builds.append(1) or real_build_tree(*a, **kw))
    raw = {**BASE, "mode": "picard", "generator": {"family": "clipped-affine", "clip": 1.0}}
    code, _ = _exit_and_error(tmp_path, capsys, raw)
    assert code == 0 and builds == [1]
    builds.clear()
    code, err = _exit_and_error(tmp_path, capsys, {**raw, section: {**raw.get(section, {}), key: value}})
    assert code == 2 and f"config error: {fieldname}:" in err
    assert builds == []


@pytest.mark.parametrize(
    "config, n_steps, verb", [("picard_affine", 6, "solve"), ("mpp_only", 15, "norms"), ("mpp_only", 4, "oracle")]
)
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, config, n_steps, verb):
    """The same run with 1 and with 2 BLAS threads writes the same bytes.

    At 6 steps picard_affine has 46,656 leaves and at 15 steps mpp_only has
    16,384 nodes on its last interior level: above 10,000 elements OpenBLAS
    splits a dot product between threads.  At 4 steps mpp_only has 15
    interior nodes, so the oracle sums its whole table of 2^15 rule values.
    """
    import rbsdetree

    raw = yaml.safe_load((CONFIGS / f"{config}.yaml").read_text())
    raw["grid"]["n_steps"] = n_steps
    path = _write(tmp_path, raw)
    src = str(Path(rbsdetree.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "rbsdetree.cli", verb, "--config", path, "--out"]
    for threads in ("1", "2"):
        subprocess.run(
            [*command, tmp_path / threads],
            env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads},
            check=True,
            capture_output=True,
        )
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_picard_norms_weight_bound_checks_the_frozen_f(tmp_path):
    config = CONFIGS / "picard_affine.yaml"
    out = tmp_path / "norms"
    assert main(["norms", "--config", str(config), "--out", str(out)]) == 0
    bound = json.loads((out / "summary.json").read_text())["cauchy_weight_bound"]
    assert 0.0 < bound["lhs"] <= bound["rhs"]


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
def test_stopping_oracle_must_be_a_yaml_bool(tmp_path, capsys, value):
    raw = {**BASE, "stopping": {"epsilons": [0.1], "oracle": value}}
    code, err = _exit_and_error(tmp_path, capsys, raw)
    assert code == 2 and "stopping.oracle" in err
    assert not (tmp_path / "run" / "summary.json").exists()


@pytest.mark.parametrize("value", [True, False])
def test_stopping_oracle_bool_decides_the_oracle_record(tmp_path, value):
    raw = {**BASE, "stopping": {"epsilons": [0.1], "oracle": value}}
    out = tmp_path / "run"
    assert main(["solve", "--config", _write(tmp_path, raw), "--out", str(out)]) == 0
    stopping = json.loads((out / "summary.json").read_text())["stopping"]
    assert ("oracle" in stopping) is value


def test_generator_budget_below_the_tree_size_exits_2(tmp_path, capsys):
    """BASE is a one-step binomial tree without jumps: 3 nodes."""
    for budget in (0, 2):
        raw = {**BASE, "generator": {"budget": budget}}
        code, err = _exit_and_error(tmp_path, capsys, raw)
        assert code == 2 and "generator.budget" in err and "tree needs 3 nodes" in err
        assert not (tmp_path / "run" / "summary.json").exists()
    raw = {**BASE, "generator": {"budget": 3}}
    code, err = _exit_and_error(tmp_path, capsys, raw)
    assert code == 0 and err == ""
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["tree"]["level_sizes"] == [1, 2]


@pytest.mark.parametrize("n_steps", [2_000, 20_000, 1_000_000, 3_000_000])
def test_a_huge_step_count_exits_2_with_a_short_message(tmp_path, capsys, n_steps):
    """The level count stops at the first level past the budget, before the mark kernel is
    evaluated; a count past the default budget is refused before its time grid is made."""
    raw = yaml.safe_load((CONFIGS / "mpp_only.yaml").read_text())
    raw["grid"]["n_steps"] = n_steps
    code, err = _exit_and_error(tmp_path, capsys, raw)
    assert code == 2 and "generator.budget" in err and "Traceback" not in err
    assert len(err.strip()) < 200, err


def test_the_oracle_verb_solves_for_y0_alone(tmp_path):
    """``oracle`` reads only Y_0, so it leaves out the representation residual, whose square
    overflows on this payoff of size 1e300; the certificate's gap still fails the run."""
    raw = yaml.safe_load((CONFIGS / "mpp_only.yaml").read_text())
    raw["terminal"] = {"const": 0.0, "n": 1.0e300}
    path = _write(tmp_path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["oracle", "--config", path, "--out", str(tmp_path / "run")]) == 1
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["gap"] > 0 and not summary["all_passed"]


@pytest.fixture(scope="module")
def picard_six_steps():
    """``picard_affine.yaml`` at 6 steps (46,656 leaves), solved: (tree, sol, spec, beta)."""
    raw = yaml.safe_load((CONFIGS / "picard_affine.yaml").read_text())
    raw["grid"]["n_steps"] = 6
    run = cli._solve(parse_config(raw))
    assert run.tree.n_leaves == 46_656
    return run.tree, run.sol, run.spec, raw["beta"]


@pytest.mark.parametrize(
    "check, bound",
    [
        (lambda tree, sol, spec, beta: cli.run_checks(tree, sol, spec, beta), 5.0),
        (lambda tree, sol, spec, beta: cli.a_priori_majorant(tree, spec, sol, beta), 4.0),
        (lambda tree, sol, spec, beta: cli.check_equation_residual(tree, sol, spec), 3.0),
    ],
    ids=["run_checks", "a_priori_majorant", "check_equation_residual"],
)
def test_a_check_holds_few_leaf_sized_arrays_at_once(picard_six_steps, check, bound):
    """The traced peak above the memory live at the call, in arrays of one float per leaf.

    The majorant keeps one level of one path functional at a time, the equation residual one
    (n_k, b) buffer and one term, and ``run_checks`` runs the majorant before the envelope route.
    """
    tree, sol, spec, beta = picard_six_steps
    tracemalloc.start()
    try:
        check(tree, sol, spec, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    leaf_arrays = peak / (8 * tree.n_leaves)
    assert leaf_arrays < bound, leaf_arrays


def test_solve_drops_the_stopped_reward_before_the_norms_and_solution_csv(tmp_path, monkeypatch):
    """η, one array per level, is read by the stopping checks alone."""
    levels, alive = [], []
    real_checks = cli.run_checks

    def run_checks(*args):
        checks, eta = real_checks(*args)
        levels.extend(weakref.ref(level) for level in eta)
        return checks, eta

    def watch(real):
        return lambda *args: alive.append(any(ref() is not None for ref in levels)) or real(*args)

    monkeypatch.setattr(cli, "run_checks", run_checks)
    monkeypatch.setattr(cli, "norm_table", watch(cli.norm_table))
    monkeypatch.setattr(cli, "write_solution_csv", watch(cli.write_solution_csv))
    assert main(["solve", "--config", str(CONFIGS / "picard_affine.yaml"), "--out", str(tmp_path / "run")]) == 0
    assert levels and alive == [False, False]
