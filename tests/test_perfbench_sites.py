"""Every call site that perfbench's tracer wraps still exists, and every benchmark job parses.

``perfbench/tracer.py`` replaces ``(module, attribute)`` pairs of
``rbsdetree`` with timing wrappers; a deleted or renamed name breaks a traced
benchmark run.  The tracer and the job pools (``perfbench/workloads.py``)
are loaded here by path.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import yaml

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("perfbench_tracer", TRACER)


def test_every_tracer_site_resolves():
    tracer = _load_tracer()
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracer.SITES
        if not callable(getattr(importlib.import_module(f"rbsdetree.{module}"), attr, None))
    ]
    assert tracer.SITES
    assert not missing, missing


def test_a_traced_picard_solve_and_oracle_run(tmp_path):
    """The wrapped sites are called with the arguments the tracer's hooks read."""
    from rbsdetree import cli

    picard = yaml.safe_load((CONFIGS / "picard_affine.yaml").read_text())
    picard["grid"]["n_steps"] = 2
    picard["stopping"]["oracle"] = True
    config = tmp_path / "picard.yaml"
    config.write_text(yaml.safe_dump(picard))
    tracer = _load_tracer().Tracer()
    tracer.install({name: importlib.import_module(f"rbsdetree.{name}")
                    for name in ("cli", "picard", "rbsde", "snell", "stopping", "_kernels")})
    try:
        codes = [
            cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "solve")]),
            cli.main(["oracle", "--config", str(CONFIGS / "mpp_only.yaml"),
                      "--out", str(tmp_path / "oracle")]),
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert tracer.calls["picard.picard_solve"] == 1
    assert tracer.calls["kernels.enumerate_rules"] == tracer.calls["stopping.brute_force_value"] == 2
    assert tracer.counts["kernels.enumerate_ops"] > 0


def test_tracer_only_names_are_the_live_functions():
    """A name kept only for the tracer is the very function it stands for, so a span never times a stale copy."""
    from rbsdetree import cli, picard, rbsde, stopping

    assert cli.solve_mpp_only is picard.solve_mpp_only is rbsde.solve_given_generators
    assert picard.check_skorohod is rbsde.check_skorohod
    assert picard.check_equation_residual is rbsde.check_equation_residual
    assert stopping.running_gains is rbsde.running_gains


def test_every_benchmark_job_parses(tmp_path):
    """Every job of every pool is a config that ``parse_config`` accepts, unknown keys included."""
    from rbsdetree import cli

    workloads = _load("perfbench_workloads", WORKLOADS)
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 7):
            for job in workloads.make_jobs(workload, seed, tmp_path):
                cli.parse_config(job.config)
