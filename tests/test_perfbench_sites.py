"""Every call site that perfbench's tracer wraps still exists.

``perfbench/tracer.py`` replaces ``(module, attribute)`` pairs of
``rbsdetree`` with timing wrappers; a deleted or renamed name breaks a traced
benchmark run.  The tracer imports only the standard library, so it is
loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

import yaml

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


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
