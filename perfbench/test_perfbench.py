"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run shrunken workloads (``small=True``) for well under a second each,
except ``test_default_seed_matches_committed_reference``, which runs every
full-size job of the default seed once.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import SITES, Tracer  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(capsys, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
        assert run.main(argv, small=True) == 0
        lines = capsys.readouterr().out.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert any(line.startswith("# error_rate 0 ratio") for line in lines)


def _bench(tmp_path, workload="oracle-cap", seed=3, small=True):
    return run.Bench(run.load_program(), workload, seed, tmp_path / workload, small)


def test_perturbed_reference_counts_jobs_as_failed(tmp_path):
    bench = _bench(tmp_path)
    bench.warm_up()
    truth = dict(bench.reference)
    assert bench.loop(0.1).failed == 0

    def shifted(delta):
        return {name: {k: v + delta for k, v in vals.items()} for name, vals in truth.items()}

    bench.warm_up(shifted(1e-9))
    off = bench.loop(0.1)
    assert off.failed == len(off.seconds) > 0
    bench.warm_up(shifted(1e-11))
    assert bench.loop(0.1).failed == 0
    bench.close()


def test_default_seed_matches_committed_reference(tmp_path):
    committed = json.loads(run.REFERENCE_FILE.read_text())
    assert committed["seed"] == run.DEFAULT_SEED
    for workload in WORKLOADS:
        bench = _bench(tmp_path, workload, run.DEFAULT_SEED, small=False)
        bench.warm_up()
        bench.close()
        ref = committed["workloads"][workload]
        assert ref.keys() == bench.reference.keys()
        for name, values in bench.reference.items():
            assert run.matches(values, ref[name]), (workload, name, values, ref[name])


def test_job_pools_depend_only_on_seed(tmp_path):
    run.load_program()
    for workload in WORKLOADS:
        assert make_jobs(workload, 5, tmp_path) == make_jobs(workload, 5, tmp_path)
        assert make_jobs(workload, 5, tmp_path) != make_jobs(workload, 6, tmp_path)
    verbs = [job.verb for job in make_jobs("sweep-small", 5, tmp_path)]
    assert verbs.count("solve") == len(verbs) // 2
    assert {"oracle", "norms", "simulate"} <= set(verbs)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body():
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", body)()
    (outer_id, root, _, outer_name, *_), (_, parent, *_) = sorted(tracer.spans)
    assert (outer_name, root, parent) == ("outer", -1, outer_id)
    assert tracer.self_s["inner"] == tracer.total_s["inner"] >= 0.02
    assert tracer.self_s["outer"] == pytest.approx(tracer.total_s["outer"] - tracer.total_s["inner"])
    assert tracer.self_s["outer"] >= 0.01


def test_install_wraps_and_uninstall_restores():
    program = run.load_program()
    before = {(mod, attr): getattr(program[mod], attr) for mod, attr, _, _ in SITES}
    tracer = Tracer()
    tracer.install(program)
    try:
        assert all(getattr(program[mod], attr) is not fn for (mod, attr), fn in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(program[mod], attr) is fn for (mod, attr), fn in before.items())


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
