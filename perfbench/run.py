"""End-to-end and stage-traced benchmark of ``rbsde-tree`` jobs.

    python3 perfbench/run.py --workload picard-wide --seed 1 --seconds 30 --trace 0

Runs real ``rbsde-tree`` jobs in this process by calling
``rbsdetree.cli.main(argv)`` on YAML configs generated from ``--seed``: one
client in a closed loop, each job starting when the previous one has ended.
The program is imported from ``src/`` of the checkout this file sits in.

``--trace 0`` times jobs with no instrumentation and reports the end-to-end
metrics.  ``--trace 1`` spends half of ``--seconds`` on untraced jobs and half
on jobs traced by ``tracer.Tracer`` and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is the JSON
result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import yaml
from tracer import Tracer
from workloads import WORKLOADS, make_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
TOLERANCE = 1e-10
REFERENCE_FILE = HERE / "reference.json"
RUNS_DIR = ROOT / ".perfbench-runs"
ARTIFACTS = ("summary.json", "solution.csv", "trace.csv")
#: Launches timed for ``setup_s``, spread evenly over the timed loop.  The
#: host's speed changes by up to a third from one few-second stretch to the
#: next; launches made all at once would each see one stretch, while spread
#: over the loop their median sees the host as the jobs do.
SETUP_SAMPLES = 16

#: Percentile reported as ``job_s_tail``: the highest one with at least ten
#: timed jobs beyond it at today's job rate on a slow host (about 2,800
#: sweep-small and 50 oracle-cap jobs in 35 s).  picard-wide runs about ten
#: jobs a run, too few for any percentile above the median to have ten beyond
#: it; it reports p75, whose run-to-run spread stays well inside the bound
#: where the slowest job's does not.
TAIL_PERCENTILE = {"picard-wide": 75.0, "sweep-small": 99.0, "oracle-cap": 75.0}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout has no importable ``rbsdetree`` under ``src/``."""


def load_program():
    """Import ``rbsdetree`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "rbsdetree" / "cli.py").is_file():
        raise ProgramMissing(f"no rbsdetree sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rbsdetree
    from rbsdetree import _kernels, cli, picard, rbsde, snell, stopping

    if not Path(rbsdetree.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"rbsdetree was imported from {rbsdetree.__file__}, not {SRC}")
    return {"rbsdetree": rbsdetree, "cli": cli, "picard": picard, "rbsde": rbsde,
            "snell": snell, "stopping": stopping, "_kernels": _kernels}


def key_values(verb: str, summary: dict) -> dict:
    """The numbers a job certifies, compared against the reference."""
    if verb == "oracle":
        return {"y0": summary["y0"], "oracle": summary["certificate"]["value"]}
    if verb == "simulate":
        return {"mean_count": summary["mean_count"]}
    if verb == "norms":
        return {f"norm.{k}": v for k, v in summary["norms"].items()}
    return {"y0": summary["y0"]}


def matches(values: dict, ref) -> bool:
    return (
        ref is not None
        and values.keys() == ref.keys()
        and all(abs(values[k] - ref[k]) <= TOLERANCE for k in ref)
    )


def committed_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED or not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text())["workloads"].get(workload)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class JobRun:
    seconds: float
    ok: bool
    values: dict
    hashes: dict


@dataclass
class Loop:
    """Timed jobs of one closed loop."""

    seconds: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    failed: int = 0
    hash_mismatches: int = 0


class Bench:
    """One workload on one seed: generated configs, references and job loops."""

    def __init__(self, program: dict, workload: str, seed: int, run_dir: Path, small: bool):
        self.cli = program["cli"]
        self.jobs = make_jobs(workload, seed, run_dir / "draw", small)
        self.run_dir = run_dir
        self.reference = {}
        self.hashes = {}
        self.errors = []
        self.log = []  # (traced, job name, seconds, passed) per timed job
        (run_dir / "configs").mkdir(parents=True, exist_ok=True)
        for job in self.jobs:
            (self._config(job)).write_text(yaml.safe_dump(job.config, sort_keys=False))

    def _config(self, job):
        return self.run_dir / "configs" / f"{job.name}.yaml"

    def _out(self, job):
        return self.run_dir / "out" / job.name

    def run_job(self, job) -> JobRun:
        out = self._out(job)
        (out / "summary.json").unlink(missing_ok=True)
        argv = [job.verb, "--config", str(self._config(job)), "--out", str(out)]
        sink = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                rc = self.cli.main(argv)
        except Exception:  # a traceback is a failed job, not a dead benchmark
            rc = None
            if len(self.errors) < 3:
                self.errors.append(f"{job.name}: {traceback.format_exc()}")
        seconds = perf_counter() - start
        if rc != 0:
            if rc is not None and len(self.errors) < 3:
                self.errors.append(f"{job.name}: exit {rc}: {sink.getvalue()[-500:]}")
            return JobRun(seconds, False, {}, {})
        summary = json.loads((out / "summary.json").read_text())
        values = key_values(job.verb, summary)
        hashes = {name: _sha256(out / name) for name in ARTIFACTS if (out / name).is_file()}
        return JobRun(seconds, summary.get("all_passed") is True, values, hashes)

    def warm_up(self, reference=None):
        """Run every job once, untimed; fix its reference values and hashes.

        ``reference`` (job name -> values) overrides the values the warm-up
        job itself produced; a job whose warm-up fails has no reference, so
        every timed repeat of it fails.
        """
        for job in self.jobs:
            run = self.run_job(job)
            self.hashes[job.name] = run.hashes
            if reference is not None:
                self.reference[job.name] = reference.get(job.name)
            else:
                self.reference[job.name] = run.values if run.ok else None

    def loop(self, seconds: float, tracer=None, launches: int = 0) -> Loop:
        """Closed loop over the job pool until ``seconds`` have passed (at least one job).

        ``launches`` calls of ``setup_launch`` are spread evenly over the loop,
        each between two jobs and outside their timing.
        """
        result = Loop()
        start = perf_counter()
        deadline = start + seconds
        i = 0
        while i == 0 or perf_counter() < deadline:
            while (len(result.setup) < launches
                   and perf_counter() >= start + seconds * len(result.setup) / launches):
                result.setup.append(setup_launch())
            job = self.jobs[i % len(self.jobs)]
            if tracer is not None:
                tracer.job_id = i
            run = self.run_job(job)
            i += 1
            result.seconds.append(run.seconds)
            passed = run.ok and matches(run.values, self.reference[job.name])
            if not passed:
                result.failed += 1
            elif run.hashes != self.hashes[job.name]:
                result.hash_mismatches += 1
            self.log.append((tracer is not None, job.name, run.seconds, passed))
        result.setup.extend(setup_launch() for _ in range(launches - len(result.setup)))
        return result

    def write_log(self, path: Path):
        with open(path, "w") as fh:
            fh.write("traced,job,seconds,passed\n")
            fh.writelines(f"{int(t)},{name},{sec!r},{int(ok)}\n" for t, name, sec, ok in self.log)

    def close(self):
        shutil.rmtree(self.run_dir / "out", ignore_errors=True)
        shutil.rmtree(self.run_dir / "configs", ignore_errors=True)
        shutil.rmtree(self.run_dir / "draw", ignore_errors=True)


def setup_launch() -> float:
    """Wall time from a fresh interpreter to ``rbsdetree.cli`` imported.

    No timeout: with one, ``subprocess`` polls the child in steps of up to
    50 ms, which would quantize the measurement.
    """
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import rbsdetree.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True)
    return perf_counter() - start


def run_record(program: dict) -> dict:
    import numpy as np

    cpu_model = l3 = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "libyaml_loader": bool(yaml.__with_libyaml__),
        "rbsdetree": program["rbsdetree"].__version__,
        "use_numba": bool(program["_kernels"].USE_NUMBA),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


PER_JOB_SELF = [
    "cli.write_solution_csv", "cli.load_config", "cli.build_parser", "cli.write_summary",
    "cli.run_checks", "cli.run_stopping", "cli.norm_table",
    "lattice.build_tree", "lattice.extract_representation", "lattice.cexp_level",
    "rbsde.solve", "rbsde.solve_via_snell", "rbsde.check_skorohod",
    "rbsde.check_equation_residual", "rbsde.a_priori_majorant",
    "snell.snell_envelope", "snell.doob_meyer", "snell.envelope_jump_support",
    "picard.picard_solve", "picard.composite_distance",
    "wnorm.norm_sq", "wnorm.cauchy_weight_bound",
    "stopping.brute_force_value", "stopping.reward_of_rule", "stopping.k_flatness_before_stop",
    "kernels.enumerate_rules", "kernels.simulate_event_counts",
    "mpp.simulate_path", "instances.terminal_payoff", "instances.linear_barrier",
]
PER_JOB_CALLS = [
    "cli.build_problem", "lattice.extract_representation", "rbsde.solve", "wnorm.norm_sq",
    "stopping.running_gains",
]
PER_JOB_COUNTS = {
    "cli.solution_csv_bytes": "B", "lattice.nodes": "count", "picard.iterations": "count",
    "stopping.rules_enumerated": "count", "kernels.enumerate_ops": "ops_computed",
    "mpp.paths_simulated": "count",
}


def layer_metrics(tracer: Tracer, n_jobs: int) -> dict:
    """Per-layer metrics per traced job (self seconds, calls, counts)."""
    out = {}
    for name in PER_JOB_SELF:
        out[f"{name}_s"] = (tracer.self_s[name] / n_jobs, "s")
    for name in PER_JOB_CALLS:
        out[f"{name}_calls"] = (tracer.calls[name] / n_jobs, "count")
    checks = tracer.calls["rbsde.check_skorohod"] + tracer.calls["rbsde.check_equation_residual"]
    out["rbsde.check_calls"] = (checks / n_jobs, "count")
    for name, unit in PER_JOB_COUNTS.items():
        out[name] = (tracer.counts[name] / n_jobs, unit)
    busy = tracer.total_s["stopping.brute_force_value"]
    rules = tracer.counts["stopping.rules_enumerated"]
    out["stopping.rules_per_s"] = (rules / busy if busy else 0.0, "1/s")
    return out


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    lines: list


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> Result:
    """Set up, warm up and time one workload; see the module docstring."""
    program = load_program()
    import numpy as np

    run_dir = RUNS_DIR / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    record = run_record(program)
    bench = Bench(program, workload, seed, run_dir, small)
    lines = [f"# perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}"
             f" jobs_in_pool={len(bench.jobs)}",
             f"# record {json.dumps(record, sort_keys=True)}"]
    try:
        bench.warm_up(committed_reference(workload, seed))
        if not trace:
            # One discarded launch first, so byte-code caches are warm as they
            # are for a user's second command.
            setup_launch()
            timed = bench.loop(seconds, launches=SETUP_SAMPLES)
            loops = [timed]
            pct = TAIL_PERCENTILE[workload]
            n = len(timed.seconds)
            metrics = {
                "jobs_per_s": (n / sum(timed.seconds), "1/s"),
                "job_s_p50": (statistics.median(timed.seconds), "s"),
                "job_s_tail": (float(np.percentile(timed.seconds, pct)), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": (statistics.median(timed.setup), "s"),
            }
            lines.append(f"# job_s_tail is p{pct:g} of {n} timed jobs"
                         f" ({n - n * pct / 100:.1f} beyond it)")
        else:
            plain = bench.loop(seconds / 2)
            tracer = Tracer()
            tracer.install(program)
            try:
                traced = bench.loop(seconds / 2, tracer)
            finally:
                tracer.uninstall()
            loops = [plain, traced]
            metrics = layer_metrics(tracer, len(traced.seconds))
            metrics["trace.overhead_s"] = (
                statistics.median(traced.seconds) - statistics.median(plain.seconds), "s")
            tracer.write_spans(run_dir / "spans.csv")
            lines.extend(stage_table(tracer, traced.seconds))
        attempted = sum(len(lp.seconds) for lp in loops)
        failed = sum(lp.failed for lp in loops)
        mismatches = sum(lp.hash_mismatches for lp in loops)
        lines.append(f"# error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} jobs failed)")
        if trace:
            metrics["cli.artifact_hash_mismatches"] = (mismatches, "count")
        else:
            lines.append(f"# cli.artifact_hash_mismatches {mismatches} count")
        lines.extend(f"# {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items())
        lines.extend(f"# error: {e}" for e in bench.errors)
        bench.write_log(run_dir / "jobs.csv")
        (run_dir / "record.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return Result(failed == 0, attempted, failed, metrics, lines)
    finally:
        bench.close()


def stage_table(tracer: Tracer, job_seconds) -> list:
    """Self and inclusive time per span name, largest self time first.

    Shares are of the summed wall time of the traced jobs.
    """
    n, total = len(job_seconds), sum(job_seconds)
    lines = [f"# stage times over {n} traced jobs ({total:.3f} s):",
             f"#   {'span':38s} {'self s/job':>12s} {'self':>7s} {'incl':>7s} {'calls/job':>10s}"]
    for name, own in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"#   {name:38s} {own / n:12.6f} {100 * own / total:6.2f}%"
                     f" {100 * tracer.total_s[name] / total:6.2f}% {tracer.calls[name] / n:10.2f}")
    return lines


def main(argv=None, small: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), small)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in result.lines:
        print(line)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
