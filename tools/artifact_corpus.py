"""Hash every artifact of a fixed corpus of ``rbsde-tree`` runs, or compare two such records.

The corpus is every config verb (solve, oracle, norms, simulate) on each
shipped config in ``configs/``, ``verify --scale small``, and, for each seed
given, every job of the benchmark pools in ``perfbench/workloads.py`` (loaded
read-only, by path).  Each run goes through ``rbsdetree.cli.main`` in this
process, with the program imported from ``src/`` of the checkout that holds
this file.  The record is JSON, ``{run: [exit code, {artifact: sha256}]}``;
the ``verify:small`` run's artifacts are the lines of its report, keyed by
criterion and hashed without their trailing timings.

    python3 tools/artifact_corpus.py corpus.json --seeds 1 2 7
    python3 tools/artifact_corpus.py --compare parent.json change.json

To check that a change leaves every artifact and every verdict as it was,
write a record from each checkout and compare them; ``--compare`` prints each
run whose exit code differs, or the artifacts (report lines) whose hashes do,
and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
VERBS = ("solve", "oracle", "norms", "simulate")


def _workloads():
    """``perfbench/workloads.py`` of this checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def _run(main, verb: str, config: Path, out: Path) -> list:
    """[exit code, {artifact name: sha256}] of one run into the empty directory ``out``."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main([verb, "--config", str(config), "--out", str(out)])
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*")) if p.is_file()}
    return [code, hashes]


def _verify(main) -> list:
    """[exit code, {criterion: sha256 of its report line}] of ``verify --scale small``, timings stripped."""
    report = io.StringIO()
    with redirect_stdout(report), redirect_stderr(io.StringIO()):
        code = main(["verify", "--scale", "small"])
    lines = [re.sub(r" \(\d+\.\d+s\)$", "", line) for line in report.getvalue().splitlines()]
    # "[PASS] name: detail"; the closing "n/10 criteria passed" line is its own key
    return [code, {re.sub(r"^\[(PASS|FAIL)\] ", "", line).split(":")[0]: hashlib.sha256(line.encode()).hexdigest()
                   for line in lines}]


def corpus(seeds=(), work=None) -> dict:
    """The record of the shipped configs and of the pools for ``seeds``; runs write under ``work``."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from rbsdetree.cli import main

    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        runs = [(f"config:{path.stem}:{verb}", verb, path)
                for path in sorted(CONFIGS.glob("*.yaml")) for verb in VERBS]
        if seeds:
            workloads = _workloads()
            for seed in seeds:
                for workload in workloads.WORKLOADS:
                    for job in workloads.make_jobs(workload, seed, tmp):
                        path = tmp / f"{workload}-{seed}-{job.name}.yaml"
                        path.write_text(yaml.safe_dump(job.config, sort_keys=False))
                        runs.append((f"{workload}:seed{seed}:{job.name}", job.verb, path))
        record = {}
        for i, (name, verb, config) in enumerate(runs):
            out = tmp / f"out{i}"
            out.mkdir()
            record[name] = _run(main, verb, config, out)
        record["verify:small"] = _verify(main)
        return record


def compare(a: dict, b: dict) -> list:
    """The names of the runs whose exit code or artifacts differ, or that only one record holds."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="path of the JSON record to write")
    parser.add_argument("--seeds", type=int, nargs="*", default=[], help="benchmark pool seeds")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two records to compare")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        differ = compare(a, b)
        for name in differ:
            x, y = a.get(name), b.get(name)
            if x is None or y is None or x[0] != y[0]:
                print(f"{name}: {x} != {y}")
            else:
                print(f"{name}: " + ", ".join(sorted(k for k in x[1].keys() | y[1].keys()
                                                     if x[1].get(k) != y[1].get(k))) + " differ")
        print(f"{len(differ)} of {len(a.keys() | b.keys())} runs differ")
        return 1 if differ else 0
    if args.out is None:
        parser.error("give the record path, or --compare A B")
    record = corpus(args.seeds)
    Path(args.out).write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    codes = [code for code, _ in record.values()]
    n_artifacts = sum(len(hashes) for _, hashes in record.values())
    print(f"{len(record)} runs, {n_artifacts} artifacts, exit codes "
          + ", ".join(f"{codes.count(c)} x {c}" for c in sorted(set(codes))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
