"""The artifact corpus tool runs every config verb on the shipped configs and compares records.

``tools/artifact_corpus.py`` is loaded by path.  The benchmark pools are left
out here (no seeds), so the corpus is the 12 runs of the shipped configs and
``verify --scale small``.
"""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_corpus.py"


def _tool():
    spec = importlib.util.spec_from_file_location("artifact_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_shipped_configs_give_twelve_runs(tmp_path):
    tool = _tool()
    record = tool.corpus(work=tmp_path)
    assert len(record) == 13
    code, lines = record.pop("verify:small")
    assert code == 0 and len(lines) == 11 and "10/10 criteria passed" in lines
    codes = {name: code for name, (code, _) in record.items()}
    # The oracle verb needs a given-generator family, which picard mode has not.
    assert codes.pop("config:picard_affine:oracle") == 2
    assert set(codes.values()) == {0}
    assert set(record["config:picard_affine:solve"][1]) == {"summary.json", "solution.csv", "trace.csv"}
    assert set(record["config:mpp_only:oracle"][1]) == {"summary.json"}
    assert not list(tmp_path.iterdir())  # run outputs are removed

    rerun = tool.corpus(work=tmp_path)
    assert rerun.pop("verify:small") == [code, lines]  # timings stripped, the report hashes the same
    assert rerun == record  # the same program, the same hashes
    changed = json.loads(json.dumps(record))
    changed["config:mpp_only:solve"][1]["summary.json"] = "0" * 64
    del changed["config:mpp_only:norms"]
    assert tool.compare(record, changed) == ["config:mpp_only:norms", "config:mpp_only:solve"]


def test_compare_exits_1_and_names_the_runs_that_differ(tmp_path, capsys):
    tool = _tool()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"run": [0, {"summary.json": "1"}], "same": [0, {}]}))
    b.write_text(json.dumps({"run": [1, {"summary.json": "1"}], "same": [0, {}]}))
    assert tool.main(["--compare", str(a), str(a)]) == 0
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "run:" in out and "same:" not in out and "1 of 2 runs differ" in out

    b.write_text(json.dumps({"run": [0, {"summary.json": "2"}], "same": [0, {}]}))
    assert tool.main(["--compare", str(a), str(b)]) == 1
    assert "run: summary.json differ" in capsys.readouterr().out  # same exit code: the artifact is named
