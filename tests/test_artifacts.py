"""solution.csv is byte-equal to the one-row-at-a-time writer it replaced."""

import csv
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsdetree import GeneratorSpec, RbsdeSolution, cli
from rbsdetree.cli import _float_text, parse_config, write_solution_csv
from rbsdetree.instances import make_tree

SETTINGS = settings(max_examples=40, deadline=None, database=None)


def reference_solution_csv(path: Path, tree, gen, sol):
    """The node-by-node writer: every row through csv.writer, repr per cell."""
    mark_cols = [f"u_{label}" for label in tree.marks.labels]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["level", "node", "t", "w", "n_jumps", "y", "h", "z", *mark_cols, "dk", "k_cum", "residual"]
        )
        for k in range(tree.n_steps + 1):
            t = tree.grid.times[k]
            interior = k < tree.n_steps
            for i in range(tree.level_size(k)):
                row = [
                    k,
                    i,
                    repr(float(t)),
                    repr(float(tree.w[k][i])),
                    int(tree.n_jumps[k][i]),
                    repr(float(sol.y[k][i])),
                    repr(float(gen.h[k][i])),
                ]
                if interior:
                    z = sol.z[k][i] if sol.z is not None else 0.0
                    row.append(repr(float(z)))
                    row.extend(repr(float(v)) for v in sol.u[k][i])
                    row.append(repr(float(sol.dk[k][i])))
                    row.append(repr(float(sol.k_cum[k][i])))
                    row.append(repr(float(sol.residual[k][i])))
                else:
                    row.extend([""] * (len(mark_cols) + 1))
                    row.extend(["", repr(float(sol.k_cum[k][i])), ""])
                writer.writerow(row)


def _writer_bytes(tree, gen, sol, chunk=None, reference=True):
    """(new bytes, reference bytes or None), the new writer batching ``chunk`` rows if given."""
    saved = cli.CSV_CHUNK_ROWS
    cli.CSV_CHUNK_ROWS = chunk or saved
    try:
        with tempfile.TemporaryDirectory() as tmp:
            new = write_solution_csv(Path(tmp) / "new", tree, gen, sol).read_bytes()
            if not reference:
                return new, None
            ref = Path(tmp) / "reference.csv"
            reference_solution_csv(ref, tree, gen, sol)
            return new, ref.read_bytes()
    finally:
        cli.CSV_CHUNK_ROWS = saved


def _both_writers(raw: dict, chunk=None):
    """(new bytes, reference bytes, solution) for the solve of ``raw``."""
    run = cli._solve(parse_config(raw))
    return (*_writer_bytes(run.tree, run.spec, run.sol, chunk), run.sol)


coefficient = st.floats(-1.0, 1.0)


@st.composite
def configs(draw, mode):
    """A 1-3 step config in ``mode`` with drawn payoff, barrier and generator."""
    brownian = "none" if mode == "mpp-only" else draw(st.sampled_from(["binomial", "none"]))
    marks = ["e1", "e2"][: draw(st.integers(1, 2))]
    generator = {
        "family": "given" if mode != "picard" else "affine",
        "f": {"const": draw(coefficient), "tanh_w": draw(coefficient), "n": draw(coefficient)},
        "g": {"const": draw(coefficient), "t": draw(coefficient)},
    }
    if mode == "picard":
        generator.update(fa=draw(st.floats(0.0, 0.2)), fb=draw(st.floats(0.0, 0.3)),
                         ga=draw(st.floats(0.0, 0.2)), gz=draw(st.floats(0.0, 0.2)))
    return {
        "grid": {"n_steps": draw(st.integers(1, 3)), "horizon": 1.0},
        "marks": marks,
        "compensator": {"type": "linear", "rate": draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0)))},
        "brownian": brownian,
        "mode": mode,
        "terminal": {key: draw(coefficient) for key in ("const", "w", "n", "wn")},
        "barrier": {"base": draw(coefficient), "w": draw(coefficient), "leaf_slack": draw(st.floats(0.0, 0.5))},
        "generator": generator,
        "beta": 1.2,
    }


chunks = st.one_of(st.none(), st.integers(1, 40))


@SETTINGS
@given(raw=configs("given"), chunk=st.integers(1, 40))
def test_given_mode_matches_reference_writer(raw, chunk):
    new, ref, _ = _both_writers(raw, chunk)
    assert new == ref


@SETTINGS
@given(raw=configs("picard"), chunk=chunks)
def test_picard_mode_matches_reference_writer(raw, chunk):
    new, ref, _ = _both_writers(raw, chunk)
    assert new == ref


@SETTINGS
@given(raw=configs("mpp-only"), chunk=chunks)
def test_mpp_only_mode_matches_reference_writer(raw, chunk):
    new, ref, sol = _both_writers(raw, chunk)
    assert sol.z is None
    assert new == ref


def _writers_with_row_hash(row_hash, raw, chunk):
    """(new bytes, reference bytes) for ``raw`` with ``row_hash`` as the writer's row hash."""
    saved = cli._row_hash
    cli._row_hash = row_hash
    try:
        return _both_writers(raw, chunk)[:2]
    finally:
        cli._row_hash = saved


@SETTINGS
@given(raw=configs("given") | configs("picard") | configs("mpp-only"), chunk=chunks)
def test_rows_whose_hashes_all_collide_match_reference_writer(raw, chunk):
    """With every row hashed alike, each batch falls back to formatting every row."""
    new, ref = _writers_with_row_hash(lambda bits: np.zeros(bits.shape[1], dtype=np.uint64), raw, chunk)
    assert new == ref


@SETTINGS
@given(raw=configs("given") | configs("picard") | configs("mpp-only"), chunk=chunks)
def test_rows_whose_hashes_collide_within_a_level_match_reference_writer(raw, chunk):
    """With only the level hashed, a batch falls back when one of its levels has unequal rows."""
    new, ref = _writers_with_row_hash(lambda bits: bits[0].copy(), raw, chunk)
    assert new == ref


def test_rows_that_differ_only_in_the_sign_of_zero_stay_distinct():
    """Nodes 1 and 2 of each level share every field but the sign of one zero.

    With 1 or 3 rows per batch, nodes 1 and 2 of level 1 (file rows 2 and 3)
    fall into different batches, so the per-file row memo must tell them apart.
    """
    tree = make_tree(2, 1.0, ("a", "b"), rate=0.9, n_brownian=1)
    sizes = [tree.level_size(k) for k in range(tree.n_steps + 1)]
    assert tree.n_jumps[1][1] == tree.n_jumps[1][2] and tree.n_jumps[2][1] == tree.n_jumps[2][2]

    def signed_zeros(n):
        x = np.zeros(n)
        x[2:3] = -0.0
        return x

    sol = RbsdeSolution(
        y=[signed_zeros(n) for n in sizes],
        u=[np.full((n, 2), 0.25) for n in sizes[:-1]],
        z=None,
        dk=[signed_zeros(n) for n in sizes[:-1]],
        k_cum=[np.full(n, 1.5) for n in sizes],
        residual=[np.zeros(n) for n in sizes[:-1]],
    )
    gen = GeneratorSpec(xi=np.zeros(sizes[-1]), h=[np.full(n, -1.0) for n in sizes])
    for chunk in (None, 1, 2, 3, 7):
        new, ref = _writer_bytes(tree, gen, sol, chunk)
        assert new == ref
        lines = new.decode().split("\r\n")
        assert lines[3].startswith("1,1,0.5,0.0,1,0.0,") and lines[4].startswith("1,2,0.5,0.0,1,-0.0,")
        assert lines[6].startswith("2,1,1.0,0.0,1,0.0,") and lines[7].startswith("2,2,1.0,0.0,1,-0.0,")


def _leaf_rows(lo: int, hi: int):
    """The text ``_csv_rows`` gives rows [lo, hi) of a one-level tree with ``hi`` leaves."""
    n = np.broadcast_to(0.0, hi)
    tree = SimpleNamespace(n_marks=1, n_steps=0, grid=SimpleNamespace(times=[0.0]), w=[n], n_jumps=[n])
    sol = SimpleNamespace(y=[n], k_cum=[n])
    return cli._csv_rows(tree, SimpleNamespace(h=[n]), sol, [(0, lo, hi)], {}).split("\r\n")[:-1]


@pytest.mark.parametrize("lo, hi", [(0, 7), (990, 2010), (999_990, 1_000_011), (12_345_670, 12_345_680)])
def test_node_index_text_is_str_of_the_index(lo, hi):
    rows = _leaf_rows(lo, hi)
    assert [row.split(",")[1] for row in rows] == [str(i) for i in range(lo, hi)]
    assert all(row == f"0,{i},0.0,0.0,0,0.0,0.0,,,,0.0," for i, row in zip(range(lo, hi), rows))


def test_mark_label_with_comma_is_quoted_in_header():
    raw = {
        "grid": {"n_steps": 2, "horizon": 1.0},
        "marks": ["a,b", "c"],
        "compensator": {"type": "linear", "rate": 0.7},
        "terminal": {"w": 1.0, "n": 0.5},
        "barrier": {"base": 0.2},
    }
    new, ref, _ = _both_writers(raw)
    assert new.split(b"\r\n")[0].endswith(b',z,"u_a,b",u_c,dk,k_cum,residual')
    assert new == ref


LEAF_HEAVY = {
    "grid": {"n_steps": 8, "horizon": 1.0},
    "marks": ["e1"],
    "compensator": {"type": "linear", "rate": 0.9},
    "terminal": {"w": 1.0, "n": -0.3},
    "barrier": {"base": 0.1, "w": 0.2, "leaf_slack": 0.1},
    "generator": {"f": {"const": 0.3, "tanh_w": -0.2}},
}


def test_leaf_level_larger_than_one_chunk():
    new, ref, sol = _both_writers(LEAF_HEAVY)
    assert len(sol.y[-1]) > cli.CSV_CHUNK_ROWS
    assert new == ref


def _leaf_heavy_problem():
    """The 8-step, 65,536-leaf problem of ``test_leaf_level_larger_than_one_chunk``."""
    run = cli._solve(parse_config(LEAF_HEAVY))
    assert run.tree.n_leaves == 65_536
    return run.tree, run.spec, run.sol


def test_batches_that_split_thousand_blocks_and_levels_match_reference_writer():
    tree, gen, sol = _leaf_heavy_problem()
    with tempfile.TemporaryDirectory() as tmp:
        ref = Path(tmp) / "reference.csv"
        reference_solution_csv(ref, tree, gen, sol)
        ref = ref.read_bytes()
    for chunk in (999, 1001, 4097):
        assert _writer_bytes(tree, gen, sol, chunk, reference=False)[0] == ref


def test_each_distinct_row_is_formatted_once_per_file(monkeypatch):
    tree, gen, sol = _leaf_heavy_problem()
    formatted = []
    real = cli._float_text
    monkeypatch.setattr(cli, "_float_text", lambda v: formatted.append(len(v)) or real(v))
    new = _writer_bytes(tree, gen, sol, 999, reference=False)[0]
    # A row's text after its node index, with its level, is fixed by its bits.
    distinct = {(row.split(",", 2)[0], row.split(",", 2)[2]) for row in new.decode().split("\r\n")[1:-1]}
    assert sum(formatted) == len(distinct) * (8 + tree.n_marks)


SPECIAL = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e-05, 1e16, 0.1, 123456789.0]


def test_float_text_is_repr_of_each_special_value():
    values = np.array(SPECIAL + SPECIAL[::-1])
    assert _float_text(values) == [repr(float(x)) for x in values]


def test_float_text_is_repr_on_an_all_distinct_column():
    rng = np.random.default_rng(5)
    values = rng.normal(size=5000) * 10.0 ** rng.integers(-300, 300, size=5000)
    assert len(np.unique(values)) == len(values)
    assert _float_text(values) == [repr(float(x)) for x in values]
    assert _float_text(values[::3]) == [repr(float(x)) for x in values[::3]]
