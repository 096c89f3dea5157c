"""solution.csv is byte-equal to the one-row-at-a-time writer it replaced."""

import csv
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsdetree import GeneratorSpec, RbsdeSolution, cli
from rbsdetree.cli import _float_text, parse_config, write_solution_csv
from rbsdetree.instances import make_tree

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
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
                    row.append(repr(float(sol.z[k][i])))
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
    assert all(z.tobytes() == np.zeros_like(z).tobytes() for z in sol.z)  # +0.0 at every node
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
        z=[np.zeros(n) for n in sizes[:-1]],
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


STATE_TREE = make_tree(3, 1.0, ("a", "b"), rate=0.9, n_brownian=2)


def _level_constant_problem():
    """(tree, gen, sol) on ``STATE_TREE`` whose solution fields are constant on each level.

    A row is then fixed by its node's (w, n_jumps), so each row equals its
    candidate, the same branch below the node that stands for its parent's
    group; the two jump branches give equal rows, so a group can have more
    than one member.
    """
    sizes = [STATE_TREE.level_size(k) for k in range(STATE_TREE.n_steps + 1)]
    sol = RbsdeSolution(
        y=[np.full(n, 0.5) for n in sizes],
        u=[np.full((n, 2), 0.125) for n in sizes[:-1]],
        z=[np.full(n, 0.25) for n in sizes[:-1]],
        dk=[np.full(n, 0.75) for n in sizes[:-1]],
        k_cum=[np.full(n, 1.5) for n in sizes],
        residual=[np.full(n, 2.5) for n in sizes[:-1]],
    )
    return STATE_TREE, GeneratorSpec(xi=sol.y[-1], h=[np.full(n, -1.0) for n in sizes]), sol


def _recorded_groups(monkeypatch) -> list:
    """The (slot, cand, group) of each level that the writer groups from here on."""
    levels, real = [], cli._level_groups

    def record(columns, slot, cand):
        group, first, keys = real(columns, slot, cand)
        levels.append((slot, cand, group))
        return group, first, keys

    monkeypatch.setattr(cli, "_level_groups", record)
    return levels


ONE_FIELD = [(level, field, change)
             for level, fields in [(2, ("w", "n_jumps", "y", "h", "z", "u_a", "u_b", "dk", "k_cum", "residual")),
                                   (3, ("w", "n_jumps", "y", "h", "k_cum"))]
             for field in fields for change in ("value", "sign-of-zero")
             if (field, change) != ("n_jumps", "sign-of-zero")]  # n_jumps is an integer


@pytest.mark.parametrize("level, field, change", ONE_FIELD, ids=["-".join(map(str, case)) for case in ONE_FIELD])
def test_a_row_that_differs_from_its_candidate_in_one_field_matches_reference_writer(
        monkeypatch, level, field, change):
    """The level's last node, below the second jump branch, is not its own candidate.  Its row
    differs from its candidate's in ``field`` alone (``u_a`` and ``u_b`` are the columns of U):
    by one, or as -0.0 where the level holds 0.0."""
    tree, gen, sol = _level_constant_problem()
    levels = _recorded_groups(monkeypatch)
    _writer_bytes(tree, gen, sol, reference=False)
    slot, cand, _ = levels[level]
    last = len(slot) - 1
    assert cand[slot[last]] != last
    name = "u" if field.startswith("u_") else field
    owner = {"w": "tree", "n_jumps": "tree", "h": "gen"}.get(name, "sol")
    arrays = list(getattr({"tree": tree, "gen": gen, "sol": sol}[owner], name))
    x = arrays[level] = arrays[level].copy()
    if name == "u":
        x = x[:, tree.marks.labels.index(field[2:])]
    if change == "sign-of-zero":
        x[...] = 0.0
        x[last] = -0.0
    else:
        x[last] += 1
    if owner == "tree":
        tree = replace(tree, **{name: arrays})
    elif owner == "gen":
        gen = replace(gen, h=arrays)
    else:
        sol = replace(sol, **{name: arrays})
    for chunk in (None, 5):
        new, ref = _writer_bytes(tree, gen, sol, chunk)
        assert new == ref


def _distinct_rows(text: bytes) -> list:
    """The number of distinct rows on each level of a solution.csv, node index aside."""
    rows = {}
    for row in text.decode().split("\r\n")[1:-1]:
        level, _, tail = row.split(",", 2)
        rows.setdefault(int(level), set()).add(tail)
    return [len(rows[k]) for k in sorted(rows)]


def _formatted_values(monkeypatch) -> list:
    """The number of values of each ``_float_text`` call from here on."""
    counts, real = [], cli._float_text
    monkeypatch.setattr(cli, "_float_text", lambda v: counts.append(len(v)) or real(v))
    return counts


def _values_per_file(tree, distinct) -> int:
    """t once per level, then w, y, h, z, u..., dk, k_cum and residual of each distinct row (leaf rows:
    w, y, h and k_cum)."""
    width = [7 + tree.n_marks] * tree.n_steps + [4]
    return sum(1 + d * w for d, w in zip(distinct, width))


def test_equal_rows_under_different_parent_groups_are_formatted_once(monkeypatch):
    """Up-then-down and down-then-up reach w = 0.0 bit for bit, below parents whose rows differ.
    The two candidates are representatives with equal bits, so they share one group."""
    tree = make_tree(2, 1.0, ("e1",), rate=0.0, n_brownian=2)
    assert [tree.level_size(k) for k in range(3)] == [1, 2, 4]
    assert tree.w[2][1] == tree.w[2][2] == 0.0 and tree.w[1][0] != tree.w[1][1]
    sizes = [1, 2, 4]
    sol = RbsdeSolution(y=[2 * w for w in tree.w], u=[np.zeros((n, 1)) for n in sizes[:-1]],
                        z=[np.ones(n) for n in sizes[:-1]], dk=[np.zeros(n) for n in sizes[:-1]],
                        k_cum=[np.zeros(n) for n in sizes], residual=[np.zeros(n) for n in sizes[:-1]])
    gen = GeneratorSpec(xi=sol.y[-1], h=[w - 2.0 for w in tree.w])
    counts = _formatted_values(monkeypatch)
    new, ref = _writer_bytes(tree, gen, sol)
    assert new == ref
    assert _distinct_rows(new) == [1, 2, 3]
    assert counts == [_values_per_file(tree, [1, 2, 3])]


def test_a_level_where_no_candidate_matches_matches_reference_writer(monkeypatch):
    """With a random Y, no row equals another, so every node but the candidates differs from its
    candidate and stands for itself."""
    run = cli._solve(parse_config(yaml.safe_load((CONFIGS / "picard_affine.yaml").read_text())))
    rng = np.random.default_rng(3)
    sol = replace(run.sol, y=[rng.normal(size=len(y)) for y in run.sol.y])
    sizes = [run.tree.level_size(k) for k in range(run.tree.n_steps + 1)]
    counts = _formatted_values(monkeypatch)
    for chunk in (None, 1, 7):
        counts.clear()
        new, ref = _writer_bytes(run.tree, run.spec, sol, chunk)
        assert new == ref
        assert _distinct_rows(new) == sizes
        assert counts == [_values_per_file(run.tree, sizes)]


def test_branching_one_levels_and_a_jump_only_tree_match_reference_writer():
    """A compensator flat on [0, 1] and [3, 4] gives a jump-only tree branching 1, 2, 2, 1."""
    raw = {"grid": {"n_steps": 4, "horizon": 4.0}, "marks": ["e1"], "brownian": "none", "mode": "mpp-only",
           "compensator": {"type": "piecewise", "breakpoints": [0.0, 1.0, 3.0, 4.0],
                           "values": [0.0, 0.0, 1.2, 1.2], "phi_rows": [[1.0]] * 4},
           "terminal": {"n": 1.0}, "barrier": {"base": 0.4}, "generator": {"f": {"const": 0.1, "n": 0.05}}}
    run = cli._solve(parse_config(raw))
    assert [run.tree.branching(k) for k in range(4)] == [1, 2, 2, 1]
    for chunk in (None, 1, 3):
        new, ref = _writer_bytes(run.tree, run.spec, run.sol, chunk)
        assert new == ref


@pytest.mark.parametrize("config", ["mpp_only", "picard_affine", "reflected_binomial"])
def test_every_row_of_a_shipped_solve_joins_its_candidates_group(monkeypatch, config):
    """The solve's fields are functions of the node state (and K of the path, which equal rows
    share), so every row equals the same branch below the node that stands for its parent's
    group: no row is a representative of its own."""
    run = cli._solve(parse_config(yaml.safe_load((CONFIGS / f"{config}.yaml").read_text())))
    levels = _recorded_groups(monkeypatch)
    new, ref = _writer_bytes(run.tree, run.spec, run.sol)
    assert new == ref
    for slot, cand, group in levels:
        assert (group == group[cand[slot]]).all()


def _leaf_rows(lo: int, hi: int):
    """The text ``_node_rows`` gives leaf rows [lo, hi) of a one-level tree, each with an all-zero tail."""
    return cli._node_rows(0, lo, [",0.0,0.0,0,0.0,0.0,,,,0.0,\r\n"] * (hi - lo)).split("\r\n")[:-1]


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


def test_each_distinct_row_of_a_level_is_formatted_once(monkeypatch):
    """Among the leaf-heavy tree's rows, up-then-down and down-then-up give equal rows below
    different parent groups; with 999 rows per slice, the leaf level spans 66 slices."""
    tree, gen, sol = _leaf_heavy_problem()
    counts = _formatted_values(monkeypatch)
    new = _writer_bytes(tree, gen, sol, 999, reference=False)[0]
    assert counts == [_values_per_file(tree, _distinct_rows(new))]


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
