import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsdetree import (
    CompensatorSpec,
    MarkSet,
    MppPath,
    NonMonotoneCompensator,
    TimeGrid,
    counting_process,
    simulate_path,
)


def test_mark_set_basics():
    ms = MarkSet(("a", "b", "c"))
    assert ms.size == 3
    with pytest.raises(ValueError):
        MarkSet(())
    with pytest.raises(ValueError):
        MarkSet(("a", "a"))


def test_linear_compensator_increments():
    spec = CompensatorSpec.linear(0.7, [1.0])
    grid = TimeGrid.uniform(4, 2.0)
    da = spec.increments(grid.times)
    assert np.allclose(da, 0.7 * 0.5)
    with pytest.raises(NonMonotoneCompensator):
        CompensatorSpec.linear(-1.0, [1.0])


def test_piecewise_compensator():
    spec = CompensatorSpec.piecewise(
        breakpoints=[0.0, 0.5, 1.0],
        values=[0.0, 0.2, 1.0],
        phi_rows=[[0.5, 0.5], [0.9, 0.1], [0.9, 0.1]],
    )
    grid = TimeGrid.uniform(4, 1.0)
    da = spec.increments(grid.times)
    assert np.allclose(da, [0.1, 0.1, 0.4, 0.4])
    phi = spec.kernel_on_grid(grid.times, 2)
    assert np.allclose(phi[0], [0.5, 0.5])
    assert np.allclose(phi[2], [0.9, 0.1])
    with pytest.raises(NonMonotoneCompensator):
        CompensatorSpec.piecewise([0.0, 1.0], [0.0, -0.1], [[1.0], [1.0]])


def test_kernel_must_be_probability_vector():
    with pytest.raises(ValueError):
        CompensatorSpec.linear(1.0, [0.3, 0.3])


def test_path_validation():
    with pytest.raises(ValueError):
        MppPath(events=((0.5, "a"), (0.5, "b")), horizon=1.0)
    with pytest.raises(ValueError):
        MppPath(events=((1.5, "a"),), horizon=1.0)


def test_simulate_path_deterministic():
    spec = CompensatorSpec.linear(1.0, [0.6, 0.4])
    marks = MarkSet(("a", "b"))
    grid = TimeGrid.uniform(8, 1.0)
    p1 = simulate_path(spec, marks, grid, seed=42)
    p2 = simulate_path(spec, marks, grid, seed=42)
    assert p1 == p2
    for t, label in p1.events:
        assert label in marks.labels
        assert any(abs(t - g) < 1e-12 for g in grid.times[1:])


def test_simulated_event_frequency_three_sigma():
    spec = CompensatorSpec.linear(1.2, [1.0])
    marks = MarkSet(("a",))
    grid = TimeGrid.uniform(5, 1.0)
    p = -np.expm1(-spec.increments(grid.times))
    n = 4000
    counts = np.array(
        [len(simulate_path(spec, marks, grid, seed=s).events) for s in range(n)]
    )
    expected = p.sum()
    sigma = np.sqrt(np.sum(p * (1 - p)) / n)
    assert abs(counts.mean() - expected) <= 3 * sigma


def test_counting_process():
    grid = TimeGrid.uniform(4, 1.0)
    path = MppPath(events=((0.25, "a"), (0.75, "a")), horizon=1.0)
    assert counting_process(path, grid).tolist() == [0, 1, 1, 2, 2]



# The compensator as per-time closures, with the per-time loops that evaluated it on a grid:
# the reference that the array evaluation must match bit for bit.
def _reference_closures(rate=None, breakpoints=None, values=None, rows=None):
    if rate is not None:
        p = np.asarray(rows[0], dtype=float)
        return (lambda t: rate * t), (lambda t: p)
    bp, vals, rows = (np.asarray(x, dtype=float) for x in (breakpoints, values, rows))

    def a_fn(t):
        return float(np.interp(t, bp, vals))

    def phi_fn(t):
        i = int(np.searchsorted(bp, t, side="right")) - 1
        return rows[max(i, 0)]

    return a_fn, phi_fn


def _reference_grid(a_fn, phi_fn, times, n_marks):
    da = np.diff(np.array([a_fn(t) for t in times], dtype=float))
    rows = np.empty((len(times) - 1, n_marks))
    for k, t in enumerate(times[:-1]):
        rows[k] = phi_fn(t)
    return da, rows


def _reference_counting(path, grid):
    event_times = np.array([t for t, _ in path.events])
    out = np.zeros(len(grid.times), dtype=np.int64)
    for i, t in enumerate(grid.times):
        out[i] = int(np.count_nonzero(event_times <= t + 1e-15))
    return out


@st.composite
def _kernel_rows(draw, n_rows, n_marks):
    rows = []
    for _ in range(n_rows):
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n_marks, max_size=n_marks)))
        rows.append(w / w.sum() if w.sum() > 0 else np.eye(n_marks)[0])
    return rows


@st.composite
def _compensators(draw):
    """(constructor keywords, uniform grid): a linear A, rate 0 included, or a piecewise A whose
    breakpoints are grid times, other times or both, ending before or past the horizon, with
    flat segments among its pieces."""
    n_steps, horizon = draw(st.integers(1, 24)), draw(st.sampled_from([1.0, 0.3, 2.5, 7.0]))
    grid = TimeGrid.uniform(n_steps, horizon)
    n_marks = draw(st.integers(1, 3))
    if draw(st.booleans()):
        rate = draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0)))
        return dict(rate=rate, rows=draw(_kernel_rows(1, n_marks))), grid, n_marks
    on_grid = draw(st.lists(st.sampled_from(grid.times[1:].tolist()), max_size=6))
    off_grid = draw(st.lists(st.floats(1e-6, 2 * horizon), max_size=4))
    bp = sorted({0.0, *on_grid, *off_grid})
    if len(bp) < 2:
        bp.append(draw(st.sampled_from([horizon / 2, horizon, 1.5 * horizon])))
    rises = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=len(bp) - 1,
                          max_size=len(bp) - 1))
    values = np.concatenate([[0.0], np.cumsum(rises)]).tolist()
    return dict(breakpoints=bp, values=values, rows=draw(_kernel_rows(len(bp), n_marks))), grid, n_marks


@settings(max_examples=300, deadline=None, database=None)
@given(_compensators(), st.integers(0, 2**32 - 1))
def test_grid_evaluation_matches_the_per_time_closures_bit_for_bit(case, seed):
    kw, grid, n_marks = case
    if "rate" in kw:
        spec = CompensatorSpec.linear(kw["rate"], kw["rows"][0])
    else:
        spec = CompensatorSpec.piecewise(kw["breakpoints"], kw["values"], kw["rows"])
    # On the grid, and on its times shifted to start before 0, where the first kernel row holds.
    for times in grid.times, grid.times - grid.horizon / 3:
        da, rows = _reference_grid(*_reference_closures(**kw), times, n_marks)
        assert spec.increments(times).tobytes() == da.tobytes()
        assert spec.kernel_on_grid(times, n_marks).tobytes() == rows.tobytes()
    # Events on grid times, within and past the counting tolerance of one, and between them.
    rng = np.random.default_rng(seed)
    times = grid.times[1:]
    candidates = np.concatenate([times, np.nextafter(times, 0.0), times + 1e-15, times - 2e-15,
                                 rng.uniform(0.0, grid.horizon, 4)])
    inside = (candidates > 0) & (candidates <= grid.horizon)
    chosen = np.unique(candidates[inside & (rng.random(len(candidates)) < 0.4)])
    path = MppPath(events=tuple((float(t), "a") for t in chosen), horizon=grid.horizon)
    assert counting_process(path, grid).tolist() == _reference_counting(path, grid).tolist()
    sample = simulate_path(spec, MarkSet(("a", "b", "c")[:n_marks]), grid, seed)
    assert counting_process(sample, grid).tolist() == _reference_counting(sample, grid).tolist()


@pytest.mark.parametrize("row", [[0.3, 0.3], [1.5, -0.5], [np.nan, 1.0], [0.5, 0.5 + 1e-9]])
def test_a_directly_built_compensator_rejects_a_row_that_is_not_a_probability_vector(row):
    with pytest.raises(ValueError, match="probability vector"):
        CompensatorSpec(np.array([row]), rate=1.0)
    with pytest.raises(ValueError, match="probability vector"):
        CompensatorSpec(np.array([[0.5, 0.5], row]), breakpoints=[0.0, 1.0], values=[0.0, 1.0])


def test_a_compensator_needs_a_rate_or_breakpoints_and_one_row_for_each():
    with pytest.raises(ValueError):
        CompensatorSpec(np.array([[1.0]]))
    with pytest.raises(ValueError):
        CompensatorSpec(np.array([[1.0], [1.0]]), rate=1.0, breakpoints=[0.0, 1.0], values=[0.0, 1.0])
    with pytest.raises(ValueError, match="one kernel row per breakpoint"):
        CompensatorSpec(np.array([[1.0], [1.0]]), rate=1.0)
    with pytest.raises(ValueError, match="one kernel row per breakpoint"):
        CompensatorSpec.piecewise([0.0, 0.5, 1.0], [0.0, 0.1, 0.2], [[1.0], [1.0]])
    with pytest.raises(ValueError, match="has 1 marks, not 2"):
        CompensatorSpec.linear(1.0, [1.0]).kernel_on_grid(TimeGrid.uniform(2, 1.0).times, 2)
