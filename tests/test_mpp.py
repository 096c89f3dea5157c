import numpy as np
import pytest

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

