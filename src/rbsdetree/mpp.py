"""Marked point process model: mark set, compensator, simulation, counting.

The jump measure is specified by a continuous cumulative compensator A and a
mark kernel phi_t(de) on a finite mark set, so the intensity measure of the
process is phi_t(de) dA_t.  On a time grid the step (t_k, t_{k+1}] carries at
most one event, occurring with probability 1 - exp(-dA_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonMonotoneCompensator


@dataclass(frozen=True)
class MarkSet:
    """Ordered finite set of mark labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ValueError("mark set must contain at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("mark labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class CompensatorSpec:
    """Cumulative compensator A(t) and mark kernel phi(t) on a finite mark set.

    ``a_fn`` maps time to the cumulative compensator value (A(0) = 0,
    nondecreasing).  ``phi_fn`` maps time to a probability vector over marks.
    """

    a_fn: Callable[[float], float]
    phi_fn: Callable[[float], np.ndarray]

    @staticmethod
    def linear(rate: float, phi: Sequence[float]) -> "CompensatorSpec":
        """A(t) = rate * t with a time-constant mark kernel."""
        if rate < 0:
            raise NonMonotoneCompensator(f"negative rate {rate}")
        p = _check_kernel(np.asarray(phi, dtype=float))
        return CompensatorSpec(lambda t: rate * t, lambda t: p)

    @staticmethod
    def piecewise(
        breakpoints: Sequence[float],
        values: Sequence[float],
        phi_rows: Sequence[Sequence[float]],
    ) -> "CompensatorSpec":
        """Piecewise-linear A through (breakpoints, values); kernel per segment.

        ``phi_rows`` holds one probability vector per breakpoint; the kernel at
        time t is the row of the last breakpoint <= t.
        """
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if bp.ndim != 1 or bp.shape != vals.shape or len(bp) < 2:
            raise ValueError("breakpoints and values must be 1-d of equal length >= 2")
        if bp[0] != 0.0 or vals[0] != 0.0:
            raise ValueError("compensator must start at A(0) = 0")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(np.diff(vals) < 0):
            raise NonMonotoneCompensator("piecewise values decrease")
        rows = np.asarray(phi_rows, dtype=float)
        if rows.shape[0] != len(bp):
            raise ValueError("need one kernel row per breakpoint")
        for r in rows:
            _check_kernel(r)

        def a_fn(t: float) -> float:
            return float(np.interp(t, bp, vals))

        def phi_fn(t: float) -> np.ndarray:
            i = int(np.searchsorted(bp, t, side="right")) - 1
            return rows[max(i, 0)]

        return CompensatorSpec(a_fn, phi_fn)

    def increments(self, times: np.ndarray) -> np.ndarray:
        """Compensator increments over the grid steps; raises on decrease."""
        a = np.array([self.a_fn(t) for t in times], dtype=float)
        da = np.diff(a)
        if np.any(da < 0) or not np.all(np.isfinite(da)):
            raise NonMonotoneCompensator(f"negative or non-finite increment in {da}")
        return da

    def kernel_on_grid(self, times: np.ndarray, n_marks: int) -> np.ndarray:
        """Kernel evaluated at the left endpoint of each step, shape (N, m)."""
        rows = np.empty((len(times) - 1, n_marks))
        for k, t in enumerate(times[:-1]):
            rows[k] = _check_kernel(np.asarray(self.phi_fn(t), dtype=float))
        return rows


def _check_kernel(p: np.ndarray) -> np.ndarray:
    if p.ndim != 1 or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"mark kernel must be a probability vector, got {p}")
    return p


@dataclass(frozen=True)
class MppPath:
    """Realized event times and mark labels on [0, horizon]."""

    events: tuple[tuple[float, str], ...]
    horizon: float

    def __post_init__(self):
        times = [t for t, _ in self.events]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("event times must be strictly increasing")
        if any(t <= 0 or t > self.horizon for t in times):
            raise ValueError("event times must lie in (0, horizon]")


def simulate_path(spec: CompensatorSpec, marks: MarkSet, grid, seed: int) -> MppPath:
    """Draw one path: per step an event with probability 1 - exp(-dA_k).

    Event times are reported at the right endpoint of their step; marks are
    drawn from the kernel at the left endpoint.  Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    times = grid.times
    da = spec.increments(times)
    p_event = -np.expm1(-da)
    uniforms = rng.random(len(da))
    events = []
    for k, (u, p) in enumerate(zip(uniforms, p_event)):
        if u < p:
            phi = spec.phi_fn(times[k])
            e = rng.choice(marks.size, p=phi)
            events.append((float(times[k + 1]), marks.labels[int(e)]))
    return MppPath(events=tuple(events), horizon=float(times[-1]))


def counting_process(path: MppPath, grid) -> np.ndarray:
    """Number of events up to each grid time, shape (N+1,), N_0 = 0."""
    if abs(path.horizon - grid.horizon) > 1e-12:
        raise ValueError("path horizon does not match grid horizon")
    event_times = np.array([t for t, _ in path.events])
    out = np.zeros(len(grid.times), dtype=np.int64)
    for i, t in enumerate(grid.times):
        out[i] = int(np.count_nonzero(event_times <= t + 1e-15))
    return out

