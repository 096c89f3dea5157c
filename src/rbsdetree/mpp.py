"""Marked point process model: mark set, compensator, simulation, counting.

The jump measure is specified by a continuous cumulative compensator A and a
mark kernel phi_t(de) on a finite mark set, so the intensity measure of the
process is phi_t(de) dA_t.  On a time grid the step (t_k, t_{k+1}] carries at
most one event, occurring with probability 1 - exp(-dA_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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


@dataclass(frozen=True, eq=False)
class CompensatorSpec:
    """Cumulative compensator A and mark kernel phi on a finite mark set, held as data.

    A(t) = ``rate`` * t, or, without a rate, A is piecewise linear through
    (``breakpoints``, ``values``) from A(0) = 0.  ``kernels`` holds probability
    vectors over the marks: one row with a rate, else one per breakpoint, the
    kernel at time t being the row of the last breakpoint <= t.  Every field
    is checked once, on construction; equality is identity.
    """

    kernels: np.ndarray
    rate: Optional[float] = None
    breakpoints: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.rate is None) == (self.breakpoints is None):
            raise ValueError("need either a rate or breakpoints and values")
        if self.rate is not None and self.rate < 0:
            raise NonMonotoneCompensator(f"negative rate {self.rate}")
        if self.rate is None:
            bp, vals = np.asarray(self.breakpoints, dtype=float), np.asarray(self.values, dtype=float)
            if bp.ndim != 1 or bp.shape != vals.shape or len(bp) < 2:
                raise ValueError("breakpoints and values must be 1-d of equal length >= 2")
            if bp[0] != 0.0 or vals[0] != 0.0:
                raise ValueError("compensator must start at A(0) = 0")
            if np.any(np.diff(bp) <= 0):
                raise ValueError("breakpoints must be strictly increasing")
            if np.any(np.diff(vals) < 0):
                raise NonMonotoneCompensator("piecewise values decrease")
            object.__setattr__(self, "breakpoints", bp)
            object.__setattr__(self, "values", vals)
        kernels = np.asarray(self.kernels, dtype=float)
        if kernels.ndim != 2 or len(kernels) != (1 if self.rate is not None else len(self.breakpoints)):
            raise ValueError("need one kernel row per breakpoint, or one row with a rate")
        bad = ~(np.all(kernels >= 0, axis=1) & (np.abs(kernels.sum(axis=1) - 1.0) <= 1e-12))
        if np.any(bad):
            raise ValueError(f"mark kernel must be a probability vector, got {kernels[np.argmax(bad)]}")
        object.__setattr__(self, "kernels", kernels)

    @staticmethod
    def linear(rate: float, phi: Sequence[float]) -> "CompensatorSpec":
        """A(t) = rate * t with a time-constant mark kernel."""
        return CompensatorSpec([phi], rate=rate)

    @staticmethod
    def piecewise(breakpoints: Sequence[float], values: Sequence[float],
                  phi_rows: Sequence[Sequence[float]]) -> "CompensatorSpec":
        """Piecewise-linear A through (breakpoints, values); kernel per segment.

        ``phi_rows`` holds one probability vector per breakpoint; the kernel at
        time t is the row of the last breakpoint <= t.
        """
        return CompensatorSpec(phi_rows, breakpoints=breakpoints, values=values)

    def increments(self, times: np.ndarray) -> np.ndarray:
        """Compensator increments over the grid steps; raises on decrease."""
        times = np.asarray(times, dtype=float)
        a = self.rate * times if self.rate is not None else np.interp(times, self.breakpoints, self.values)
        da = np.diff(a)
        if np.any(da < 0) or not np.all(np.isfinite(da)):
            raise NonMonotoneCompensator(f"negative or non-finite increment in {da}")
        return da

    def kernel_on_grid(self, times: np.ndarray, n_marks: int) -> np.ndarray:
        """Kernel at the left endpoint of each step, shape (N, m); before the first breakpoint, the first row."""
        if self.kernels.shape[1] != n_marks:
            raise ValueError(f"the kernel has {self.kernels.shape[1]} marks, not {n_marks}")
        left = np.asarray(times, dtype=float)[:-1]
        rows = 0 if self.rate is not None else np.searchsorted(self.breakpoints, left, side="right") - 1
        return self.kernels[np.broadcast_to(np.maximum(rows, 0), left.shape)]


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
    drawn from the kernel at the left endpoint, one draw per event in step
    order after the step uniforms.  Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    times = grid.times
    p_event = -np.expm1(-spec.increments(times))
    phi = spec.kernel_on_grid(times, marks.size)
    uniforms = rng.random(len(p_event))
    events = []
    for k in np.flatnonzero(uniforms < p_event):
        e = rng.choice(marks.size, p=phi[k])
        events.append((float(times[k + 1]), marks.labels[int(e)]))
    return MppPath(events=tuple(events), horizon=float(times[-1]))


def counting_process(path: MppPath, grid) -> np.ndarray:
    """Number of events up to each grid time, shape (N+1,), N_0 = 0."""
    if abs(path.horizon - grid.horizon) > 1e-12:
        raise ValueError("path horizon does not match grid horizon")
    event_times = np.array([t for t, _ in path.events], dtype=float)  # increasing, as MppPath checks
    return np.searchsorted(event_times, grid.times + 1e-15, side="right")
