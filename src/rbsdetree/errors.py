"""Exception types raised by the solver and its supporting machinery."""


class RbsdeTreeError(Exception):
    """Base class for all package errors."""


class NonMonotoneCompensator(RbsdeTreeError):
    """A cumulative compensator decreased between two grid points."""


class BudgetExceeded(RbsdeTreeError):
    """Tree construction would exceed the configured node budget.

    ``required`` counts the nodes of levels 0 to ``level``, where counting
    stopped: the whole tree when ``level`` is the last, else a lower bound.
    """

    def __init__(self, required: int, budget: int, level: int, n_steps: int):
        self.required = required
        self.budget = budget
        part = "" if level == n_steps else f" in its first {level + 1} of {n_steps + 1} levels"
        super().__init__(f"tree needs {required} nodes{part}, budget is {budget}")


class NotSupermartingale(RbsdeTreeError):
    """A process handed to the decomposition has a positive conditional drift."""


class EnumerationBudgetExceeded(RbsdeTreeError):
    """Too many interior nodes for exhaustive stopping-rule enumeration."""

    def __init__(self, n_interior: int, cap: int):
        self.n_interior = n_interior
        self.cap = cap
        super().__init__(f"{n_interior} interior nodes exceeds enumeration cap {cap}")


class BetaTooSmall(RbsdeTreeError):
    """The weight exponent does not satisfy the contraction hypothesis."""

    def __init__(self, beta: float, minimal: float):
        self.beta = beta
        self.minimal = minimal
        super().__init__(f"beta={beta} too small, need beta > {minimal}")


class BetaZero(RbsdeTreeError):
    """A weighted bound was requested with beta = 0."""


class NoConvergence(RbsdeTreeError):
    """Picard iteration hit the iteration cap before reaching tolerance."""

    def __init__(self, distances, tol: float):
        self.distances = list(distances)
        self.tol = tol
        last = f"last distance {self.distances[-1]:.3e}, " if self.distances else ""
        super().__init__(
            f"no convergence after {len(self.distances)} iterations ({last}tol {tol:.1e})"
        )


class ConfigInvalid(RbsdeTreeError):
    """A run configuration failed validation."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
