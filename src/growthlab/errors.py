"""Exception types shared across the package.

The CLI maps these onto process exit codes, so modules should raise the
most specific type that applies rather than bare ValueError when the
condition is budget- or input-related.
"""


class GrowthlabError(Exception):
    """Base class for package-specific errors."""


class ParseError(GrowthlabError, ValueError):
    """Malformed textual input (words, group specs, experiment specs).

    args[0] is the message without its position, so the error can be
    placed again; str() appends the position.
    """

    def __init__(self, message: str, line: int = 1, column: int | None = None):
        self.line = line
        self.column = column
        super().__init__(message)

    def __str__(self) -> str:
        message = super().__str__()
        if self.column is None:
            return message
        return f"{message} (line {self.line}, column {self.column})"


class GroupMismatchError(GrowthlabError, ValueError):
    """Elements of different groups were combined."""


class BudgetError(GrowthlabError, RuntimeError):
    """Base for all exhausted-budget conditions (exit code 2)."""


class BallBudgetError(BudgetError):
    """Ball enumeration hit the element cap before reaching the radius."""

    def __init__(self, radius_reached: int, target_radius: int, budget: int):
        self.radius_reached = radius_reached
        self.target_radius = target_radius
        self.budget = budget
        super().__init__(
            f"element budget {budget} exhausted at radius {radius_reached} "
            f"while enumerating to radius {target_radius}"
        )


class OracleBudgetError(BudgetError):
    """Budgeted subgroup enumeration passed its element cap.

    radius_reached is the last generator-word radius fully enumerated.
    """

    def __init__(self, cap: int, radius_reached: int, target_radius: int):
        self.cap = cap
        self.radius_reached = radius_reached
        self.target_radius = target_radius
        super().__init__(
            f"budgeted oracle exceeded element cap {cap} after radius "
            f"{radius_reached} of {target_radius}"
        )


class SearchDepthError(BudgetError):
    """Iterative-deepening word search exceeded its depth cap."""

    def __init__(self, element_text: str, depth_cap: int):
        self.element_text = element_text
        self.depth_cap = depth_cap
        super().__init__(
            f"subgroup-generator search for {element_text} exceeded depth cap {depth_cap}"
        )


class TupleBudgetError(BudgetError):
    """Exhaustive quadruple scan would exceed the tuple cap."""

    def __init__(self, needed: int, cap: int):
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"exhaustive scan needs {needed} quadruples, above the cap {cap}; "
            "use random mode or raise tuple_cap explicitly"
        )


class AmbiguityBudgetError(BudgetError):
    """Fiber measurement ran out of pair budget; carries the partial report."""

    def __init__(self, pairs_needed: int, budget: int, partial):
        self.pairs_needed = pairs_needed
        self.budget = budget
        self.partial = partial
        self.cells_kept = len(partial.cells)
        super().__init__(
            f"fiber grid needs {pairs_needed} pairs, above the budget {budget}; "
            f"partial report of {self.cells_kept} cells attached"
        )


class DependenceError(GrowthlabError, ValueError):
    """Connector elements share a common power, so no kit exists for them."""


class HypothesisViolationError(GrowthlabError, RuntimeError):
    """A growth-rate hypothesis failed its exhaustive check (exit code 3)."""


class InvariantViolationError(GrowthlabError, RuntimeError):
    """An internal mathematical invariant failed; indicates a bug or bad input."""


class UnsupportedConfigurationError(GrowthlabError, ValueError):
    """The requested computation is not defined for this group shape."""
