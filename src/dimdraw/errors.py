"""Exception types shared across the package."""

from __future__ import annotations

_LISTED_OFFENDERS = 10  # the most offenders a RepairFailed message names


class DimDrawError(Exception):
    """Base class for every error raised by this package."""


class ParseError(DimDrawError):
    """Malformed input text; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CycleError(DimDrawError):
    """A poset input contains a cycle; ``witness`` is a closed path of names."""

    def __init__(self, witness: list[str]):
        self.witness = list(witness)
        super().__init__("cycle detected: " + " < ".join(self.witness))


class LatticeTooLargeError(DimDrawError):
    """A fixed cap was passed: more than CONCEPT_CAP concepts or ASSIGNMENT_CAP axes."""


class SearchTimeout(DimDrawError):
    """A Ferrers-cover search exhausted its time budget for one value of k.

    This is an *undecided* outcome: it never asserts that no cover exists.
    """


class DimensionUndecided(DimDrawError):
    """The dimension search could not decide; ``known_lower_bound`` is proven."""

    def __init__(self, known_lower_bound: int, detail: str):
        self.known_lower_bound = known_lower_bound
        super().__init__(
            f"dimension >= {known_lower_bound}, undecided above ({detail})"
        )


class ContractViolation(DimDrawError):
    """An internal invariant did not hold; indicates a bug, not bad input."""


class RepairFailed(DimDrawError):
    """Node/edge incidence repair gave up; ``offenders`` lists (node, (u, v))."""

    def __init__(self, offenders: list[tuple[int, tuple[int, int]]]):
        self.offenders = list(offenders)
        listing = ", ".join(f"node {n} on edge {e}"
                            for n, e in self.offenders[:_LISTED_OFFENDERS])
        if len(self.offenders) > _LISTED_OFFENDERS:
            listing += (f", and {len(self.offenders) - _LISTED_OFFENDERS} more"
                        f" ({len(self.offenders)} in all)")
        super().__init__(f"could not clear node/edge incidences: {listing}")
