"""Exception types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Violation:
    """One violated domain constraint: which field, its value, and the constraint text."""

    field: str
    value: float
    constraint: str

    def __str__(self) -> str:
        # a numpy scalar reads as the Python value it equals; a longdouble
        # beyond float range has none and keeps its numpy repr
        value = self.value.item() if isinstance(self.value, np.generic) else self.value
        return f"{self.field}={value!r} violates: {self.constraint}"


class DcclscError(Exception):
    """Base class for all package errors."""


class OutOfDomain(DcclscError):
    """One or more inputs violate their domain constraints.

    All violations found in a single validation pass are collected and
    reported together rather than failing on the first one.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    @classmethod
    def single(cls, field: str, value: float, constraint: str) -> "OutOfDomain":
        return cls([Violation(field, value, constraint)])


class Singularity(DcclscError):
    """Evaluation at a zero denominator or within the guard band of its root."""

    def __init__(self, what: str, alpha: float, distance: float, guard: float):
        self.what = what
        self.alpha = alpha
        self.distance = distance
        self.guard = guard
        super().__init__(
            f"singular evaluation: {what} at alpha={alpha!r} "
            f"(distance {distance:.3e}, guard {guard:.3e})"
        )


class NonConcave(DcclscError):
    """A profit objective is not strictly concave where a maximizer was requested."""
