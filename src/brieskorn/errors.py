"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class BrieskornError(Exception):
    """Base class for all errors raised by this package."""


class NonPositive(BrieskornError):
    """A Brieskorn triple component is smaller than 1."""


class NotPairwiseCoprime(BrieskornError):
    """Two components of a would-be Brieskorn triple share a factor."""


class DegenerateTriple(BrieskornError):
    """Operation needs all triple components > 1 (the triple denotes S^3)."""


class UnknownFamily(BrieskornError):
    """Family identifier is not one of the built-in families."""


class InadmissibleN(BrieskornError):
    """The parameter n is outside the family's admissible set."""


class InvalidFraction(BrieskornError):
    """Continued-fraction input violates 0 < b < a with gcd(a, b) = 1."""


class NotStarShaped(BrieskornError):
    """Graph is not a three-legged star with canonical leg weights."""


class SingularMatrix(BrieskornError):
    """Signature requested for a matrix with determinant zero."""


class EvenDeterminant(BrieskornError):
    """Wu class requested for a form that is singular over GF(2)."""


class NotUnimodular(BrieskornError):
    """Operation requires |det| = 1."""


class NotNegativeDefinite(BrieskornError):
    """mu-bar is only computed in the negative-definite regime."""


class IllegalBlowdown(BrieskornError):
    """Blow-down target does not carry framing +1 or -1."""


class SameComponent(BrieskornError):
    """Handle slide needs two distinct components."""


class DuplicateLabel(BrieskornError):
    """Blow-up label collides with an existing component."""


class UnsupportedFamily(BrieskornError):
    """No scripted reduction for this family, or a member above a size cap."""


class ScriptFormatError(BrieskornError):
    """Script file is not valid JSON or violates the script schema."""


class StepIllegal(BrieskornError):
    """A replayed move is illegal at its step.

    Carries the 0-based move index, a reason string and the trace of the
    steps executed so far.
    """

    def __init__(self, index: int, reason: str, trace=None):
        super().__init__(f"step {index}: {reason}")
        self.index = index
        self.reason = reason
        self.trace = trace


class FinalMismatch(BrieskornError):
    """Replay reached a legal final state that differs from `expect`.

    Carries a textual diff and the full trace.
    """

    def __init__(self, diff: str, trace=None):
        super().__init__(diff)
        self.diff = diff
        self.trace = trace


class NotDivisibleBy8(BrieskornError):
    """Lattice signature not divisible by 8; signals an implementation bug."""
