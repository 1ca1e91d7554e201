"""Exceptions shared across the package.

Geometric preconditions raise subclasses of GeometryError; file syntax
problems raise SpecSyntaxError / SpecSemanticError, which carry a line
number so the command line tool can point at the offending input.
"""


class GeometryError(ValueError):
    """Base class for violated geometric preconditions."""


class ZeroVector(GeometryError):
    def __init__(self):
        super().__init__("direction must be a nonzero integer vector")


class NonPrimitive(GeometryError):
    """An integer vector whose components share a factor > 1.

    Collapse vectors must be primitive, otherwise the boundary circle
    action is not free and the quotient is not a manifold.
    """

    def __init__(self, vector):
        self.vector = x, y = tuple(vector)
        super().__init__(f"vector {x},{y} is not primitive")


class ZeroSlopeSegment(GeometryError):
    """An angle profile is constant on one affine piece."""

    def __init__(self, segment):
        self.segment = segment
        super().__init__(f"profile is constant on segment {segment}; the form is not contact there")


class NonMonotone(GeometryError):
    """The slope of an angle profile changes sign between pieces."""

    def __init__(self, segment):
        self.segment = segment
        super().__init__(f"profile slope changes sign at segment {segment}")


class NonPositiveRadial(GeometryError):
    def __init__(self, t, value):
        self.t, self.value = t, value
        super().__init__(f"radial profile must be positive; value at t={t} is {value}")


class BadBreakpoints(GeometryError):
    """Profile breakpoints that are too few, not ascending, or span another domain."""


class OutsideDomain(GeometryError):
    def __init__(self, t, lo, hi):
        super().__init__(f"t={t} lies outside the domain [{lo}, {hi}]")


class InvalidCutSpec(GeometryError):
    """Raised by operations that need a valid cut spec; carries the violations."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        detail = "; ".join(v.message for v in self.violations)
        super().__init__(f"cut spec is invalid: {detail}")


class DomainMismatch(GeometryError):
    """Two forms on different parameter domains cannot be interpolated
    pointwise."""

    def __init__(self):
        super().__init__("forms must share their parameter domain")


class EndpointMismatch(GeometryError):
    """Two forms whose boundary angle directions differ cannot be joined by
    the straight-line plane-field homotopy."""

    def __init__(self, end, dir_a, dir_b):
        self.end = end
        a, b = (f"{d.x},{d.y}" for d in (dir_a, dir_b))
        super().__init__(f"boundary angle directions differ at t={end}: {a} vs {b}")


class _SpecError(Exception):
    """An error of an input file, at its line."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class SpecSyntaxError(_SpecError):
    """Malformed input file (bad key, bad literal, duplicate)."""


class SpecSemanticError(_SpecError):
    """Well-formed input describing bad geometry; wraps the cause."""
