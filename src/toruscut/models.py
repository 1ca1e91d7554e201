"""Stock examples: the sphere family, lens cut data, and the long line form.

These are the forms the rest of the package is exercised on.  alpha_form(k)
rotates from angle 0 to (4k+1) pi/2 at unit radius; with collapse vectors
(0, 1) and (1, 0) it cuts to the 3-sphere carrying the k-th structure in
the family, whose ray-count invariant distinguishes every k.  lens_cutspec
builds the cut datum whose cut space is the lens space with slope -k/l,
and rotating_line_form is the infinite-cylinder form (truncated to a few
turns) whose moment slices are the S^1 x S^2 pieces.
"""

from __future__ import annotations

from fractions import Fraction

from .angles import Angle, Direction, angle_compare, angle_of_quarters, direction_angle
from .cuts import CutSpec
from .forms import AngleProfile, InvariantContactForm


def alpha_form(k: int) -> InvariantContactForm:
    """Unit-radius form with phi sweeping 0 to (4k+1) pi/2 over [0, 1]."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    phi = AngleProfile(
        (Fraction(0), Fraction(1)),
        (Angle(Direction(1, 0)), Angle(Direction(0, 1), k)),
    )
    return InvariantContactForm.unit(phi)


def alpha_cutspec(k: int) -> CutSpec:
    """The sphere cut datum: alpha_form(k) collapsed along (0,1) and (1,0)."""
    return CutSpec(alpha_form(k), Direction(0, 1), Direction(1, 0))


def theta_angle(k: int, l: int) -> Angle:
    """The angle theta in (0, pi] with tan(theta) = l/k.

    Arg(k, l) when that is positive, otherwise Arg(k, l) + pi; (k, l) is
    reduced to a primitive direction first.
    """
    if (k, l) == (0, 0):
        raise ValueError("(k, l) must be nonzero")
    d = Direction.reduced(k, l)
    a = Angle(d)
    if angle_compare(a, Angle(Direction(1, 0))) > 0:
        return a
    return Angle(-d)


def lens_cutspec(k: int, l: int, j: int = 1) -> CutSpec:
    """Cut datum with cut space the lens space of slope -k/l.

    phi runs from 0 to theta + 2 pi j at unit radius, collapsing (0, 1) at
    t = 0 and (l, -k) at t = 1; j >= 1 adds full turns, changing the
    contact structure but not the cut space.
    """
    if j < 1:
        raise ValueError("j must be at least 1")
    theta = theta_angle(k, l)
    phi = AngleProfile(
        (Fraction(0), Fraction(1)),
        (Angle(Direction(1, 0)), Angle(theta.dir, theta.turns + j)),
    )
    v1 = Direction.reduced(l, -k)
    return CutSpec(InvariantContactForm.unit(phi), Direction(0, 1), v1)


def rotating_line_form(turns: int = 3) -> InvariantContactForm:
    """phi(u) = pi u on u in [-turns, turns], unit radius.

    The affine image of the line form whose angle grows linearly forever;
    u is the angle in half-turn units, so the moment of (0, 1) is
    sin(pi u) and its nonnegativity intervals are [2n, 2n + 1].
    """
    if turns < 1:
        raise ValueError("need at least one turn")
    breaks = tuple(Fraction(u) for u in range(-turns, turns + 1))
    values = tuple(angle_of_quarters(4 * u) for u in range(-turns, turns + 1))
    return InvariantContactForm.unit(AngleProfile(breaks, values))


def minimal_valid_cutspec(v0, v1) -> CutSpec:
    """The shortest-sweep unit-radius cut datum with the given collapses.

    phi(0) is the clockwise perpendicular of v0 (which makes the
    v0-moment increase into the domain), phi(1) the counterclockwise
    perpendicular of v1, lifted by as few full turns as make the profile
    strictly increasing.
    """
    v0 = v0 if isinstance(v0, Direction) else Direction(*v0)
    v1 = v1 if isinstance(v1, Direction) else Direction(*v1)
    start = direction_angle((v0.y, -v0.x))
    end_dir = Direction(-v1.y, v1.x)
    end = Angle(end_dir, start.turns - 1)
    while angle_compare(end, start) <= 0:
        end = Angle(end_dir, end.turns + 1)
    phi = AngleProfile((Fraction(0), Fraction(1)), (start, end))
    return CutSpec(InvariantContactForm.unit(phi), v0, v1)
