"""Stock examples: the sphere family, lens cut data, and the long line form.

These are the forms the rest of the package is exercised on.  Every cut
datum here comes from one rule, `_lifted(v0, v1, turns)`: the unit-radius
datum collapsing v0 at t = 0 and v1 at t = 1 whose phi rises from the
clockwise perpendicular of v0 to the counterclockwise perpendicular of v1,
lifted by the fewest whole turns that make it rise, then by `turns` more,
so every datum built here is valid.  alpha_form(k) rotates from angle 0 to
(4k+1) pi/2; with collapse vectors (0, 1) and (1, 0) it cuts to the
3-sphere carrying the k-th structure in the family, whose ray-count
invariant distinguishes every k.  lens_cutspec builds the cut datum whose
cut space is the lens space with slope -k/l, and rotating_line_form is the
infinite-cylinder form (truncated to a few turns) whose moment slices are
the S^1 x S^2 pieces.
"""

from __future__ import annotations

from fractions import Fraction

from .angles import Angle, Direction, angle_compare, angle_of_quarters
from .cuts import CutSpec, _dir
from .forms import AngleProfile, InvariantContactForm


def _lifted(v0, v1, turns: int) -> CutSpec:
    """The unit-radius datum collapsing v0 at t = 0 and v1 at t = 1.

    phi(0) is the clockwise perpendicular of v0 (which makes the v0-moment
    increase into the domain), phi(1) the counterclockwise perpendicular
    of v1, lifted by the fewest whole turns that make phi strictly
    increasing, then by `turns` more.
    """
    v0, v1 = _dir(v0), _dir(v1)
    start, end = Angle(-v0.perp()), Angle(v1.perp())
    lift = 1 if angle_compare(end, start) <= 0 else 0
    phi = AngleProfile((Fraction(0), Fraction(1)), (start, Angle(end.dir, lift + turns)))
    return CutSpec(InvariantContactForm.unit(phi), v0, v1)


def alpha_cutspec(k: int) -> CutSpec:
    """The sphere cut datum: phi from 0 to (4k+1) pi/2, collapsing (0,1)
    and (1,0)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _lifted((0, 1), (1, 0), k)


def alpha_form(k: int) -> InvariantContactForm:
    """Unit-radius form with phi sweeping 0 to (4k+1) pi/2 over [0, 1]:
    the form of alpha_cutspec(k)."""
    return alpha_cutspec(k).form


def lens_cutspec(k: int, l: int, j: int = 1) -> CutSpec:
    """Cut datum with cut space the lens space of slope -k/l.

    It collapses (0, 1) at t = 0 and (l, -k) at t = 1, and phi runs from 0
    to Arg(k, l) + 2 pi j at unit radius, or to Arg(k, l) + 2 pi (j + 1)
    when Arg(k, l) <= 0; j >= 1 adds full turns, changing the contact
    structure but not the cut space.
    """
    if j < 1:
        raise ValueError("j must be at least 1")
    return _lifted((0, 1), Direction.reduced(l, -k), j)


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
    """The shortest-sweep unit-radius cut datum with the given collapses."""
    return _lifted(v0, v1, 0)
