"""Contact cuts: validation, reduction, classification, and slicing.

A cut datum is a contact form on T^2 x [0, 1] together with two primitive
collapse vectors v0, v1.  The cut space collapses each boundary orbit of
the circle generated by v0 at t = 0 and by v1 at t = 1; for that to make
sense the corresponding moment functions must vanish exactly on their
boundary torus and be positive just inside.  Both conditions are decided
exactly from the angle data.

The closed cut space is two solid tori glued along their boundary, so it
is S^3, S^1 x S^2, or a lens space; classify_lens normalizes the pair
(v0, v1) by an integral basis change of determinant one and reports the
resulting slope and shear-normal form.

contact_reduce computes the reduced circles sitting over the zeros of a
moment function, with the coefficient of the reduced 1-form, and
slice_by_ray chops a form on a long interval into the maximal cut pieces
carved out by one moment inequality f_eta >= 0.  Both enumerate their
output and pay only for it: a circle reads its hit's parameter only
when the radial profile needs it, and a piece is built in normal form
from its two end values alone, for O(1) each.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .angles import (
    Angle,
    Direction,
    QUARTER_TURN,
    add_turns,
    angle_add,
    angle_sub,
    direction_angle,
    to_float,
)
from .errors import InvalidCutSpec
from .forms import AngleProfile, InvariantContactForm, ProfilePoint, RadialProfile, _moment


def _dir(v) -> Direction:
    if isinstance(v, Direction):
        return v
    return Direction(*v)


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(r, s) with r*a + s*b = gcd(a, b), by the extended Euclid scheme."""
    r0, s0, g0 = 1, 0, a
    r1, s1, g1 = 0, 1, b
    while g1:
        q = g0 // g1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        g0, g1 = g1, g0 - q * g1
    if g0 < 0:
        return -r0, -s0
    return r0, s0


@dataclass(frozen=True)
class Violation:
    """One failed boundary condition of a cut datum."""

    code: str  # "nonzero-boundary-moment" | "wrong-sign"
    end: int  # boundary side 0 or 1
    message: str


@dataclass(frozen=True)
class CutSpec:
    """Cut datum: a form on T^2 x [0, 1] with collapse vectors at the ends.

    Forms on other intervals are reparametrized affinely onto [0, 1] on
    construction; nothing downstream depends on the parametrization.
    Validity is decided once, on construction: violations holds every
    failed cut condition, and is not part of equality or hashing since
    it follows from the other fields.
    """

    form: InvariantContactForm
    v0: Direction
    v1: Direction
    violations: tuple[Violation, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "v0", _dir(self.v0))
        object.__setattr__(self, "v1", _dir(self.v1))
        t0, t1 = self.form.domain
        if t0.numerator or t1.numerator != 1 or t1.denominator != 1:  # not [0, 1]
            object.__setattr__(self, "form", self.form.reparametrized(0, 1))
        object.__setattr__(self, "violations", _violations(self))


class LensKind(Enum):
    SPHERE = "Sphere3"
    S1XS2 = "S1xS2"
    LENS = "Lens"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class LensDescriptor:
    """Classification of the closed cut space.

    raw_basis_data is the image (x, y) of v1 under a determinant-one basis
    change sending v0 to (0, 1); x = -cross(v0, v1) is canonical while y is
    defined up to the shear y + n*x, which normal_form = (x, y mod x)
    absorbs.  slope is y/x in lowest terms (None when x = 0, where the
    space is S^1 x S^2); an integer slope gives the 3-sphere.
    """

    kind: LensKind
    slope: Fraction | None
    normal_form: tuple[int, int] | None
    raw_basis_data: tuple[int, int]


@dataclass(frozen=True, slots=True, init=False)
class ReducedCircle:
    """A reduced circle over one zero of the eta-moment.

    The zero sits where phi crosses the half-turn lattice through
    Arg(-n, m); index is the lattice index j of the crossing, and point
    the exact parameter description.  The reduced 1-form on the quotient
    circle is coefficient * dv in the coordinate v dual to
    `complement_vector(eta)`; the coefficient is (-1)^(j+1) r(t*) / |eta|,
    never zero, as a float, or None when r(t*), |eta| or the quotient is
    beyond the normal float range.  The exact phi(t*) is
    `add_half_turns(direction_angle(eta.perp()), index)`.
    """

    index: int
    point: ProfilePoint
    coefficient: float | None

    def __init__(self, index, point, coefficient):
        _INDEX(self, index)
        _POINT(self, point)
        _COEFFICIENT(self, coefficient)

    @property
    def sign(self) -> int:
        """(-1)^(j+1) for the lattice index j: the sign of the coefficient."""
        return 1 if self.index % 2 else -1


_INDEX, _POINT, _COEFFICIENT = (
    getattr(ReducedCircle, k).__set__ for k in ("index", "point", "coefficient")
)


def _boundary_checks(form: InvariantContactForm, v: Direction, end: int) -> list[Violation]:
    phi = form.phi
    d = (phi.values[0] if end == 0 else phi.values[-1]).dir
    # the moment r (v.x cos phi + v.y sin phi) vanishes iff phi's direction is
    # perpendicular to v
    if d.x * v.x + d.y * v.y != 0:
        moment = to_float(*_moment(form, v.as_tuple(), phi.t0 if end == 0 else phi.t1))
        shown = "beyond float range" if moment is None else f"{moment:.12g}"
        return [
            Violation(
                "nonzero-boundary-moment",
                end,
                f"moment of ({v.x},{v.y}) at t={end} is {shown}, not zero",
            )
        ]
    # Just inside, phi moves by +orientation*dt from t=0 (by -orientation*dt
    # into t=1), so the moment's interior sign is the sign of the dot
    # product of the quarter-turned boundary direction with v.
    inward = phi.orientation if end == 0 else -phi.orientation
    rotated = (-d.y * inward, d.x * inward)
    if rotated[0] * v.x + rotated[1] * v.y < 0:
        return [
            Violation(
                "wrong-sign",
                end,
                f"moment of ({v.x},{v.y}) is negative just inside t={end}",
            )
        ]
    return []


def _violations(spec: CutSpec) -> tuple[Violation, ...]:
    """Every violated cut condition of spec; empty when the datum is valid.

    The form is contact by construction.  Conditions: the v0-moment
    vanishes exactly at t = 0 and is positive on (0, eps); mirror
    conditions for v1 at t = 1.  Everything is decided in integer
    arithmetic on the angle data.
    """
    return tuple(_boundary_checks(spec.form, spec.v0, 0) + _boundary_checks(spec.form, spec.v1, 1))


def validate_cutspec(spec: CutSpec) -> list[Violation]:
    """All violated cut conditions; an empty list means the datum is valid."""
    return list(spec.violations)


def require_valid(spec: CutSpec) -> None:
    if spec.violations:
        raise InvalidCutSpec(spec.violations)


def classify_lens(spec: CutSpec) -> LensDescriptor:
    """Classify the closed cut space of a valid cut datum.

    Chooses A in SL(2, Z) with A v0 = (0, 1) and reads off A v1 = (x, y).
    x = -cross(v0, v1) does not depend on the choice; y does, up to adding
    multiples of x.  x = 0 gives S^1 x S^2, integer slope y/x gives the
    3-sphere, anything else a genuine lens space.
    """
    require_valid(spec)
    a, b = spec.v0.as_tuple()
    c, d = spec.v1.as_tuple()
    r, s = _bezout(a, b)
    x = b * c - a * d
    y = r * c + s * d
    if x == 0:
        return LensDescriptor(LensKind.S1XS2, None, None, (x, y))
    slope = Fraction(y, x)
    kind = LensKind.SPHERE if y % x == 0 else LensKind.LENS
    return LensDescriptor(kind, slope, (x, y % x), (x, y))


def complement_vector(eta: Direction) -> Direction:
    """The canonical complement zeta with cross(zeta, eta) = 1.

    Among the solutions zeta + k*eta, picks the one whose projection onto
    eta lies in [0, 1), i.e. 0 <= dot(zeta, eta) < |eta|^2.
    """
    # cross((p, q), (m, n)) = p*n - q*m = 1
    p, s = _bezout(eta.y, -eta.x)
    zeta = (p, s)
    norm2 = eta.x * eta.x + eta.y * eta.y
    k = (zeta[0] * eta.x + zeta[1] * eta.y) // norm2
    return Direction(zeta[0] - k * eta.x, zeta[1] - k * eta.y)


def contact_reduce(form: InvariantContactForm, eta) -> list[ReducedCircle]:
    """All reduced circles of the eta-moment's zero level, ordered by t: one
    per lattice hit of base = `direction_angle(eta.perp())`, with one pass
    of the radial over the hits.  A circle's angle is
    `add_half_turns(base, c.index)`, and its coefficient refers to
    `complement_vector(eta)`, the same on every circle."""
    eta = _dir(eta)
    x, y = to_float(eta.x), to_float(eta.y)
    mag = None if x is None or y is None else math.hypot(x, y)
    hits = form.phi.solve_half_turn_lattice(direction_angle(eta.perp()))
    radii = form.radial.floats_along(pt for _, pt in hits)
    out = []
    for (j, pt), r in zip(hits, radii):
        # r(t*) / |eta| > 0; below the normal float range it is None, never 0.0
        q = None if r is None or mag is None else r / mag
        coefficient = None if q is None or q < sys.float_info.min else (q if j % 2 else -q)
        out.append(ReducedCircle(j, pt, coefficient))
    return out


def slice_by_ray(
    line_form: InvariantContactForm, eta, window: tuple[Angle, Angle]
) -> list[CutSpec]:
    """Cut pieces carved out of a long form by the inequality f_eta >= 0.

    The window is a pair of angle values restricting the relevant range of
    phi.  The moment of eta is nonnegative exactly where phi lies in
    [a, b] = [Arg(eta) - pi/2 + 2 pi j, Arg(eta) + pi/2 + 2 pi j]; every
    such interval contained in both the window and the swept range becomes
    one CutSpec with both collapse vectors equal to eta, while intervals
    cut off by the window or the domain are dropped.

    Each piece is given in normal form: phi from a to b (from b to a on a
    decreasing profile) on [0, 1] with two breakpoints, and one unit
    radial that every piece shares.  That is the input form on the part of
    its domain where phi sweeps [a, b], up to an equivariant
    contactomorphism: a monotone change of the parameter makes phi affine
    there, and a positive radial factor leaves ker alpha as it is.  No
    parameter is solved, so every legal form is sliced, and a piece costs
    O(1): the j are read from one `Angle.floor_ceil` of each end of the
    range less Arg(eta) - pi/2.
    """
    eta = _dir(eta)
    w0, w1 = window
    if w0 >= w1:
        raise ValueError("window must be an increasing pair of angles")
    phi = line_form.phi
    beta = direction_angle(eta)
    v_lo, v_hi = phi.value_bounds()
    lo, hi = max(w0, v_lo), min(w1, v_hi)
    start, stop = angle_sub(beta, QUARTER_TURN), angle_add(beta, QUARTER_TURN)
    (_, c), (f, _) = angle_sub(lo, start).floor_ceil(), angle_sub(hi, start).floor_ceil()
    j_min, j_max = -(-c // 2), (f - 1) // 2  # start + 2 pi j >= lo, stop + 2 pi j <= hi
    pieces, unit = [], RadialProfile.constant(1, (0, 1))
    for j in range(j_min, j_max + 1):
        a, b = add_turns(start, j), add_turns(stop, j)
        ends = (a, b) if phi.orientation > 0 else (b, a)
        pieces.append(CutSpec(InvariantContactForm(AngleProfile((0, 1), ends), unit), eta, eta))
    # j ascends with phi, so t descends on a decreasing profile
    return pieces if phi.orientation > 0 else pieces[::-1]
