"""Exact arithmetic for angles of the form Arg(v) + 2*pi*n, v an integer vector.

Every angle handled by this package is the argument of a nonzero integer
vector plus a whole number of turns.  We store exactly that: a primitive
integer direction together with a turn count,

    Angle(dir=(x, y), turns=n)  <->  Arg(x, y) + 2*pi*n,

with the principal branch Arg in (-pi, pi].  The representation is
canonical, so equality is structural, and the total order on represented
values is decided entirely with integer sign, cross and dot products:

  * two angles with different turn counts are ordered by the turn counts
    (the principal parts differ by strictly less than 2*pi);
  * two principal parts are ordered by half-plane class, then by the sign
    of the cross product within a common open half-plane.

Addition and subtraction multiply the underlying Gaussian integers and
correct the branch by an exactly determined element of {-1, 0, +1}.
Integer multiples are square-and-add on top of that, which is what lets
callers compare rational multiples of two angles exactly: p*a vs q*b is
again a comparison of two stored angles.

Floating point appears only in `Angle.value()` (display, numeric
cross-checks).  No predicate in this module consults it.

Only eight primitive directions have an argument that is a rational
multiple of pi (the axes and diagonals); `as_pi_multiple` recognises them,
which is how downstream code tells exactly representable parameter values
apart from irrational ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonPrimitive, ZeroVector

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, order=False)
class Direction:
    """A nonzero primitive integer vector (gcd of components is 1)."""

    x: int
    y: int

    def __post_init__(self):
        if self.x == 0 and self.y == 0:
            raise ZeroVector()
        if math.gcd(abs(self.x), abs(self.y)) != 1:
            raise NonPrimitive((self.x, self.y))

    @staticmethod
    def reduced(x: int, y: int) -> "Direction":
        """The primitive vector on the same ray as (x, y)."""
        if x == 0 and y == 0:
            raise ZeroVector()
        g = math.gcd(abs(x), abs(y))
        return Direction(x // g, y // g)

    def __neg__(self) -> "Direction":
        return Direction(-self.x, -self.y)

    def perp(self) -> "Direction":
        """Rotate by +90 degrees."""
        return Direction(-self.y, self.x)

    def as_tuple(self) -> tuple[int, int]:
        return (self.x, self.y)


def cross(a: Direction, b: Direction) -> int:
    return a.x * b.y - a.y * b.x


def dot(a: Direction, b: Direction) -> int:
    return a.x * b.x + a.y * b.y


UNIT_X = Direction(1, 0)
NEG_X = Direction(-1, 0)


def _argclass(d: Direction) -> int:
    # Ordering key for principal arguments in (-pi, pi]:
    #   0: Arg < 0    (lower half-plane)
    #   1: Arg = 0    (positive x-axis)
    #   2: 0 < Arg < pi
    #   3: Arg = pi   (negative x-axis)
    if d.y < 0:
        return 0
    if d.y == 0:
        return 1 if d.x > 0 else 3
    return 2


def _arg_compare(a: Direction, b: Direction) -> int:
    ka, kb = _argclass(a), _argclass(b)
    if ka != kb:
        return -1 if ka < kb else 1
    if ka in (1, 3):
        return 0
    c = cross(a, b)
    # Within one open half-plane, a precedes b iff b is counterclockwise of a.
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


@dataclass(frozen=True)
class Angle:
    """Arg(dir) + 2*pi*turns, with Arg in (-pi, pi] and dir primitive."""

    dir: Direction
    turns: int = 0

    def value(self) -> float:
        """Float approximation; never used for decisions."""
        return math.atan2(self.dir.y, self.dir.x) + TWO_PI * self.turns

    def __lt__(self, other):
        return angle_compare(self, other) < 0

    def __le__(self, other):
        return angle_compare(self, other) <= 0

    def __gt__(self, other):
        return angle_compare(self, other) > 0

    def __ge__(self, other):
        return angle_compare(self, other) >= 0


ZERO_ANGLE = Angle(UNIT_X, 0)
HALF_TURN = Angle(NEG_X, 0)
QUARTER_TURN = Angle(Direction(0, 1), 0)
FULL_TURN = Angle(UNIT_X, 1)


def direction_angle(v) -> Angle:
    """The angle of the ray through the integer vector v, reduced to primitive
    form, with zero turns."""
    if isinstance(v, Direction):
        return Angle(v, 0)
    x, y = v
    return Angle(Direction.reduced(x, y), 0)


def angle_compare(a: Angle, b: Angle) -> int:
    """-1, 0 or +1 as a <, ==, > b.  Exact."""
    if a.turns != b.turns:
        # Principal parts differ by less than 2*pi, so turns dominate.
        return -1 if a.turns < b.turns else 1
    return _arg_compare(a.dir, b.dir)


def negate(a: Angle) -> Angle:
    # -(pi + 2*pi*n) = pi + 2*pi*(-n - 1): the branch endpoint flips turns.
    if a.dir == NEG_X:
        return Angle(NEG_X, -a.turns - 1)
    return Angle(Direction(a.dir.x, -a.dir.y), -a.turns)


def angle_add(a: Angle, b: Angle) -> Angle:
    """Exact sum.  The direction is the Gaussian-integer product; the branch
    correction in {-1, 0, +1} is decided from the half-plane classes of the
    operands and the sign of the product's components."""
    px = a.dir.x * b.dir.x - a.dir.y * b.dir.y
    py = a.dir.x * b.dir.y + a.dir.y * b.dir.x
    d = Direction.reduced(px, py)
    a_pos = _argclass(a.dir) >= 2  # Arg > 0
    b_pos = _argclass(b.dir) >= 2
    c = 0
    if a_pos and b_pos:
        # Sum lies in (0, 2*pi]; wrapped iff it exceeds pi.
        if py < 0 or (py == 0 and px > 0):
            c = 1
    elif not a_pos and not b_pos:
        # Sum lies in (-2*pi, 0]; wrapped iff it is at most -pi.
        if py > 0 or (py == 0 and px < 0):
            c = -1
    return Angle(d, a.turns + b.turns + c)


def angle_sub(a: Angle, b: Angle) -> Angle:
    """Exact difference a - b."""
    return angle_add(a, negate(b))


def angle_mul_int(a: Angle, n: int) -> Angle:
    """Exact integer multiple n*a (square-and-add)."""
    if n < 0:
        return negate(angle_mul_int(a, -n))
    acc = ZERO_ANGLE
    base = a
    while n:
        if n & 1:
            acc = angle_add(acc, base)
        base = angle_add(base, base)
        n >>= 1
    return acc


def compare_scaled(a: Angle, p: int, b: Angle, q: int) -> int:
    """Exact sign of p*a - q*b for nonnegative integer scalars.

    A float estimate with a rigorous error bound settles the generic case
    in constant time; only near-ties (within ~1e-14 relative) fall back to
    the exact integer multiples.  Those raise each direction's Gaussian
    integer to the power p or q, so their bit length and cost grow at
    least linearly in p and q themselves.  Exact hits, such as a parameter
    landing precisely on a moment zero, always take the exact path.
    """
    if p < 0 or q < 0:
        raise ValueError("scalars must be nonnegative")
    av, bv = a.value(), b.value()
    gap = p * av - q * bv
    err = 1e-14 * (p * (1.0 + abs(av)) + q * (1.0 + abs(bv)))
    if gap > err:
        return 1
    if gap < -err:
        return -1
    return angle_compare(angle_mul_int(a, p), angle_mul_int(b, q))


def add_half_turns(a: Angle, j: int) -> Angle:
    """Exact a + j*pi."""
    c, odd = divmod(j, 2)
    if not odd:
        return Angle(a.dir, a.turns + c)
    bump = 1 if _argclass(a.dir) >= 2 else 0  # adding pi wraps iff Arg > 0
    return Angle(-a.dir, a.turns + c + bump)


def add_turns(a: Angle, n: int) -> Angle:
    """Exact a + 2*pi*n."""
    return Angle(a.dir, a.turns + n)


def is_zero(a: Angle) -> bool:
    return a.dir == UNIT_X and a.turns == 0


def floor_div_2pi(a: Angle) -> int:
    """floor(value / 2*pi), exactly."""
    return a.turns - (1 if _argclass(a.dir) == 0 else 0)


def ceil_div_2pi(a: Angle) -> int:
    """ceil(value / 2*pi), exactly."""
    return a.turns + (1 if _argclass(a.dir) >= 2 else 0)


def floor_div_pi(a: Angle) -> int:
    """floor(value / pi), exactly."""
    k = _argclass(a.dir)
    return 2 * a.turns + (-1 if k == 0 else (1 if k == 3 else 0))


def ceil_div_pi(a: Angle) -> int:
    """ceil(value / pi), exactly."""
    k = _argclass(a.dir)
    return 2 * a.turns + (1 if k >= 2 else 0)


def floor_turns(a: Angle, q: int = 1) -> int:
    """floor(value / (2*pi*q)) for q >= 1, exactly.

    When the value is not an exact multiple of 2*pi it lies strictly inside
    (F, F+1) turns with F = floor_div_2pi, and no multiple of q sits inside
    an open unit interval, so the answer is F // q.
    """
    if a.dir == UNIT_X:
        return a.turns // q
    return floor_div_2pi(a) // q


def ceil_turns(a: Angle, q: int = 1) -> int:
    """ceil(value / (2*pi*q)) for q >= 1, exactly."""
    return -floor_turns(negate(a), q)


def floor_half_turns(a: Angle, q: int = 1) -> int:
    """floor(value / (pi*q)) for q >= 1, exactly."""
    if a.dir == UNIT_X or a.dir == NEG_X:
        m = 2 * a.turns + (1 if a.dir == NEG_X else 0)
        return m // q
    return floor_div_pi(a) // q


def ceil_half_turns(a: Angle, q: int = 1) -> int:
    """ceil(value / (pi*q)) for q >= 1, exactly."""
    return -floor_half_turns(negate(a), q)


def count_lattice(theta: Angle, a0: Angle, a1: Angle) -> int:
    """Number of representatives theta + 2*pi*m inside the closed interval
    [a0, a1] of angle values.  Requires a0 <= a1.  Endpoints count."""
    if angle_compare(a0, a1) > 0:
        raise ValueError("count_lattice needs a0 <= a1")
    hi = floor_div_2pi(angle_sub(a1, theta))
    lo = ceil_div_2pi(angle_sub(a0, theta))
    return max(0, hi - lo + 1)


# The eight primitive directions whose argument is a rational multiple of pi
# (Niven: a rational angle has rational tangent only at multiples of pi/4).
_PI_MULTIPLES = {
    (1, 0): Fraction(0),
    (1, 1): Fraction(1, 4),
    (0, 1): Fraction(1, 2),
    (-1, 1): Fraction(3, 4),
    (-1, 0): Fraction(1),
    (-1, -1): Fraction(-3, 4),
    (0, -1): Fraction(-1, 2),
    (1, -1): Fraction(-1, 4),
}


def as_pi_multiple(a: Angle) -> Fraction | None:
    """value / pi as an exact Fraction, or None when it is irrational."""
    q = _PI_MULTIPLES.get((a.dir.x, a.dir.y))
    if q is None:
        return None
    return q + 2 * a.turns


def format_angle(a: Angle) -> str:
    """Canonical literal "x,y;n"."""
    return f"{a.dir.x},{a.dir.y};{a.turns}"


def parse_angle(text: str) -> Angle:
    """Parse "x,y;n" (";n" may be omitted when n = 0)."""
    body, _, tail = text.strip().partition(";")
    turns = int(tail) if tail else 0
    xs, _, ys = body.partition(",")
    if not ys:
        raise ValueError(f"bad angle literal {text!r}: expected x,y;n")
    return Angle(Direction(int(xs), int(ys)), turns)
