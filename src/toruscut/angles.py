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

Addition and subtraction of `Angle`s multiply the underlying Gaussian
integers and correct the branch by an exactly determined element of
{-1, 0, +1}.  An `Angle` answers `floor_ceil()`, the floor and ceiling
of value / pi, from the half-plane class of its direction and its turns
alone, and `str()` gives the literal "x,y;n" that `parse_angle` reads.

Rational combinations of angles, such as p*a - q*b or a profile value
between two breakpoints, are `AngleForm`s: (sum(c_i * Arg(z_i)) + r*pi) / den
with integer c_i and r over one integer den > 0, kept in a normal form
(terms sorted by direction), which answer `floor_ceil()` and `str()` too.
Addition and subtraction of forms merge two normal forms in one linear
pass.  No Gaussian integer is ever raised to the power of a coefficient.
The sign of a form is read off a float estimate with a stated error
bound; only near a tie is it decided exactly.  Whether the value is a
multiple of pi/4 is read from the norms of the z_i over a coprime base
in Z and from the square roots of -1 that the z_i give modulo each base
element (integer gcds, no integer factorization; D. J. Bernstein,
"Factoring into coprimes in essentially linear time", J. Algorithms 54,
2005); a near-tie that is not a tie is decided by fixed-point Args in
integer arithmetic.

Floating point appears in `to_float`, which makes every float the package
shows (`Angle.value()`, parameter values, moments) from an exact quantity,
and in the float stage of `AngleForm.sign` and `AngleForm.floor_ceil`
(`_float_sum`, with a stated error bound), which decides only outside
that bound.  Every exact sign of a rational combination of angles goes
through that one stage and its exact fallbacks, and one bisection of
such signs, `floor_ceil`, gives a form's floor and ceiling in half turns,
after the whole half turns of its rational part are split off in integers,
so the bisection does not grow with the turn count.

Only eight primitive directions have an argument that is a rational
multiple of pi: the axes and diagonals, at k quarter turns (multiples of
pi/4) for k in (-4, 4].  One table maps each to its k.  So an angle on
one of them is an integer count of quarter turns, `Angle.quarters()`
(k + 8*turns), and `angle_of_quarters` is its exact inverse.  Code that
meets only such angles, like a half-turn lattice walk on a pi/4 profile,
works in those integers.  `Angle.pi_multiple` is the count over 4, which
is how downstream code tells exactly representable parameter values apart
from irrational ones, and the `AngleForm` constructor folds these
directions into its rational multiple of pi through the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering

from .errors import NonPrimitive, ZeroVector

TWO_PI = 2.0 * math.pi
_FAST_TURNS = 2**1000  # `Angle.value` multiplies fewer turns than this in floats


def to_float(q: Fraction | int, factor: float = 1.0, exp2: int = 0) -> float | None:
    """q * factor * 2**exp2 as a float, for an exact rational q and a finite
    float factor, or None outside the normal float range, above or below, so
    0.0 means q * factor is 0.  Every float the package shows is made here.
    q is m * 2**k, m in (1/2, 2), by one correctly rounded integer division
    and `frexp` splits factor, so no step leaves the range; where float(q) *
    factor is a normal float (float(q) too) the result equals it bit for bit."""
    n, d = q.numerator, q.denominator
    k = n.bit_length() - d.bit_length()
    f, e = math.frexp(factor)
    m, e2 = math.frexp(((n << -k) / d if k < 0 else n / (d << k)) * f)
    e2 += e + k + exp2
    return math.ldexp(m, e2) if not m or -1021 <= e2 <= 1024 else None


@dataclass(frozen=True, order=False, slots=True)
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
        g = math.gcd(x, y)
        return _primitive(x // g, y // g)

    def __neg__(self) -> "Direction":
        return _primitive(-self.x, -self.y)

    def perp(self) -> "Direction":
        """Rotate by +90 degrees."""
        return _primitive(-self.y, self.x)

    def as_tuple(self) -> tuple[int, int]:
        return (self.x, self.y)


def _primitive(x: int, y: int) -> Direction:
    """Direction(x, y) for a pair already known to be primitive.

    Skips the gcd of `__post_init__`; sign flips and swaps of a primitive
    pair, and a pair divided by its gcd, are primitive by construction.
    """
    d = object.__new__(Direction)
    object.__setattr__(d, "x", x)
    object.__setattr__(d, "y", y)
    return d


def cross(a: Direction, b: Direction) -> int:
    return a.x * b.y - a.y * b.x


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


@total_ordering  # <= > >= from __lt__ and ==, exact since the form is canonical
@dataclass(frozen=True, slots=True)
class Angle:
    """Arg(dir) + 2*pi*turns, with Arg in (-pi, pi] and dir primitive."""

    dir: Direction
    turns: int = 0

    def value(self) -> float | None:
        """Float approximation within 2**-50 + 2**-51 * |value|, or None
        beyond float range; decisions use it only outside that bound.
        Below 2**1000 turns, turns * TWO_PI is a normal float or 0.0, so it
        is `to_float(turns, TWO_PI)` bit for bit, without the call."""
        if -_FAST_TURNS < self.turns < _FAST_TURNS:
            return _arg(self.dir) + self.turns * TWO_PI
        turns = to_float(self.turns, TWO_PI)
        return None if turns is None else _arg(self.dir) + turns

    def ratio(self, den: "Angle") -> float:
        """self / den as a float: `value()` is accurate relative to the
        value, so the quotient is too; `AngleForm.ratio` beyond float range."""
        num, d = self.value(), den.value()
        if num is None or d is None:
            return AngleForm.of(self).ratio(AngleForm.of(den))
        return num / d

    def quarters(self) -> int | None:
        """value / (pi/4) as an int, or None when dir is not one of the
        eight pi/4 directions (then the value is no rational multiple of pi)."""
        k = _QUARTERS.get((self.dir.x, self.dir.y))
        return None if k is None else k + 8 * self.turns

    def pi_multiple(self) -> Fraction | None:
        """value / pi as an exact Fraction, or None when it is irrational."""
        q = self.quarters()
        return None if q is None else Fraction(q, 4)

    def floor_ceil(self) -> tuple[int, int]:
        """(floor, ceil) of value / pi, exactly, from one half-plane class:
        the floor is 2 turns, less 1 if Arg < 0, plus 1 if Arg = pi, and
        the ceiling is one more off the x-axis, as `AngleForm.floor_ceil`."""
        k = _argclass(self.dir)
        f = 2 * self.turns - (k == 0) + (k == 3)
        return f, f + (self.dir.y != 0)

    def __str__(self) -> str:
        """The canonical literal "x,y;n" that `parse_angle` reads; `repr`
        stays the dataclass's."""
        return f"{self.dir.x},{self.dir.y};{self.turns}"

    def __lt__(self, other):
        if not isinstance(other, Angle):
            return NotImplemented
        return angle_compare(self, other) < 0


ZERO_ANGLE = Angle(UNIT_X, 0)
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
    return Angle(_primitive(a.dir.x, -a.dir.y), -a.turns)


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


def _half_turns(a: Angle) -> tuple[tuple[Direction, int], tuple[Direction, int]]:
    """a + j*pi is Angle(d, t + j // 2) for (d, t) at index j % 2: a's own,
    or -a.dir with one more turn when Arg > 0, since adding pi then wraps."""
    return (a.dir, a.turns), (-a.dir, a.turns + (1 if _argclass(a.dir) >= 2 else 0))


def add_half_turns(a: Angle, j: int) -> Angle:
    """Exact a + j*pi."""
    d, t = _half_turns(a)[j % 2]
    return Angle(d, t + j // 2)


def add_turns(a: Angle, n: int) -> Angle:
    """Exact a + 2*pi*n."""
    return Angle(a.dir, a.turns + n)


# The eight primitive directions whose argument is a rational multiple of pi
# (Niven: a rational angle has rational tangent only at multiples of pi/4),
# each mapped to Arg / (pi/4) = k in (-4, 4]; _QUARTER_DIRS[k] is its inverse.
_QUARTER_DIRS = tuple(
    _primitive(x, y)
    for x, y in ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
)
_QUARTERS = {(d.x, d.y): k for k, d in zip((0, 1, 2, 3, 4, -3, -2, -1), _QUARTER_DIRS)}


def angle_of_quarters(q: int) -> Angle:
    """q * pi/4 exactly: the inverse of `Angle.quarters`.  With n = (q + 3)
    >> 3, q - 8n lies in (-4, 4], so it is Arg(dir) / (pi/4) for the
    direction at that index of _QUARTER_DIRS (negative indices wrap)."""
    n = (q + 3) >> 3
    return Angle(_QUARTER_DIRS[q - 8 * n], n)


# -- rational linear forms in angles ---------------------------------------------

_QUARTER_PI = math.pi / 4


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _fraction(x: Fraction | int) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _term_key(term) -> tuple[int, int]:
    return (term[0].x, term[0].y)


def _merge(a, b) -> tuple:
    """The normal terms of a + b, for term tuples a and b that are already
    normal (folded, merged, nonzero, sorted by (x, y)): one merge of the
    two sorted tuples, adding equal directions and dropping the sums that
    cancel."""
    if not b:
        return a
    if not a:
        return b
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (da, ca), (db, cb) = a[i], b[j]
        ka, kb = (da.x, da.y), (db.x, db.y)
        if ka < kb:
            out.append(a[i])
            i += 1
        elif kb < ka:
            out.append(b[j])
            j += 1
        else:
            c = ca + cb
            if c:
                out.append((da, c))
            i += 1
            j += 1
    return (*out, *a[i:], *b[j:])


def _scaled(terms, k: int) -> tuple:
    """k * terms for a nonzero integer k, still normal."""
    return terms if k == 1 else tuple((d, c * k) for d, c in terms)


def _arg(d: Direction) -> float:
    """Arg(d) in floats, within 2**-50 for any coordinate size.

    Coordinates beyond float range are both shifted right by the same
    amount, until the larger keeps 64 bits, which moves the angle by less
    than 2**-61.
    """
    try:
        return math.atan2(d.y, d.x)
    except OverflowError:
        s = max(abs(d.x).bit_length(), abs(d.y).bit_length()) - 64
        return math.atan2(d.y >> s, d.x >> s)


def _float_sum(terms, r: int, den: int) -> tuple[float, float]:
    """(v, e) with |(sum(c * Arg(d)) + r*pi) / den - v| <= e, all integers.

    Each float Arg is within 2**-50 (`_arg`), each c / den and r / den is
    one correctly rounded integer division, and every product and sum
    rounds by at most 2**-53 relative, so with k terms and S = (sum |c| +
    |r|) / den the error is below (k + 4) * 2**-50 * S; e doubles that, to
    cover the rounding of S itself, and adds 2**-1000 for coefficients
    that underflow.  A coefficient beyond float range gives e = inf.
    """
    try:
        fr = r / den
        v, size = fr * math.pi, abs(fr)
        for d, c in terms:
            fc = c / den
            v += fc * _arg(d)
            size += abs(fc)
    except OverflowError:
        return math.nan, math.inf
    return v, (len(terms) + 4) * 2.0**-49 * size + 2.0**-1000


def _strip(a: int, b: int) -> tuple[int, int]:
    """(e, a // b**e) for the largest e with b**e dividing a, b > 1, by
    repeated squaring of b: O(log e) divisions."""
    q, rem = divmod(a, b)
    if rem:
        return 0, a
    e, q = _strip(q, b * b)
    r, rem = divmod(q, b)
    return (2 * e + 1, q) if rem else (2 * e + 2, r)


def _coprime_base(elems) -> list[int]:
    """Pairwise coprime integers > 1 such that every element of elems is a
    product of their powers.

    Two elements a, b with a gcd g > 1 are replaced by g and by a and b
    with every factor g divided out, until no pair shares a factor; each
    split lowers the product of all elements, so this ends.
    """
    base, todo = [], [a for a in elems if a > 1]
    while todo:
        a = todo.pop()
        for k, b in enumerate(base):
            g = math.gcd(a, b)
            if g > 1:
                del base[k]
                todo += [z for z in (g, _strip(a, g)[1], _strip(b, g)[1]) if z > 1]
                break
        else:
            base.append(a)
    return base


def _in_quarter_turns(terms) -> bool:
    """Whether sum(n * Arg(d)) over integer n is a multiple of pi/4, exactly.

    It is iff w = prod d**n has, for every odd prime p = pi * conj(pi)
    that splits in Z[i], as many factors pi as conj(pi).  A primitive d
    holds no rational prime, so it holds only pi or only conj(pi), to the
    power of p in its norm; which one is told by r = x / y mod p, a square
    root of -1.  The factor 2 and the primes 3 mod 4 equal their
    conjugates and never count.  So over a coprime base of the odd parts
    of the norms, each base element m must have sum(n * s * e) = 0 over
    the d whose norm holds m**e, s = +1 or -1 as r is the first d's root
    mod m or its negative.  A root that is neither agrees with it modulo
    some prime powers of m and not others, so gcd(r - r0, m) splits m.
    Integer gcds on the norms' bit length; no factorization.
    """
    dirs = []
    for d, n in terms:
        a = d.x * d.x + d.y * d.y  # odd or twice odd, for a primitive d
        dirs.append((d.x, d.y, n, a if a & 1 else a >> 1))
    base = _coprime_base([a for *_, a in dirs])
    while base:
        m = base.pop()
        r0, total = None, 0
        for x, y, n, a in dirs:
            if a % m:
                continue
            r = x * pow(y, -1, m) % m  # y is a unit mod m: m divides x*x + y*y
            if r0 is None:
                r0 = r
            elif r != r0:
                if r != m - r0:
                    g = math.gcd(r - r0, m)
                    base += [g, m // g]
                    break
                n = -n
            total += n * _strip(a, m)[0]
        else:
            if total:
                return False
    return True


# Fixed point: integers standing for multiples of 2**-prec.
_GUARD = 32
_HALVINGS = 8


def _atan_fixed(num: int, den: int, prec: int) -> int:
    """atan(num / den) * 2**prec within 2, for 0 <= num <= den.

    Eight halvings t -> t / (1 + sqrt(1 + t*t)) bring t below 2**-8, then
    the Taylor series runs with 32 guard bits, which hold the rounding of
    every step (each halving at most halves the error carried in).
    """
    w = prec + _GUARD
    one = 1 << w
    t = (num << w) // den
    for _ in range(_HALVINGS):
        t = (t << w) // (one + math.isqrt((one << w) + t * t))
    t2 = (t * t) >> w
    total, power, k = t, t, 1
    while power:
        power = (power * t2) >> w
        k += 2
        total += -(power // k) if k % 4 == 3 else power // k
    return (total << _HALVINGS) >> _GUARD


def _fixed_sum(terms, r: int, prec: int) -> tuple[int, int]:
    """(x, e) with |x - 2**prec * (sum(n * Arg(d)) + r*pi)| <= e, for
    integer n and r.  Arg is the atan of the smaller over the larger
    coordinate magnitude, moved to its octant with pi/2 and pi."""
    pi = _atan_fixed(1, 1, prec + 2)  # 4 * atan(1), within 2
    x, e = r * pi, 2 * abs(r)
    for d, n in terms:
        a, b = abs(d.x), abs(d.y)
        arg = _atan_fixed(min(a, b), max(a, b), prec)
        if b > a:
            arg = (pi >> 1) - arg
        if d.x < 0:
            arg = pi - arg
        x += -n * arg if d.y < 0 else n * arg
        e += 6 * abs(n)
    return x, e


@dataclass(frozen=True, eq=False)
class AngleForm:
    """(sum(c * Arg(d) for d, c in terms) + r*pi) / den, integer c and r, den > 0.

    The d are primitive directions.  The constructor is the one place
    that takes rational terms and r: the eight directions at multiples of
    pi/4 are folded into r, equal directions merged, zero coefficients
    dropped, the terms sorted by (x, y) and put over the lcm of the
    denominators.  `+` and `-` put both sides over the lcm of their dens
    and merge the sorted terms, `-x` and `*` scale numerators and den, so
    arithmetic never normalises again and builds no Fraction.  den need
    not be minimal, and equal values need not be structurally equal
    (Arg(2,1) + Arg(2,-1) = 0), so `==` is the `sign()` of the difference
    and forms are not hashable.
    """

    terms: tuple[tuple[Direction, int], ...] = ()
    r: int = 0
    den: int = field(default=1, init=False)

    def __post_init__(self):
        r = _fraction(self.r)
        coeffs: dict[Direction, Fraction] = {}
        for d, c in self.terms:
            k = _QUARTERS.get((d.x, d.y))
            if k is not None:
                r += Fraction(k, 4) * c
            elif d in coeffs:
                coeffs[d] += c
            else:
                coeffs[d] = c
        terms = sorted(((d, _fraction(c)) for d, c in coeffs.items() if c), key=_term_key)
        den = math.lcm(r.denominator, *(c.denominator for _, c in terms))
        terms = tuple((d, (c * den).numerator) for d, c in terms)
        self.__dict__.update(terms=terms, r=(r * den).numerator, den=den)

    @staticmethod
    def _normal(terms, r: int, den: int) -> "AngleForm":
        """A form from terms that are already folded, merged, nonzero and sorted."""
        f = object.__new__(AngleForm)
        f.__dict__.update(terms=terms, r=r, den=den)
        return f

    @staticmethod
    def of(a: Angle) -> "AngleForm":
        q = a.quarters()
        if q is not None:
            g = math.gcd(q, 4)
            return AngleForm._normal((), q // g, 4 // g)
        return AngleForm._normal(((a.dir, 1),), 2 * a.turns, 1)

    def __add__(self, other: "AngleForm") -> "AngleForm":
        return self._plus(other, 1)

    def __sub__(self, other: "AngleForm") -> "AngleForm":
        return self._plus(other, -1)

    def _plus(self, other: "AngleForm", s: int) -> "AngleForm":
        """self + s * other, s = +1 or -1: both over the lcm of the dens, one merge."""
        if not isinstance(other, AngleForm):
            return NotImplemented
        g = math.gcd(self.den, other.den)
        ka, kb = other.den // g, s * (self.den // g)
        terms = _merge(_scaled(self.terms, ka), _scaled(other.terms, kb))
        return AngleForm._normal(terms, self.r * ka + other.r * kb, self.den * ka)

    def __neg__(self) -> "AngleForm":
        return AngleForm._normal(_scaled(self.terms, -1), -self.r, self.den)

    def __mul__(self, k: Fraction | int) -> "AngleForm":
        if not isinstance(k, (int, Fraction)):
            return NotImplemented
        if not k:
            return AngleForm._normal((), 0, 1)
        p, q = k.numerator, k.denominator
        return AngleForm._normal(_scaled(self.terms, p), self.r * p, self.den * q)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, AngleForm):
            return NotImplemented
        return (self - other).sign() == 0

    def __str__(self) -> str:
        parts = [f"{Fraction(c, self.den)}*Arg({d.x},{d.y})" for d, c in self.terms]
        if self.r or not parts:
            parts.append(f"{Fraction(self.r, self.den)}*pi")
        return " + ".join(parts)

    def value(self) -> float | None:
        """Float approximation within the bound of `_float_sum`, or None."""
        v = _float_sum(self.terms, self.r, self.den)[0]
        return v if math.isfinite(v) else None

    def sign(self) -> int:
        """-1, 0 or +1 as the value is negative, zero or positive.  Exact.

        1. Float: the estimate decides when it is farther from 0 than its
           error bound, (k + 4) * 2**-49 * (sum |c| + |r|) / den for k terms
           (see `_float_sum`).  One pass over the terms; it never raises.
        2. Tie test: otherwise `pi_multiple()` decides whether the value
           is a rational multiple of pi, and if it is, its exact sign.  It
           costs integer gcds on the bit length of the directions' norms,
           whatever the coefficients.
        3. Fixed point: otherwise the value is irrational, hence not 0,
           and den times it is evaluated in integers at 64, 128, ... bits
           until the sign clears the error bound; the bits grow with
           log(1 / |value|) and the bit length of the numerators.
        """
        if not self.terms:
            return _sign(self.r)
        v, e = _float_sum(self.terms, self.r, self.den)
        if v > e:
            return 1
        if v < -e:
            return -1
        m = self.pi_multiple()
        if m is not None:
            return _sign(m)
        prec = 64
        while True:
            x, err = _fixed_sum(self.terms, self.r, prec)
            if abs(x) > err:
                return _sign(x)
            prec *= 2

    def pi_multiple(self) -> Fraction | None:
        """value / pi as an exact Fraction, or None when it is irrational.

        x = sum(c * Arg(d)) over the integer numerators is, up to whole
        turns, the argument of a Gaussian integer, so it is a rational
        multiple of pi exactly when it is a multiple k pi/4 of pi/4, and
        then value / pi = (k + 4r) / (4 den).  When the float estimate of x
        is farther than its bound from every multiple of pi/4 the answer
        is None at once; otherwise the tie test `_in_quarter_turns`
        decides (integer gcds on the bit length of the directions' norms),
        and k is rounded from the estimate, or, when the bound is not below
        pi/16, from a fixed-point evaluation.
        """
        if not self.terms:
            return Fraction(self.r, self.den)
        v, e = _float_sum(self.terms, 0, 1)
        precise = e < _QUARTER_PI / 4
        if precise:
            k = round(v / _QUARTER_PI)
            if abs(v - k * _QUARTER_PI) > 2 * e:
                return None
        if not _in_quarter_turns(self.terms):
            return None
        if not precise:
            prec = sum(abs(c) for _, c in self.terms).bit_length() + 8
            x, _ = _fixed_sum(self.terms, 0, prec)
            pi = _atan_fixed(1, 1, prec + 2)
            k = (8 * x + pi) // (2 * pi)  # round(x / (pi/4))
        return Fraction(k + 4 * self.r, 4 * self.den)

    def ratio(self, other: "AngleForm") -> float:
        """self / other as a float, for an other whose value is not 0.

        The float estimates of both forms are used when other is more than
        2**40 times the sum of their error bounds (`_float_sum`); else
        both are evaluated in fixed point at 64, 128, ... bits until other
        is.  Either way the result is within 2**-40 * (1 + |ratio|) of the
        true ratio, also when other is a tiny difference of large Args.
        """
        vn, en = _float_sum(self.terms, self.r, self.den)
        vd, ed = _float_sum(other.terms, other.r, other.den)
        if abs(vd) > (en + ed) * 2.0**40:
            return vn / vd
        if other.pi_multiple() == 0:
            raise ZeroDivisionError("AngleForm ratio by a zero form")
        nn, nd, prec = self.den, other.den, 64
        while True:
            xn, en = _fixed_sum(self.terms, self.r, prec)
            xd, ed = _fixed_sum(other.terms, other.r, prec)
            # in value units: |xd / nd| > 2**40 * (en / nn + ed / nd)
            if abs(xd) * nn > (en * nd + ed * nn) << 40:
                return (xn * nd) / (xd * nn)
            prec *= 2

    def floor_ceil(self) -> tuple[int, int]:
        """(floor, ceil) of value / pi, exactly, from one bisection.

        The whole half turns q = r // den are split off first, so the
        bisection places sum(c*Arg(d)) + (r - q*den)*pi, whose size is
        that of the coefficients, whatever the turn count.  A float
        estimate of it whose bound is below 1 brackets the floor between
        the floors of its two ends, widened by the bound once more for the
        rounding of the division; else, for coefficients far above den,
        |value| <= pi * (sum |c| + |r|) / den does.  Bisection with
        `sign()` finishes: value >= m*pi iff sum(c*Arg(d)) + (r - m*den)*pi
        >= 0.  It starts below the floor, so its last step up asks the
        floor itself, and that sign gives the ceiling.
        """
        q, r = divmod(self.r, self.den)
        v, e = _float_sum(self.terms, r, self.den)
        if e < 1:
            lo, hi = math.floor((v - 2 * e) / math.pi) - 1, math.floor((v + 2 * e) / math.pi)
        else:
            t = -(-(sum(abs(c) for _, c in self.terms) + r) // self.den)
            lo, hi = -t - 1, t
        while lo < hi:  # not `bisect`, which indexes by machine ints: t may be ~10**400
            mid = (lo + hi + 1) // 2
            if (s := AngleForm._normal(self.terms, r - mid * self.den, self.den).sign()) >= 0:
                lo, at_lo = mid, s
            else:
                hi = mid - 1
        return q + lo, q + lo + (at_lo > 0)


def _int(text: str) -> int:
    """The one integer grammar of spec files and options: [sign] ASCII
    digits, a sign being + or -.  Anything else (a blank, a digit
    separator, a non-ASCII digit) raises `int`'s ValueError."""
    if text.isascii() and (text.isdigit() or text[:1] in "+-" and text[1:].isdigit()):
        return int(text)
    raise ValueError(f"invalid literal for int() with base 10: {text!r}")


def parse_angle(text: str) -> Angle:
    """Parse "x,y;n" (";n" may be omitted when n = 0; a ";" needs its n), integers by `_int`."""
    body, semi, tail = text.strip().partition(";")
    turns = _int(tail) if semi else 0
    xs, _, ys = body.partition(",")
    if not ys:
        raise ValueError(f"bad angle literal {text!r}: expected x,y;n")
    return Angle(Direction(_int(xs), _int(ys)), turns)
