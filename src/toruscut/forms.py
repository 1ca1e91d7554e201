"""Rotating contact forms on T^2 x [t0, t1] and their moment functions.

A torus-invariant contact form is modelled as

    alpha = r(t) * (cos(phi(t)) dtheta_1 + sin(phi(t)) dtheta_2)

with r a positive radial profile and phi an angle profile.  The profile
phi is piecewise affine in its value between rational breakpoints, and the
breakpoint values are exact lattice angles (`Angle`); that covers every
form that actually occurs in the rotating-form constructions while keeping
all the zero sets of moment functions exactly computable: the moment of an
integer vector eta = (m, n) vanishes precisely where phi crosses the
half-turn lattice through Arg(-n, m).

Exact sign policy.  phi(t) at a rational t is one `AngleForm`,
`AngleProfile.form_at(t)`: the breakpoint value at a breakpoint, else
v_lo + lambda * sweep, with lambda read in integers, not Fractions.
Comparing it with an angle is the sign of the difference; placing it on
a half-turn lattice is one `floor_ceil` of that difference, its floor
and ceiling in half turns.  Both are `AngleForm` decisions: a float
estimate with a stated error bound, then exact fallbacks.  moment_eval
reports a zero only when it can prove one, and its float value drops
whole turns exactly before cos and sin are taken.  No decision rests on
an unbounded float, and every float shown comes from `angles.to_float`.

The radial profile is stored as the angle profile is, by its values at
the breakpoints: a product of one or more factors, each read per piece by
linear interpolation of its rational breakpoint values.  Users build one
factor from breakpoint values; `multiply` (exact rescaling) puts the
factors of two profiles on their merged breakpoints.  Every instance is
checked positive when it is built: a factor positive at each breakpoint
is positive on each piece, and so is the product.

Parameter values where a profile attains a given lattice angle are
returned as `ProfilePoint`s: the exact ratio of two angle differences
(`Angle`s or `AngleForm`s) inside a segment, plus a float approximation.
The ratio is read as a Fraction when both differences are rational
multiples of pi, computed once, on first use.
One rule, `_lattice_ranges`, reads a piecewise-affine function's floor
and ceiling at its n + 1 breakpoints, with no slope, and gives the J
lattice points it crosses as one range per segment, O(n + J): the hits of
phi on a half-turn lattice (`solve_half_turn_lattice`, quarter counts on
pi/4 data, else `Angle.floor_ceil`), and the zeros of
`invariants.homotopy_certificate`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .angles import (
    Angle,
    AngleForm,
    Direction,
    _fraction,
    _half_turns,
    angle_compare,
    angle_of_quarters,
    angle_sub,
    direction_angle,
    to_float,
)
from .errors import (
    BadBreakpoints,
    NonMonotone,
    NonPositiveRadial,
    OutsideDomain,
    ZeroSlopeSegment,
)

Rational = Fraction | int
Eta = Direction | tuple[int, int]  # a pair need not be primitive: (2, 0) is 2 (1, 0)


def _lattice_ranges(f: Sequence[int], c: Sequence[int]) -> list[range]:
    """The integers that a piecewise-affine x crosses, one `range` per
    segment in t order, from x's floor f[k] and ceiling c[k] at each
    breakpoint: in [x[k + 1], x[k]) descending where f or c drops, else in
    (x[k], x[k + 1]] ascending, and the first segment is also closed at
    x[0].  No slope is asked: where x falls but neither drops, no integer
    lies between the two ends, so the rising branch's empty range is right."""
    return [
        range(c[k] - 1 if k else f[k], c[k + 1] - 1, -1)
        if f[k + 1] < f[k] or c[k + 1] < c[k]
        else range(f[k] + 1 if k else c[k], f[k + 1] + 1)
        for k in range(len(f) - 1)
    ]


@dataclass(frozen=True, slots=True)
class ProfilePoint:
    """Parameter value where a profile meets a target angle.

    segment indexes [t_lo, t_hi] among the profile's segments, or for a
    planar zero of `invariants.homotopy_certificate` among the merged
    segments of the two profiles.  The location inside it is the ratio
    offset/span (span is the sweep across the segment, offset the part of
    it up to the target).  Both are `Angle`s, or both `AngleForm`s where
    the swept quantity is itself a combination of angles (the difference
    of two profiles); either type answers `value()`, `pi_multiple()`, an
    exact `==`, `str()`, the literal that `__str__` prints for an
    irrational t, and `ratio()`, which for forms stays accurate when the
    span is a tiny difference of large Args.

    The exact parameter value is computed in one place, `_exact_t`, once,
    on first use, by one rule for both types (with a fast path in
    quarter counts for two `Angle`s), and kept in the slot _t, which is
    not compared, hashed or shown.  Ellipsis marks it as not yet known,
    since None means that no exact t was found (see `t_fraction`).
    """

    segment: int
    t_lo: Fraction
    t_hi: Fraction
    offset: Angle | AngleForm
    span: Angle | AngleForm
    _t: Fraction | None = field(default=..., init=False, repr=False, compare=False)

    def _exact_t(self) -> Fraction | None:
        """t_lo + (t_hi - t_lo) * offset / span when both are rational
        multiples of pi, t_hi when an irrational offset equals the span,
        else None.  Between two pi/4 angles it is a ratio of quarter
        counts, so t is one Fraction from integers.  An offset that is a
        rational multiple of pi is asked no equality: the ratio of pi
        multiples is 1 when it is the span."""
        offset, span = self.offset, self.span
        if type(offset) is Angle and type(span) is Angle:
            qo, qs = offset.quarters(), span.quarters()
            if qo is not None and qs:
                t_lo, t_hi = self.t_lo, self.t_hi
                p, r, s, u = t_lo.numerator, t_lo.denominator, t_hi.numerator, t_hi.denominator
                return Fraction(p * u * qs + (s * r - p * u) * qo, r * u * qs)
            if qo is None:  # an irrational offset: t is known only when it is the span
                return self.t_hi if qs is None and offset == span else None
        num = offset.pi_multiple()
        if num is None:
            return self.t_hi if offset == span else None
        if num == 0:
            return self.t_lo
        den = span.pi_multiple()
        return None if den is None else self.t_lo + (self.t_hi - self.t_lo) * num / den

    def t_fraction(self) -> Fraction | None:
        """Exact parameter value when `_exact_t` decides it, else None.
        None does not prove t irrational: two irrational but commensurable
        angles have a rational ratio, which is not detected."""
        t = self._t
        if t is ...:
            t = self._exact_t()
            object.__setattr__(self, "_t", t)
        return t

    def t_float(self) -> float | None:
        """The parameter value as a float, or None beyond float range
        (`to_float`); an irrational t is t_lo + (t_hi - t_lo) * ratio."""
        exact = self.t_fraction()
        if exact is not None:
            return to_float(exact)
        (p, r), (s, u) = self.t_lo.as_integer_ratio(), self.t_hi.as_integer_ratio()
        lo = to_float(self.t_lo)
        width = to_float(Fraction(s * r - p * u, r * u), self.offset.ratio(self.span))
        t = None if lo is None or width is None else lo + width
        return t if t is None or math.isfinite(t) else None

    def __str__(self) -> str:
        exact = self.t_fraction()
        if exact is not None:
            return str(exact)
        return f"{self.t_lo} + ({self.t_hi}-{self.t_lo})*ratio[{self.offset} / {self.span}]"


class MomentValue(NamedTuple):
    value: float | None  # None beyond float range
    sign: int  # exact: -1, 0, +1


@dataclass(frozen=True)
class _Grid:
    """The domain [t0, t1] of a profile, cut at rational breakpoints
    t0 = breaks[0] < ... < breaks[-1] = t1 into pieces [breaks[i],
    breaks[i + 1]]: the rules that `AngleProfile` and `RadialProfile`
    share, each written once.  A profile holds one entry of `values` per
    breakpoint and is read per piece by linear interpolation, so the
    surgery below (reversal, reparametrization) moves breakpoints and
    keeps values.  A profile checks its values, then calls this
    `__post_init__`."""

    breaks: tuple[Fraction, ...]

    def __post_init__(self):
        b = tuple(map(_fraction, self.breaks))
        object.__setattr__(self, "breaks", b)
        if any(s.numerator * t.denominator >= t.numerator * s.denominator
               for s, t in zip(b, b[1:])):
            raise BadBreakpoints("breakpoints must be strictly ascending")

    @property
    def t0(self) -> Fraction:
        return self.breaks[0]

    @property
    def t1(self) -> Fraction:
        return self.breaks[-1]

    def _piece(self, t: Fraction) -> int:
        """The piece that holds t: the last one starting at or below t, so
        a shared breakpoint starts its piece, and t1 is on the last."""
        return min(bisect_right(self.breaks, t) - 1, len(self.breaks) - 2)

    def _locate(self, t: Rational) -> tuple[Fraction, int]:
        """t as a Fraction and its piece; OutsideDomain off [t0, t1]."""
        t = _fraction(t)
        if not (self.t0 <= t <= self.t1):
            raise OutsideDomain(t, self.t0, self.t1)
        return t, self._piece(t)

    def reversed(self):
        """Reflect the parameter: p'(t) = p(t0 + t1 - t)."""
        lo, hi = self.t0, self.t1
        return type(self)(tuple(lo + hi - t for t in reversed(self.breaks)), self.values[::-1])

    def reparametrized(self, new_lo: Rational, new_hi: Rational):
        """Affinely map the domain onto [new_lo, new_hi]; values unchanged."""
        new_lo, new_hi = _fraction(new_lo), _fraction(new_hi)
        span, new_span = self.t1 - self.t0, new_hi - new_lo
        if new_span <= 0:
            raise BadBreakpoints("reparametrization needs nondegenerate domains")
        breaks = tuple(new_lo + (t - self.t0) / span * new_span for t in self.breaks)
        return type(self)(breaks, self.values)


@dataclass(frozen=True)
class AngleProfile(_Grid):
    """Piecewise affine (in value) angle profile: values are the exact
    angles attained at two or more rational breakpoints, strictly monotone,
    which is the contact condition for the associated form.

    The values are checked once, when the profile is built, right after
    the breakpoints: ZeroSlopeSegment or NonMonotone names the first
    segment that is constant or turns back.  orientation is then +1 on an
    increasing profile, -1 on a decreasing one.
    """

    values: tuple[Angle, ...]
    orientation: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = tuple(self.values)
        object.__setattr__(self, "values", v)
        if len(self.breaks) < 2 or len(self.breaks) != len(v):
            raise BadBreakpoints("profile needs matching breaks/values with at least two entries")
        super().__post_init__()
        signs = [angle_compare(y, x) for x, y in zip(v, v[1:])]
        for i, s in enumerate(signs):
            if s == 0:
                raise ZeroSlopeSegment(i)
            if s != signs[0]:
                raise NonMonotone(i)
        object.__setattr__(self, "orientation", signs[0])

    # -- basic queries ---------------------------------------------------

    @cached_property
    def _sweeps(self) -> tuple[Angle, ...]:
        """values[i+1] - values[i] per segment, computed on first use."""
        v = self.values
        return tuple(angle_sub(v[i + 1], v[i]) for i in range(len(v) - 1))

    def segments(self) -> Iterator[tuple[int, Fraction, Fraction, Angle, Angle, Angle]]:
        """Yield (index, t_lo, t_hi, v_lo, v_hi, sweep) per affine piece."""
        b, v = self.breaks, self.values
        for i, sweep in enumerate(self._sweeps):
            yield i, b[i], b[i + 1], v[i], v[i + 1], sweep

    def value_bounds(self) -> tuple[Angle, Angle]:
        """(smallest, largest) attained value."""
        lo, hi = self.values[0], self.values[-1]
        return (lo, hi) if self.orientation > 0 else (hi, lo)

    # -- evaluation ------------------------------------------------------

    def compare_at(self, t: Rational, target: Angle) -> int:
        """Sign of phi(t) - target, decided exactly at rational t: the
        `AngleForm.sign` of `form_at(t)` minus the target."""
        return (self.form_at(t) - AngleForm.of(target)).sign()

    def form_at(self, t: Rational) -> AngleForm:
        """phi(t) exactly: the breakpoint value at a breakpoint, else
        v[i] + lambda * sweep[i] as an `AngleForm`, with lambda in (0, 1)
        the position of t inside segment i.  This is the one way phi is
        read at a rational t."""
        return self._form_on(*self._locate(t))

    def _form_on(self, t: Fraction, i: int) -> AngleForm:
        """`form_at(t)` for t on segment i: (d v[i] + n sweep[i]) / d, lambda = n/d."""
        t_lo, t_hi = self.breaks[i], self.breaks[i + 1]
        if t == t_lo:
            return AngleForm.of(self.values[i])
        if t == t_hi:
            return AngleForm.of(self.values[i + 1])
        (tn, td), (ln, ld), (hn, hd) = ((x.numerator, x.denominator) for x in (t, t_lo, t_hi))
        n, d = (tn * ld - ln * td) * hd, td * (hn * ld - ln * hd)
        f = AngleForm.of(self.values[i]) * d + AngleForm.of(self._sweeps[i]) * n
        # over d through den, not `* Fraction(1, d)`: phi(t) builds no Fraction
        return AngleForm._normal(f.terms, f.r, f.den * d)

    def solve(self, target: Angle) -> ProfilePoint | None:
        """The unique parameter with phi(t) = target, or None if out of range.

        A hit at a shared breakpoint is reported on the earlier segment.

        Cost: O(log n) angle comparisons for n breakpoints, by bisection
        of the monotone breakpoint values, plus one angle difference.  The
        first call on a profile also computes its n - 1 segment sweeps.
        """
        v, sign = self.values, self.orientation
        if sign * angle_compare(target, v[0]) < 0 or sign * angle_compare(target, v[-1]) > 0:
            return None
        # Smallest i >= 1 with v[i] at or past the target; the hit is on
        # segment i - 1, so a breakpoint hit lands on the earlier segment.
        lo, hi = 1, len(v) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * angle_compare(v[mid], target) >= 0:
                hi = mid
            else:
                lo = mid + 1
        i = lo - 1
        return ProfilePoint(
            i, self.breaks[i], self.breaks[lo], angle_sub(target, v[i]), self._sweeps[i]
        )

    @cached_property
    def _quarters(self) -> tuple[int, ...] | None:
        """The values' quarter counts (`Angle.quarters`), or None unless
        every value is a pi/4 direction; computed on first use."""
        qs = tuple(v.quarters() for v in self.values)
        return None if None in qs else qs

    def solve_half_turn_lattice(self, base: Angle) -> list[tuple[int, ProfilePoint]]:
        """All (j, point) with phi(point) = base + j*pi, ordered by parameter.

        Each lattice value in range is hit exactly once, a hit on a shared
        breakpoint on the earlier segment: the j of segment i are
        `_lattice_ranges` of the floors and ceilings of v[i] - base in half
        turns, read from m[i] = base - v[i] in integer quarter counts
        (`Angle.quarters`) when the base and every value are pi/4
        directions, else by one `Angle.floor_ceil` of each m[i]; the
        orientation is not asked.  A
        hit's offset is m[i] plus j half turns, its span the segment's
        sweep.  O(n + J) for n breakpoints and J hits, with no per-hit
        search: a hit makes one offset `Angle`, a table lookup or one of
        the two directions of m[i] that its segment reads once
        (`angles._half_turns`), and one `ProfilePoint`, whose exact t is
        computed on first use.
        """
        b, qs, q_base = self.breaks, self._quarters, base.quarters()
        if qs is not None and q_base is not None:
            m = [q_base - q for q in qs]
            ranges = _lattice_ranges([-d // 4 for d in m], [-(d // 4) for d in m])
            return [
                (j, ProfilePoint(i, b[i], b[i + 1], angle_of_quarters(m[i] + 4 * j), span))
                for i, (span, js) in enumerate(zip(self._sweeps, ranges))
                for j in js
            ]
        m = [angle_sub(base, v) for v in self.values]
        f, c = zip(*(a.floor_ceil() for a in m))
        ranges = _lattice_ranges([-x for x in c], [-x for x in f])
        hits = []
        for i, (span, js) in enumerate(zip(self._sweeps, ranges)):
            steps, t_lo, t_hi = _half_turns(m[i]), b[i], b[i + 1]
            for j in js:
                d, turns = steps[j % 2]
                hits.append((j, ProfilePoint(i, t_lo, t_hi, Angle(d, turns + j // 2), span)))
        return hits

@dataclass(frozen=True)
class RadialProfile(_Grid):
    """Positive r(t), a product of piecewise affine factors.

    values[i] holds each factor's value at breaks[i], and a factor is
    affine on each piece, so r is read per piece by interpolating every
    factor and multiplying.  `from_values` and `constant` build one
    factor; `multiply` gives the product of two profiles.  Every value of
    every factor must be positive, checked once, when the profile is
    built; then every factor is positive on its whole domain, and so is r.
    """

    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        v = tuple(map(tuple, self.values))
        object.__setattr__(self, "values", v)
        if not 2 <= len(self.breaks) == len(v) or not v[0] or any(len(x) != len(v[0]) for x in v):
            raise BadBreakpoints("radial profile needs matching breaks/values, at least two")
        for t, x in zip(self.breaks, v):
            for c in x:
                if c.numerator <= 0:
                    raise NonPositiveRadial(_fraction(t), c)
        super().__post_init__()

    @staticmethod
    def from_values(breaks: Sequence[Rational], values: Sequence[Rational]) -> "RadialProfile":
        """The one factor that takes these values at these breakpoints."""
        return RadialProfile(tuple(breaks), tuple((_fraction(v),) for v in values))

    @staticmethod
    def constant(c: Rational, domain: tuple[Rational, Rational]) -> "RadialProfile":
        """r = c on the domain: `from_values` with two equal values."""
        return RadialProfile.from_values(domain, (c, c))

    def _factors(self, t: Fraction, i: int) -> tuple[Fraction, ...]:
        """Each factor's value at t on piece i; a piece whose ends are equal
        is read with no arithmetic."""
        lo, hi = self.values[i], self.values[i + 1]
        if lo == hi:
            return lo
        t_lo = self.breaks[i]
        lam = (t - t_lo) / (self.breaks[i + 1] - t_lo)
        return tuple(x + (y - x) * lam for x, y in zip(lo, hi))

    def evaluate(self, t: Rational) -> Fraction:
        return math.prod(self._factors(*self._locate(t)))

    def floats_along(self, points: Iterable[ProfilePoint]) -> list[float | None]:
        """float(r(t)) at each point of a sequence ascending in t, or None
        where r(t) is beyond float range.

        One placement rule: t is the point's exact t, or for an irrational
        t, t_lo + (t_hi - t_lo) * lam with lam = offset.ratio(span) read as
        the exact value of its float.  One piece index moves forward past
        every breakpoint at or below t, as `evaluate` places t, and
        `to_float` rounds r(t) once, so each value is `evaluate` at that t,
        bit for bit, with no float of t or of a breakpoint taken.  The cost
        is O(n + len(points)); a radial of one piece with equal end values
        is one float, and no point's t is read.
        """
        b, v = self.breaks, self.values
        if len(v) == 2 and v[0] == v[1]:
            r = to_float(math.prod(v[0]))
            return [r for _ in points]
        i, last, out = 0, len(b) - 2, []
        for pt in points:
            t = pt.t_fraction()
            if t is None:
                t = pt.t_lo + (pt.t_hi - pt.t_lo) * Fraction(pt.offset.ratio(pt.span))
            while i < last and b[i + 1] <= t:
                i += 1
            out.append(to_float(math.prod(self._factors(t, i))))
        return out

    def refined(self, extra: Sequence[Fraction]) -> "RadialProfile":
        """Insert additional breakpoints (values unchanged)."""
        merged = sorted(set(self.breaks) | {t for t in extra if self.t0 < t < self.t1})
        return RadialProfile(tuple(merged), tuple(self._factors(t, self._piece(t)) for t in merged))

    def multiply(self, other: "RadialProfile") -> "RadialProfile":
        """Exact pointwise product; domains must coincide.  The factors of
        both, on the merged breakpoints, in one sorted order, so the product
        does not depend on the order of the operands."""
        if (self.t0, self.t1) != (other.t0, other.t1):
            raise BadBreakpoints("radial profiles must share their domain")
        a, b = self.refined(other.breaks), other.refined(self.breaks)
        return RadialProfile(a.breaks, tuple(zip(*sorted((*zip(*a.values), *zip(*b.values))))))

@dataclass(frozen=True)
class InvariantContactForm:
    """r(t) * (cos(phi(t)) dtheta_1 + sin(phi(t)) dtheta_2) on T^2 x [t0, t1],
    contact by construction: r is positive and phi strictly monotone."""

    phi: AngleProfile
    radial: RadialProfile

    def __post_init__(self):
        if (self.phi.t0, self.phi.t1) != (self.radial.t0, self.radial.t1):
            raise BadBreakpoints("phi and radial must share their domain")

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self.phi.t0, self.phi.t1)

    @staticmethod
    def unit(phi: AngleProfile) -> "InvariantContactForm":
        return InvariantContactForm(phi, RadialProfile.constant(1, (phi.t0, phi.t1)))

    def reversed(self) -> "InvariantContactForm":
        return InvariantContactForm(self.phi.reversed(), self.radial.reversed())

    def reparametrized(self, new_lo: Rational, new_hi: Rational) -> "InvariantContactForm":
        return InvariantContactForm(
            self.phi.reparametrized(new_lo, new_hi),
            self.radial.reparametrized(new_lo, new_hi),
        )


def contact_check(form: InvariantContactForm) -> int:
    """+1 or -1: the coorientation sign of alpha wedge d(alpha).

    With alpha = r (cos phi, sin phi) the 3-form is r^2 phi' dt dtheta_1
    dtheta_2, so given r > 0 the form is contact iff phi is strictly
    monotone, and the verdict is the slope sign.  Both are checked when
    the profiles are built, so this reads phi's orientation.
    """
    return form.phi.orientation


def sweep(form: InvariantContactForm) -> Angle:
    """Total signed angle swept by phi across the domain, exactly."""
    return angle_sub(form.phi.values[-1], form.phi.values[0])


def _eta(eta: Eta) -> tuple[int, int]:
    """eta as (m, n): a `Direction`'s components, a pair as it is given."""
    return eta.as_tuple() if isinstance(eta, Direction) else tuple(eta)


def moment_sign(form: InvariantContactForm, eta: Eta, t: Rational) -> int:
    """Exact sign of the eta-moment r(t)(m cos phi(t) + n sin phi(t)).

    It is 0 for eta = (0, 0); else it vanishes iff phi(t) lies on the
    half-turn lattice through base = Arg(-n, m); between consecutive
    lattice points the sign alternates, positive just above odd lattice
    indices.  One `floor_ceil` of d = phi(t) - base gives j = floor(d / pi),
    the index below phi(t), and the ceiling; the moment is 0 iff they agree.
    """
    m, n = _eta(eta)
    if m == n == 0:
        return 0
    d = form.phi.form_at(t) - AngleForm.of(direction_angle((-n, m)))
    j, c = d.floor_ceil()
    return 0 if j == c else (1 if j % 2 else -1)


def _moment(form: InvariantContactForm, eta: Eta, t: Rational):
    """The eta-moment at t as (r(t), m cos a + n sin a, k), for `to_float`:
    a is phi(t) less its whole turns, exactly, and an eta beyond float
    range is shifted right by k bits (the factor moves by under 2**-999)."""
    m, n = _eta(eta)
    f = form.phi.form_at(t)
    # whole turns dropped from r in integers; violation messages print the float it gives
    a = AngleForm._normal(f.terms, f.r % (2 * f.den), f.den).value()
    k = max(abs(m).bit_length(), abs(n).bit_length(), 1000) - 1000
    return form.radial.evaluate(t), (m >> k) * math.cos(a) + (n >> k) * math.sin(a), k


def moment_eval(form: InvariantContactForm, eta: Eta, t: Rational) -> MomentValue:
    """Moment of the torus element eta = (m, n), or a `Direction`, at rational t.

    Returns the float value together with the exact sign; the value is
    snapped to 0.0 when the sign is provably zero, and is None when it is
    beyond float range, above or below (`to_float`), so 0.0 always means
    an exact zero.
    """
    if (sign := moment_sign(form, eta, t)) == 0:
        return MomentValue(0.0, 0)
    # a float factor of 0.0 is cancellation in m cos a + n sin a: no float
    return MomentValue(to_float(*_moment(form, eta, t)) or None, sign)


def rescale(form: InvariantContactForm, radial2: RadialProfile) -> InvariantContactForm:
    """Multiply the radial part pointwise by radial2, positive as every
    `RadialProfile` is.

    The contact verdict and every exact moment sign are unchanged; moment
    values scale pointwise by radial2(t).
    """
    return replace(form, radial=form.radial.multiply(radial2))
