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
v_lo + lambda * sweep.  Comparing it with an angle is the sign of the
difference; placing it on a half-turn lattice is the floor of that
difference in half turns.  Both are `AngleForm` decisions: a float
estimate with a stated error bound, then exact fallbacks.  moment_eval
reports a zero only when it can prove one, and its float value drops
whole turns exactly before cos and sin are taken.  No decision rests on
an unbounded float, and every float shown comes from `angles.to_float`.

The radial profile is piecewise polynomial with rational coefficients.
Users build affine profiles from breakpoint values; products (needed for
exact rescaling) stay in the class.  Positivity is checked on construction
for affine pieces and is preserved by products.

Parameter values where a profile attains a given lattice angle are
returned as `ProfilePoint`s: the exact ratio of two angle differences
(`Angle`s or `AngleForm`s) inside a segment, plus a float approximation.
The ratio is read as a Fraction when both differences are rational
multiples of pi, computed once, on first use.
`solve_half_turn_lattice` finds all J hits of a half-turn lattice in one
walk over the n segments, O(n + J).  The walk is written once: only how
it reads the differences base - v[i] depends on the input, as integer
quarter turns on a pi/4 lattice through a profile of pi/4 values, else
as `Angle`s.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .angles import (
    Angle,
    AngleForm,
    _fraction,
    add_half_turns,
    angle_compare,
    angle_of_quarters,
    angle_sub,
    ceil_half_turns,
    direction_angle,
    floor_half_turns,
    format_angle,
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


def _literal(a: Angle | AngleForm) -> str:
    return format_angle(a) if isinstance(a, Angle) else str(a)


@dataclass(frozen=True, slots=True)
class ProfilePoint:
    """Parameter value where a profile meets a target angle.

    The location inside segment [t_lo, t_hi] is the ratio of angle values
    offset/span (span is the sweep across the segment, offset the part of
    it up to the target).  Both are `Angle`s, or both `AngleForm`s where
    the swept quantity is itself a combination of angles (the difference
    of two profiles); either type answers `value()`, `pi_multiple()` and
    an exact `==`, and `ratio()`, which for forms stays accurate when the
    span is a tiny difference of large Args.

    The exact parameter value is computed in one place, `_exact_t`, once,
    on first use, and kept in the slot _t, which is not compared, hashed
    or shown.  Ellipsis marks it as not yet known, since None means that
    no exact t was found (see `t_fraction`).
    """

    segment: int
    t_lo: Fraction
    t_hi: Fraction
    offset: Angle | AngleForm
    span: Angle | AngleForm
    _t: Fraction | None = field(default=..., init=False, repr=False, compare=False)

    def _exact_t(self) -> Fraction | None:
        """t_lo + (t_hi - t_lo) * offset / span when offset is zero or the
        span, or both are rational multiples of pi, else None.  Between two
        pi/4 angles it is a ratio of quarter counts, so t is one Fraction
        from integers."""
        offset, span = self.offset, self.span
        if type(offset) is Angle and type(span) is Angle:
            qo, qs = offset.quarters(), span.quarters()
            if qo is not None and qs:
                t_lo, t_hi = self.t_lo, self.t_hi
                p, r, s, u = t_lo.numerator, t_lo.denominator, t_hi.numerator, t_hi.denominator
                return Fraction(p * u * qs + (s * r - p * u) * qo, r * u * qs)
        if offset == span:
            return self.t_hi
        num = self.offset.pi_multiple()
        if num == 0:
            return self.t_lo
        den = self.span.pi_multiple()
        if num is None or den is None:
            return None
        return self.t_lo + (self.t_hi - self.t_lo) * num / den

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
        lo = to_float(self.t_lo)
        width = to_float(self.t_hi - self.t_lo, self.offset.ratio(self.span))
        t = None if lo is None or width is None else lo + width
        return t if t is None or math.isfinite(t) else None

    def __str__(self) -> str:
        exact = self.t_fraction()
        if exact is not None:
            return str(exact)
        return (
            f"{self.t_lo} + ({self.t_hi}-{self.t_lo})"
            f"*ratio[{_literal(self.offset)} / {_literal(self.span)}]"
        )


class MomentValue(NamedTuple):
    value: float | None  # None beyond float range
    sign: int  # exact: -1, 0, +1


@dataclass(frozen=True)
class AngleProfile:
    """Piecewise affine (in value) angle profile over rational breakpoints.

    breaks are strictly ascending; values are the exact angles attained at
    the breakpoints.  A degenerate profile with two equal breakpoints and
    equal values is allowed as the collapsed interval [t0, t0]; it is not
    contact and has zero sweep.
    """

    breaks: tuple[Fraction, ...]
    values: tuple[Angle, ...]

    def __post_init__(self):
        object.__setattr__(self, "breaks", tuple(_fraction(t) for t in self.breaks))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.breaks) < 2 or len(self.breaks) != len(self.values):
            raise BadBreakpoints("profile needs matching breaks/values with at least two entries")
        degenerate = (
            len(self.breaks) == 2
            and self.breaks[0] == self.breaks[1]
            and self.values[0] == self.values[1]
        )
        if not degenerate:
            for i in range(len(self.breaks) - 1):
                if not self.breaks[i] < self.breaks[i + 1]:
                    raise BadBreakpoints("breakpoints must be strictly ascending")

    # -- basic queries ---------------------------------------------------

    @property
    def t0(self) -> Fraction:
        return self.breaks[0]

    @property
    def t1(self) -> Fraction:
        return self.breaks[-1]

    @property
    def is_degenerate(self) -> bool:
        return self.breaks[0] == self.breaks[-1]

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

    @cached_property
    def orientation(self) -> int:
        """+1 if strictly increasing, -1 if strictly decreasing.

        Raises ZeroSlopeSegment / NonMonotone otherwise; this is the
        contact condition for the associated form.  Decided once, on
        first use; a failure is not kept, so it raises on every use.
        """
        sign = 0
        v = self.values
        for i in range(len(v) - 1):
            s = angle_compare(v[i + 1], v[i])
            if s == 0:
                raise ZeroSlopeSegment(i)
            if sign == 0:
                sign = s
            elif s != sign:
                raise NonMonotone(i)
        return sign

    def value_bounds(self) -> tuple[Angle, Angle]:
        """(smallest, largest) attained value; assumes monotone profile."""
        lo, hi = self.values[0], self.values[-1]
        return (lo, hi) if angle_compare(lo, hi) <= 0 else (hi, lo)

    def _segment_of(self, t: Fraction) -> int:
        if not (self.t0 <= t <= self.t1):
            raise OutsideDomain(t, self.t0, self.t1)
        i = bisect_right(self.breaks, t) - 1
        return min(i, len(self.breaks) - 2)

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
        t = _fraction(t)
        i = self._segment_of(t)
        t_lo, t_hi = self.breaks[i], self.breaks[i + 1]
        if t == t_lo or self.is_degenerate:
            return AngleForm.of(self.values[i])
        if t == t_hi:
            return AngleForm.of(self.values[i + 1])
        lam = (t - t_lo) / (t_hi - t_lo)
        return AngleForm.of(self.values[i]) + AngleForm.of(self._sweeps[i]) * lam

    def solve(self, target: Angle) -> ProfilePoint | None:
        """The unique parameter with phi(t) = target, or None if out of range.

        Requires a strictly monotone profile (either orientation); the
        answer is not meaningful otherwise.  A degenerate or zero-sweep
        profile returns None.  A hit at a shared breakpoint is reported
        on the earlier segment.

        Cost: O(log n) angle comparisons for n breakpoints, by bisection
        of the monotone breakpoint values, plus one angle difference.  The
        first call on a profile also computes its n - 1 segment sweeps.
        """
        v = self.values
        sign = angle_compare(v[-1], v[0])
        if sign == 0:
            return None
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

        Requires a strictly monotone profile; each lattice value in range
        is hit exactly once, a hit on a shared breakpoint on the earlier
        segment.  One walk over the segments reads m[i] = base - v[i] once
        per value: in integer quarter counts (`Angle.quarters`) when the
        base and every value are pi/4 directions, else as `Angle`s.  j
        starts at -floor(m[0]) and segment i ends at -ceil(m[i+1]), floor
        and ceiling swapped on a decreasing profile, where j descends; a
        hit's offset is m[i] plus j half turns, its span the segment's
        sweep.  O(n + J) for n breakpoints and J hits, with no per-hit
        search; each point computes its exact t on first use.
        """
        v, b, qs, q_base = self.values, self.breaks, self._quarters, base.quarters()
        if qs is not None and q_base is not None:
            m = [q_base - q for q in qs]
            floor, ceil = (lambda d: d // 4), (lambda d: -(-d // 4))
            step = lambda d, j: angle_of_quarters(d + 4 * j)
        else:
            m = [angle_sub(base, x) for x in v]
            floor, ceil, step = floor_half_turns, ceil_half_turns, add_half_turns
        sign = angle_compare(v[-1], v[0])
        if sign == 0:
            return []
        first, last = (floor, ceil) if sign > 0 else (ceil, floor)
        out, j = [], -first(m[0])
        for i, span in enumerate(self._sweeps):
            end = -last(m[i + 1])
            js = range(j, end + sign, sign)
            j = end + sign
            t_lo, t_hi, at = b[i], b[i + 1], m[i]
            for j_hit in js:
                out.append((j_hit, ProfilePoint(i, t_lo, t_hi, step(at, j_hit), span)))
        return out

    # -- surgery ---------------------------------------------------------

    def reversed(self) -> "AngleProfile":
        """Reflect the parameter: phi'(t) = phi(t0 + t1 - t)."""
        lo, hi = self.t0, self.t1
        return AngleProfile(
            tuple(lo + hi - t for t in reversed(self.breaks)),
            tuple(reversed(self.values)),
        )

    def reparametrized(self, new_lo: Rational, new_hi: Rational) -> "AngleProfile":
        """Affinely map the domain onto [new_lo, new_hi]; values unchanged."""
        new_lo, new_hi = _fraction(new_lo), _fraction(new_hi)
        span, new_span = self.t1 - self.t0, new_hi - new_lo
        if span == 0 or new_span <= 0:
            raise BadBreakpoints("reparametrization needs nondegenerate domains")
        return AngleProfile(
            tuple(new_lo + (t - self.t0) / span * new_span for t in self.breaks),
            self.values,
        )

    def _restricted_unit(
        self, i: int, t_a: Fraction, value_a: Angle, j: int, t_b: Fraction, value_b: Angle
    ) -> "AngleProfile":
        """The restriction to [t_a, t_b], mapped affinely onto [0, 1].

        t_a lies on segment i and t_b on segment j as `solve` reports them
        (a shared breakpoint on the earlier segment), where phi takes the
        values value_a and value_b that the caller solved exactly.  The
        breakpoints strictly inside are b[i + 1 .. j], without b[i + 1]
        when t_a is b[i + 1], so nothing is searched: O(j - i).
        """
        b, w = self.breaks, t_b - t_a
        i0 = i + 1 if t_a < b[i + 1] else i + 2
        return AngleProfile(
            (0, *[(t - t_a) / w for t in b[i0 : j + 1]], 1),
            (value_a, *self.values[i0 : j + 1], value_b),
        )


def _poly_shift(
    coeffs: Sequence[Fraction], delta: Fraction, scale: Rational = 1
) -> tuple[Fraction, ...]:
    # p(u) -> p(delta + scale*u), by Horner: result := result*(scale*u + delta) + c
    result = [Fraction(0)]
    for c in reversed(coeffs):
        shifted = [Fraction(0)] + [x * scale for x in result]
        for i in range(len(result)):
            shifted[i] += result[i] * delta
        shifted[0] += c
        result = shifted
    while len(result) > 1 and result[-1] == 0:
        result.pop()
    return tuple(result)


def _poly_eval(coeffs: Sequence[Fraction], u: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


_ZERO = Fraction(0)


def _radial_values(
    breaks: Sequence[Rational], values: Sequence[Rational]
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """breaks and values as Fractions, checked for a radial profile: as many
    of each, at least two, every value positive, breaks strictly ascending."""
    breaks = tuple(map(_fraction, breaks))
    values = tuple(map(_fraction, values))
    if len(breaks) != len(values) or len(breaks) < 2:
        raise BadBreakpoints("radial profile needs matching breaks/values, at least two")
    for t, v in zip(breaks, values):
        if v <= 0:
            raise NonPositiveRadial(t, v)
    for i in range(len(breaks) - 1):
        if not breaks[i] < breaks[i + 1]:
            raise BadBreakpoints("breakpoints must be strictly ascending")
    return breaks, values


@dataclass(frozen=True)
class RadialProfile:
    """Positive piecewise polynomial r(t) with rational coefficients.

    Each piece i covers [breaks[i], breaks[i+1]] and stores coefficients in
    the local variable u = t - breaks[i], lowest degree first.  The public
    constructors only produce affine pieces (positivity checked at the
    breakpoints, which suffices for degree one) and products of existing
    profiles (positivity inherited), so every instance is positive on its
    whole domain.
    """

    breaks: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "breaks", tuple(_fraction(t) for t in self.breaks))
        object.__setattr__(self, "pieces", tuple(tuple(p) for p in self.pieces))
        if len(self.breaks) != len(self.pieces) + 1:
            raise BadBreakpoints("need exactly one piece per breakpoint gap")

    @staticmethod
    def from_values(breaks: Sequence[Rational], values: Sequence[Rational]) -> "RadialProfile":
        breaks, values = _radial_values(breaks, values)
        pieces = tuple(
            (values[i], (values[i + 1] - values[i]) / (breaks[i + 1] - breaks[i]))
            for i in range(len(breaks) - 1)
        )
        return RadialProfile(breaks, pieces)

    @staticmethod
    def constant(c: Rational, domain: tuple[Rational, Rational]) -> "RadialProfile":
        """r = c on the domain: `from_values` with two equal values, whose
        one piece (c, 0) needs no slope arithmetic."""
        breaks, (c, _) = _radial_values(domain, (c, c))
        return RadialProfile(breaks, ((c, _ZERO),))

    @property
    def t0(self) -> Fraction:
        return self.breaks[0]

    @property
    def t1(self) -> Fraction:
        return self.breaks[-1]

    def evaluate(self, t: Rational) -> Fraction:
        t = _fraction(t)
        if not (self.t0 <= t <= self.t1):
            raise OutsideDomain(t, self.t0, self.t1)
        i = min(bisect_right(self.breaks, t) - 1, len(self.pieces) - 1)
        return _poly_eval(self.pieces[i], t - self.breaks[i])

    def floats_along(self, points: Iterable[ProfilePoint]) -> list[float | None]:
        """float(r(t)) at each point of a sequence ascending in t, or None
        where r(t) is beyond float range.

        One placement rule: t is the point's exact t, or for an irrational
        t, t_lo + (t_hi - t_lo) * lam with lam = offset.ratio(span) read as
        the exact value of its float.  One piece index moves forward past
        every breakpoint at or below t, as `evaluate` places t, and
        `to_float` rounds r(t) once, so each value is `evaluate` at that t,
        bit for bit, with no float of t or of a breakpoint taken.  The cost
        is O(n + len(points)); a constant radial is one float, and no
        point's t is read.
        """
        b, pieces = self.breaks, self.pieces
        if len(pieces) == 1 and not any(pieces[0][1:]):
            r = to_float(pieces[0][0])
            return [r for _ in points]
        i, last, out = 0, len(pieces) - 1, []
        for pt in points:
            t = pt.t_fraction()
            if t is None:
                t = pt.t_lo + (pt.t_hi - pt.t_lo) * Fraction(pt.offset.ratio(pt.span))
            while i < last and b[i + 1] <= t:
                i += 1
            out.append(to_float(_poly_eval(pieces[i], t - b[i])))
        return out

    def breakpoint_values(self) -> tuple[Fraction, ...]:
        return tuple(self.evaluate(t) for t in self.breaks)

    def refined(self, extra: Sequence[Fraction]) -> "RadialProfile":
        """Insert additional breakpoints (values unchanged)."""
        merged = sorted(set(self.breaks) | {t for t in extra if self.t0 < t < self.t1})
        pieces = []
        for i in range(len(merged) - 1):
            j = min(bisect_right(self.breaks, merged[i]) - 1, len(self.pieces) - 1)
            pieces.append(_poly_shift(self.pieces[j], merged[i] - self.breaks[j]))
        return RadialProfile(tuple(merged), tuple(pieces))

    def multiply(self, other: "RadialProfile") -> "RadialProfile":
        """Exact pointwise product; domains must coincide."""
        if (self.t0, self.t1) != (other.t0, other.t1):
            raise BadBreakpoints("radial profiles must share their domain")
        a = self.refined(other.breaks)
        b = other.refined(self.breaks)
        return RadialProfile(
            a.breaks, tuple(_poly_mul(p, q) for p, q in zip(a.pieces, b.pieces))
        )

    def reversed(self) -> "RadialProfile":
        lo, hi = self.t0, self.t1
        breaks = tuple(lo + hi - t for t in reversed(self.breaks))
        pieces = []
        for i in reversed(range(len(self.pieces))):
            span = self.breaks[i + 1] - self.breaks[i]
            # r'(u) = r(span - u) on the mirrored piece
            flipped = _poly_shift(self.pieces[i], span)
            pieces.append(tuple(c * (-1) ** k for k, c in enumerate(flipped)))
        return RadialProfile(breaks, tuple(pieces))

    def reparametrized(self, new_lo: Rational, new_hi: Rational) -> "RadialProfile":
        new_lo, new_hi = _fraction(new_lo), _fraction(new_hi)
        span, new_span = self.t1 - self.t0, new_hi - new_lo
        if span == 0 or new_span <= 0:
            raise BadBreakpoints("reparametrization needs nondegenerate domains")
        rate = span / new_span
        breaks = tuple(new_lo + (t - self.t0) / span * new_span for t in self.breaks)
        pieces = tuple(
            tuple(c * rate**k for k, c in enumerate(p)) for p in self.pieces
        )
        return RadialProfile(breaks, pieces)

    def _restricted_unit(self, t_a: Fraction, t_b: Fraction) -> "RadialProfile":
        """The restriction to [t_a, t_b], mapped affinely onto [0, 1].

        Each piece is shifted to its new start and rescaled in one pass
        (`_poly_shift`); a constant piece is copied as it is.  Two
        bisections find the pieces, so the cost is O(log n + pieces kept).
        """
        b, w = self.breaks, t_b - t_a
        # piece i0 holds t_a; breakpoints i0+1 .. i1-1 lie strictly inside
        i0, i1 = bisect_right(b, t_a) - 1, bisect_left(b, t_b)
        pieces = tuple(
            p[:1] if not any(p[1:]) else _poly_shift(p, t_a - b[i] if i == i0 else 0, w)
            for i, p in enumerate(self.pieces[i0:i1], start=i0)
        )
        return RadialProfile((0, *[(t - t_a) / w for t in b[i0 + 1 : i1]], 1), pieces)


@dataclass(frozen=True)
class InvariantContactForm:
    """r(t) * (cos(phi(t)) dtheta_1 + sin(phi(t)) dtheta_2) on T^2 x [t0, t1]."""

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
    monotone, and the verdict is the slope sign.  Raises ZeroSlopeSegment
    or NonMonotone otherwise.
    """
    return form.phi.orientation


def sweep(form: InvariantContactForm) -> Angle:
    """Total signed angle swept by phi across the domain, exactly."""
    return angle_sub(form.phi.values[-1], form.phi.values[0])


def moment_sign(form: InvariantContactForm, eta: tuple[int, int], t: Rational) -> int:
    """Exact sign of the eta-moment r(t)(m cos phi(t) + n sin phi(t)).

    The moment vanishes iff phi(t) lies on the half-turn lattice through
    base = Arg(-n, m); between consecutive lattice points the sign
    alternates, positive just above odd lattice indices.  With
    d = phi(t) - base as one `AngleForm`, the index below phi(t) is
    j = floor(d / pi), and the moment is zero iff d - j*pi is.
    """
    m, n = eta
    d = form.phi.form_at(t) - AngleForm.of(direction_angle((-n, m)))
    j = d.floor()
    if AngleForm._normal(d.terms, d.r - j).sign() == 0:
        return 0
    return 1 if j % 2 else -1


def _moment(form: InvariantContactForm, eta: tuple[int, int], t: Rational):
    """The eta-moment at t as (r(t), m cos a + n sin a, k), for `to_float`:
    a is phi(t) less its whole turns, exactly, and an eta beyond float
    range is shifted right by k bits (the factor moves by under 2**-999)."""
    m, n = eta
    f = form.phi.form_at(t)
    a = AngleForm._normal(f.terms, f.r % 2).value()
    k = max(abs(m).bit_length(), abs(n).bit_length(), 1000) - 1000
    return form.radial.evaluate(t), (m >> k) * math.cos(a) + (n >> k) * math.sin(a), k


def moment_eval(form: InvariantContactForm, eta: tuple[int, int], t: Rational) -> MomentValue:
    """Moment of the torus element eta = (m, n) at rational t.

    Returns the float value together with the exact sign; the value is
    snapped to 0.0 when the sign is provably zero, and is None when it is
    beyond float range, above or below (`to_float`), so 0.0 always means
    an exact zero.
    """
    sign = 0 if tuple(eta) == (0, 0) else moment_sign(form, eta, t)
    if sign == 0:
        return MomentValue(0.0, 0)
    # a float factor of 0.0 is cancellation in m cos a + n sin a: no float
    return MomentValue(to_float(*_moment(form, eta, t)) or None, sign)


def rescale(form: InvariantContactForm, radial2: RadialProfile) -> InvariantContactForm:
    """Multiply the radial part pointwise by the positive profile radial2.

    The contact verdict and every exact moment sign are unchanged; moment
    values scale pointwise by radial2(t).
    """
    for t, v in zip(radial2.breaks, radial2.breakpoint_values()):
        if v <= 0:
            raise NonPositiveRadial(t, v)
    return replace(form, radial=form.radial.multiply(radial2))
