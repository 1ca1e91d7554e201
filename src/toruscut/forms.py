"""Rotating contact forms on T^2 x [t0, t1] and their moment functions.

A torus-invariant contact form is modelled as

    alpha = r(t) * (cos(phi(t)) d\theta_1 + sin(phi(t)) d\theta_2)

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
an unbounded float.

The radial profile is piecewise polynomial with rational coefficients.
Users build affine profiles from breakpoint values; products (needed for
exact rescaling) stay in the class.  Positivity is checked on construction
for affine pieces and is preserved by products.

Parameter values where a profile attains a given lattice angle are
returned as `ProfilePoint`s: the exact ratio of two angle differences
(`Angle`s or `AngleForm`s) inside a segment, plus a float approximation.
The ratio collapses to a Fraction exactly when both differences are
rational multiples of pi.  `solve_half_turn_lattice` finds all J hits of
a half-turn lattice in one pass over the n segments, O(n + J), with one
Fraction per exact hit.
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
    _lattice_bounds,
    add_half_turns,
    angle_add,
    angle_compare,
    angle_sub,
    ceil_half_turns,
    direction_angle,
    floor_half_turns,
    format_angle,
    negate,
)
from .errors import (
    BadBreakpoints,
    NonMonotone,
    NonPositiveRadial,
    OutsideDomain,
    ZeroSlopeSegment,
)

Rational = Fraction | int


def _frac(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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

    The exact parameter value lives in the slot _t, which is not
    compared, hashed or shown.  `solve_half_turn_lattice` fills it where
    its walk already knows t; otherwise `t_fraction` computes it from
    offset and span on first use.  Ellipsis marks it as not yet known,
    since None means an irrational t.
    """

    segment: int
    t_lo: Fraction
    t_hi: Fraction
    offset: Angle | AngleForm
    span: Angle | AngleForm
    _t: Fraction | None = field(default=..., init=False, repr=False, compare=False)

    def _exact_t(self) -> Fraction | None:
        if self.offset == self.span:
            return self.t_hi
        num = self.offset.pi_multiple()
        if num == 0:
            return self.t_lo
        den = self.span.pi_multiple()
        if num is None or den is None:
            return None
        return self.t_lo + (self.t_hi - self.t_lo) * num / den

    def t_fraction(self) -> Fraction | None:
        """Exact parameter value, when the ratio is rational."""
        t = self._t
        if t is ...:
            t = self._exact_t()
            object.__setattr__(self, "_t", t)
        return t

    def t_float(self) -> float:
        exact = self.t_fraction()
        if exact is not None:
            return float(exact)
        lam = self.offset.ratio(self.span)
        return float(self.t_lo) + float(self.t_hi - self.t_lo) * lam

    def __str__(self) -> str:
        exact = self.t_fraction()
        if exact is not None:
            return str(exact)
        return (
            f"{self.t_lo} + ({self.t_hi}-{self.t_lo})"
            f"*ratio[{_literal(self.offset)} / {_literal(self.span)}]"
        )


class MomentValue(NamedTuple):
    value: float
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
        object.__setattr__(self, "breaks", tuple(_frac(t) for t in self.breaks))
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

    def orientation(self) -> int:
        """+1 if strictly increasing, -1 if strictly decreasing.

        Raises ZeroSlopeSegment / NonMonotone otherwise; this is the
        contact condition for the associated form.
        """
        if self.is_degenerate:
            raise ZeroSlopeSegment(0)
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
        t = _frac(t)
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

    def solve_half_turn_lattice(self, base: Angle) -> list[tuple[int, ProfilePoint]]:
        """All (j, point) with phi(point) = base + j*pi, ordered by parameter.

        Requires a strictly monotone profile; each lattice value in range
        is hit exactly once, a hit on a shared breakpoint on the earlier
        segment.  One pass over the segments: the lattice bound at each
        segment's far end is its last j (j descends on a decreasing
        profile), and each hit's offset steps by half turns from the
        segment's first.  Where a segment's offsets and sweep are rational
        multiples of pi (every segment, when the base and the values are
        pi/4 directions), each hit's exact t is one Fraction from
        per-segment integers, handed to the point.  Cost: O(n + J) for n
        breakpoints and J hits, with no per-hit search.
        """
        v, b, sweeps = self.values, self.breaks, self._sweeps
        sign = angle_compare(v[-1], v[0])
        j_min, j_max = _lattice_bounds(base, *self.value_bounds())
        if sign == 0 or j_min > j_max:
            return []
        bound = floor_half_turns if sign > 0 else ceil_half_turns
        out = []
        j = j_min if sign > 0 else j_max
        minus_base = negate(base)
        d_hi = angle_add(v[0], minus_base)
        for i in range(len(sweeps)):
            d_lo, d_hi = d_hi, angle_add(v[i + 1], minus_base)  # v[i] - base, v[i + 1] - base
            end = bound(d_hi)
            js = range(j, end + sign, sign)
            j = end + sign
            if not js:
                continue
            t_lo, t_hi, span = b[i], b[i + 1], sweeps[i]
            first = add_half_turns(negate(d_lo), js[0])  # base + j*pi - v[i]
            num, den = first.pi_multiple(), span.pi_multiple()
            exact = num is not None and den is not None
            if exact:
                # t = t_lo + (t_hi - t_lo) * (num + m) / den at offset first + m*pi,
                # as one Fraction over r*u*c*e, with t_lo = p/r, t_hi = s/u,
                # num = a/c and den = e/f
                p, r, s, u = t_lo.numerator, t_lo.denominator, t_hi.numerator, t_hi.denominator
                a, c, e, f = num.numerator, num.denominator, den.numerator, den.denominator
                at_lo, per_m, t_den = p * u * c * e, (s * r - p * u) * f, r * u * c * e
            for j_hit in js:
                m = j_hit - js[0]
                pt = ProfilePoint(i, t_lo, t_hi, add_half_turns(first, m), span)
                if exact:
                    object.__setattr__(pt, "_t", Fraction(at_lo + per_m * (a + m * c), t_den))
                out.append((j_hit, pt))
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
        new_lo, new_hi = _frac(new_lo), _frac(new_hi)
        span, new_span = self.t1 - self.t0, new_hi - new_lo
        if span == 0 or new_span <= 0:
            raise ValueError("reparametrization needs nondegenerate domains")
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
        object.__setattr__(self, "breaks", tuple(_frac(t) for t in self.breaks))
        object.__setattr__(self, "pieces", tuple(tuple(p) for p in self.pieces))
        if len(self.breaks) != len(self.pieces) + 1:
            raise ValueError("need exactly one piece per breakpoint gap")

    @staticmethod
    def from_values(breaks: Sequence[Rational], values: Sequence[Rational]) -> "RadialProfile":
        breaks = [_frac(t) for t in breaks]
        values = [_frac(v) for v in values]
        if len(breaks) != len(values) or len(breaks) < 2:
            raise BadBreakpoints("radial profile needs matching breaks/values, at least two")
        for t, v in zip(breaks, values):
            if v <= 0:
                raise NonPositiveRadial(t, v)
        pieces = []
        for i in range(len(breaks) - 1):
            span = breaks[i + 1] - breaks[i]
            if span <= 0:
                raise BadBreakpoints("breakpoints must be strictly ascending")
            pieces.append((values[i], (values[i + 1] - values[i]) / span))
        return RadialProfile(tuple(breaks), tuple(pieces))

    @staticmethod
    def constant(c: Rational, domain: tuple[Rational, Rational]) -> "RadialProfile":
        return RadialProfile.from_values(list(domain), [c, c])

    @property
    def t0(self) -> Fraction:
        return self.breaks[0]

    @property
    def t1(self) -> Fraction:
        return self.breaks[-1]

    def evaluate(self, t: Rational) -> Fraction:
        t = _frac(t)
        if not (self.t0 <= t <= self.t1):
            raise OutsideDomain(t, self.t0, self.t1)
        i = min(bisect_right(self.breaks, t) - 1, len(self.pieces) - 1)
        return _poly_eval(self.pieces[i], t - self.breaks[i])

    def floats_along(self, points: Iterable[ProfilePoint]) -> list[float]:
        """float(r(t)) at each point of a sequence ascending in t.

        At an exact t it is float(`evaluate`(t)) bit for bit; at an
        irrational t, the float Horner sum of the piece's coefficients at
        u = `t_float()` - float(start of the piece).  One piece index moves
        forward with t, so the cost is O(n + len(points)).  A constant
        piece is one float, and once the index is on the last piece and
        that piece is constant, no point's t is read at all.
        """
        b, pieces = self.breaks, self.pieces
        flat = [float(p[0]) if not any(p[1:]) else None for p in pieces]
        i, last, out = 0, len(pieces) - 1, []
        for pt in points:
            if i == last and flat[i] is not None:
                out.append(flat[i])
                continue
            t = pt.t_fraction()
            if t is None:
                t = pt.t_float()
            while i < last and b[i + 1] <= t:
                i += 1
            if flat[i] is not None:
                out.append(flat[i])
            elif isinstance(t, Fraction):
                out.append(float(_poly_eval(pieces[i], t - b[i])))
            else:
                u, acc = t - float(b[i]), 0.0
                for c in reversed(pieces[i]):
                    acc = acc * u + float(c)
                out.append(acc)
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
            raise ValueError("radial profiles must share their domain")
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
        new_lo, new_hi = _frac(new_lo), _frac(new_hi)
        span, new_span = self.t1 - self.t0, new_hi - new_lo
        if span == 0 or new_span <= 0:
            raise ValueError("reparametrization needs nondegenerate domains")
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
    return form.phi.orientation()


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


def moment_eval(form: InvariantContactForm, eta: tuple[int, int], t: Rational) -> MomentValue:
    """Moment of the torus element eta = (m, n) at rational t.

    Returns the float value together with the exact sign; the value is
    snapped to 0.0 when the sign is provably zero.  The float is taken of
    phi(t) with its whole turns dropped exactly, so it keeps its accuracy
    however many turns the profile sweeps.
    """
    m, n = eta
    if (m, n) == (0, 0):
        return MomentValue(0.0, 0)
    t = _frac(t)
    sign = moment_sign(form, (m, n), t)
    if sign == 0:
        return MomentValue(0.0, 0)
    r = float(form.radial.evaluate(t))
    f = form.phi.form_at(t)
    a = AngleForm._normal(f.terms, f.r % 2).value()
    return MomentValue(r * (m * math.cos(a) + n * math.sin(a)), sign)


def rescale(form: InvariantContactForm, radial2: RadialProfile) -> InvariantContactForm:
    """Multiply the radial part pointwise by the positive profile radial2.

    The contact verdict and every exact moment sign are unchanged; moment
    values scale pointwise by radial2(t).
    """
    for t, v in zip(radial2.breaks, radial2.breakpoint_values()):
        if v <= 0:
            raise NonPositiveRadial(t, v)
    return replace(form, radial=form.radial.multiply(radial2))
