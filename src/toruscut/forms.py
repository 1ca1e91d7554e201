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

Exact sign policy.  moment_eval reports a zero only when it can prove one:
phi(t) at a rational t is compared against candidate lattice angles by
clearing the denominator of the position inside the segment, which gives
the sign of p * segment_sweep - q * offset (`compare_scaled`: a float
test with a stated bound, then an exact `AngleForm` sign).  Otherwise the
sign is read off from the parity of the lattice interval that provably
brackets phi(t).  No decision rests on an unbounded float.

The radial profile is piecewise polynomial with rational coefficients.
Users build affine profiles from breakpoint values; products (needed for
exact rescaling) stay in the class.  Positivity is checked on construction
for affine pieces and is preserved by products.

Parameter values where a profile attains a given lattice angle are
returned as `ProfilePoint`s: the exact ratio of two angle differences
(`Angle`s or `AngleForm`s) inside a segment, plus a float approximation.
The ratio collapses to a Fraction exactly when both differences are
rational multiples of pi.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

from .angles import (
    Angle,
    AngleForm,
    add_half_turns,
    angle_compare,
    angle_sub,
    ceil_half_turns,
    compare_scaled,
    direction_angle,
    floor_half_turns,
    format_angle,
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


@dataclass(frozen=True)
class ProfilePoint:
    """Parameter value where a profile meets a target angle.

    The location inside segment [t_lo, t_hi] is the ratio of angle values
    offset/span (span is the sweep across the segment, offset the part of
    it up to the target).  Both are `Angle`s, or both `AngleForm`s where
    the swept quantity is itself a combination of angles (the difference
    of two profiles); either type answers `value()`, `pi_multiple()` and
    an exact `==`, and `ratio()`, which for forms stays accurate when the
    span is a tiny difference of large Args.  The exact parameter value is
    computed once per point, on first use.
    """

    segment: int
    t_lo: Fraction
    t_hi: Fraction
    offset: Angle | AngleForm
    span: Angle | AngleForm

    @cached_property
    def _t_exact(self) -> Fraction | None:
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
        return self._t_exact

    def t_float(self) -> float:
        exact = self._t_exact
        if exact is not None:
            return float(exact)
        lam = self.offset.ratio(self.span)
        return float(self.t_lo) + float(self.t_hi - self.t_lo) * lam

    def __str__(self) -> str:
        exact = self._t_exact
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

    def eval_float(self, t: float) -> float:
        i = max(0, min(len(self.breaks) - 2, bisect_right(self.breaks, t) - 1))
        t_lo, t_hi = float(self.breaks[i]), float(self.breaks[i + 1])
        v_lo, v_hi = self.values[i].value(), self.values[i + 1].value()
        if t_hi == t_lo:
            return v_lo
        lam = (t - t_lo) / (t_hi - t_lo)
        return v_lo + lam * (v_hi - v_lo)

    def _locate(self, t: Fraction) -> tuple[int, Fraction]:
        """(segment, lambda) of t: phi(t) = v[i] + lambda * sweep[i], with
        lambda in [0, 1] and 0 on a degenerate profile."""
        i = self._segment_of(t)
        t_lo, t_hi = self.breaks[i], self.breaks[i + 1]
        if t == t_lo or self.is_degenerate:
            return i, Fraction(0)
        return i, (t - t_lo) / (t_hi - t_lo)

    def _compare_located(self, i: int, lam: Fraction, target: Angle) -> int:
        """Sign of v[i] + lam * sweep[i] - target; with lam = p/q that is
        the sign of p*sweep - q*(target - v[i])."""
        if lam == 0:
            return angle_compare(self.values[i], target)
        if lam == 1:
            return angle_compare(self.values[i + 1], target)
        offset = angle_sub(target, self.values[i])
        return compare_scaled(self._sweeps[i], lam.numerator, offset, lam.denominator)

    def compare_at(self, t: Rational, target: Angle) -> int:
        """Sign of phi(t) - target, decided exactly at rational t.

        Clears the denominator of the position inside the segment: with
        lambda = p/q, the comparison becomes p*sweep vs q*(target - v_lo),
        which `compare_scaled` decides exactly.
        """
        return self._compare_located(*self._locate(_frac(t)), target)

    def form_at(self, t: Rational) -> AngleForm:
        """phi(t) exactly: the breakpoint value at a breakpoint, else
        v[i] + lambda * sweep[i] as an `AngleForm`."""
        i, lam = self._locate(_frac(t))
        if lam == 0:
            return AngleForm.of(self.values[i])
        if lam == 1:
            return AngleForm.of(self.values[i + 1])
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
        is hit exactly once.  Cost: O(J log n) angle comparisons for J hits
        and n breakpoints, one `solve` per hit.
        """
        lo, hi = self.value_bounds()
        j_min = ceil_half_turns(angle_sub(lo, base))
        j_max = floor_half_turns(angle_sub(hi, base))
        out = []
        for j in range(j_min, j_max + 1):
            pt = self.solve(add_half_turns(base, j))
            assert pt is not None
            out.append((j, pt))
        if self.values[0] > self.values[-1]:
            out.reverse()  # decreasing profile: larger lattice values come first
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

    def restricted_exact(
        self, t_a: Fraction, value_a: Angle, t_b: Fraction, value_b: Angle
    ) -> "AngleProfile":
        """Restriction to [t_a, t_b] whose endpoint values the caller has
        already solved exactly (they must lie on the existing pieces)."""
        if not (self.t0 <= t_a < t_b <= self.t1):
            raise ValueError("restriction interval must be ordered and inside the domain")
        # breakpoints strictly inside (t_a, t_b)
        i0, i1 = bisect_right(self.breaks, t_a), bisect_left(self.breaks, t_b)
        return AngleProfile(
            (t_a, *self.breaks[i0:i1], t_b),
            (value_a, *self.values[i0:i1], value_b),
        )


def _poly_shift(coeffs: Sequence[Fraction], delta: Fraction) -> tuple[Fraction, ...]:
    # p(u) -> p(delta + u), by Horner: result := result*(u + delta) + c
    result = [Fraction(0)]
    for c in reversed(coeffs):
        shifted = [Fraction(0)] + result
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

    def evaluate_float(self, t: float) -> float:
        i = max(0, min(len(self.pieces) - 1, bisect_right(self.breaks, t) - 1))
        u = t - float(self.breaks[i])
        acc = 0.0
        for c in reversed(self.pieces[i]):
            acc = acc * u + float(c)
        return acc

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

    def restricted(self, t_a: Fraction, t_b: Fraction) -> "RadialProfile":
        if not (self.t0 <= t_a < t_b <= self.t1):
            raise ValueError("restriction interval must be ordered and inside the domain")
        # piece i0 holds t_a; breakpoints i0+1 .. i1-1 lie strictly inside
        i0, i1 = bisect_right(self.breaks, t_a) - 1, bisect_left(self.breaks, t_b)
        starts = (t_a, *self.breaks[i0 + 1 : i1])
        pieces = tuple(
            _poly_shift(self.pieces[i], t - self.breaks[i])
            for i, t in enumerate(starts, start=i0)
        )
        return RadialProfile((*starts, t_b), pieces)


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

    def covector_float(self, t: float) -> tuple[float, float]:
        """The coefficient pair (r cos phi, r sin phi) at t, in floats."""
        r = self.radial.evaluate_float(t)
        a = self.phi.eval_float(t)
        return (r * math.cos(a), r * math.sin(a))

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
    alternates, positive just above odd lattice indices.  The position of
    phi(t) in the lattice is found by exact bisection, with the segment
    of t located once.
    """
    m, n = eta
    base = direction_angle((-n, m))
    phi = form.phi
    i, lam = phi._locate(_frac(t))
    lo, hi = phi.value_bounds()
    j_lo = ceil_half_turns(angle_sub(lo, base))
    j_hi = floor_half_turns(angle_sub(hi, base))
    # Largest j with base + j*pi <= phi(t); phi(t) >= lo > base + (j_lo-1)*pi.
    lo_j, hi_j = j_lo - 1, j_hi
    while lo_j < hi_j:
        mid = (lo_j + hi_j + 1) // 2
        c = phi._compare_located(i, lam, add_half_turns(base, mid))
        if c == 0:
            return 0
        if c > 0:
            lo_j = mid
        else:
            hi_j = mid - 1
    if lo_j >= j_lo and phi._compare_located(i, lam, add_half_turns(base, lo_j)) == 0:
        return 0
    return 1 if lo_j % 2 else -1


def moment_eval(form: InvariantContactForm, eta: tuple[int, int], t: Rational) -> MomentValue:
    """Moment of the torus element eta = (m, n) at rational t.

    Returns the float value together with the exact sign; the value is
    snapped to 0.0 when the sign is provably zero.
    """
    m, n = eta
    if (m, n) == (0, 0):
        return MomentValue(0.0, 0)
    t = _frac(t)
    sign = moment_sign(form, (m, n), t)
    if sign == 0:
        return MomentValue(0.0, 0)
    r = float(form.radial.evaluate(t))
    a = form.phi.eval_float(float(t))
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
