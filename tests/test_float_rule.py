"""The one float rule: `to_float` against exact rationals, and the moments
built on it against a 50-digit oracle.

Every float the package shows comes from an exact quantity through
`angles.to_float`: it is None outside the normal float range, above or
below, so 0.0 means an exact zero, and in range it equals float(q) * factor
bit for bit.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruscut import (
    Angle,
    AngleForm,
    AngleProfile,
    Direction,
    InvariantContactForm,
    ProfilePoint,
    RadialProfile,
    alpha_form,
    contact_reduce,
    moment_eval,
    sympl_moment_eval,
)
from toruscut.angles import _to_float, to_float

A, D = Angle, Direction
TINY, HUGE = F(2) ** -1022, F(2) ** 1024  # the normal float range is [TINY, HUGE)
EDGE = F(2) ** -40  # relative margin at the range edges


def _normal(x: float, exact: F) -> bool:
    """Whether the float x of an exact value is a normal float, or 0.0 for 0."""
    return TINY <= abs(x) < math.inf or x == exact == 0


def _inside(lo, hi) -> bool:
    """Whether every size in [lo, hi] is inside the normal range, by more
    than the margin at its edges."""
    return TINY * (1 + EDGE) <= lo and hi <= HUGE * (1 - EDGE)


def _beyond(lo, hi) -> bool:
    """Whether every size in [lo, hi] is outside the normal range, by more
    than the margin at its edges."""
    return hi < TINY * (1 - EDGE) or lo > HUGE * (1 + EDGE)


# rationals from about 2**-1400 to 2**1400, many near the range edges,
# zero and both signs included
rationals = st.builds(
    lambda a, b, e: F(a, b) * F(2) ** e,
    st.integers(-(2**70), 2**70),
    st.integers(1, 2**70),
    st.one_of(st.integers(-1330, 1330), st.integers(-1030, -1015), st.integers(1015, 1030)),
)
factors = st.one_of(
    st.sampled_from([1.0, -1.0, 0.0, -0.0, 5e-324, 2.0**-1022, 1.7e308]),
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestToFloat:
    @settings(derandomize=True, max_examples=600)
    @given(rationals, factors, st.sampled_from([0, 0, 1, -1, 700, -700, 2000, -2000]))
    def test_against_exact_value(self, q, f, exp2):
        got = to_float(q, f, exp2)
        v = abs(q * F(f) * F(2) ** exp2)
        if v == 0:
            assert got == 0.0
        elif got is None:
            assert not _inside(v, v)
        else:
            assert not _beyond(v, v) and _normal(got, v)
            assert abs(abs(F(got)) - v) <= F(2) ** -51 * v and (got < 0) == ((q < 0) != (f < 0))
        if exp2 == 0 and abs(q) < HUGE * (1 - EDGE):
            fq = float(q)
            if _normal(fq, q) and _normal(fq * f, v):
                assert got.hex() == (fq * f).hex()

    def test_edges(self):
        assert to_float(F(1, 3)) == 1 / 3
        assert to_float(10**400) is None and to_float(-(10**400)) is None
        assert to_float(F(1, 10**400)) is None  # below the range, not 0.0
        assert to_float(F(1, 2**1074)) is None  # a subnormal is not shown
        assert to_float(F(1, 2**1022)) == TINY
        assert to_float(F(3, 2**1024)) is None and to_float(F(3, 2**1024), 2.0) == 1.5 * TINY
        assert to_float(2**1024 - 2**971) == 1.7976931348623157e308
        assert to_float(2**1024 - 2**970) is None  # rounds to 2**1024
        assert to_float(10**400, 10.0**-300, -400) == pytest.approx(10.0**100 / 2**400)
        assert to_float(0, -1.0).hex() == (-0.0).hex()
        assert to_float(F(-1, 3), 0.0).hex() == (-0.0).hex()


def _bits(x: float | None) -> str | None:
    return None if x is None else x.hex()


def _shift(n: int, d: int) -> int:
    """The bit-length difference that the float rule scales n / d by."""
    return n.bit_length() - d.bit_length()


# the normal range's ends in exponents of frexp: -1021 and 1024 are in, -1022
# and 1025 out, with rounding across each end
EDGE_VALUES = [
    F(1, 2**1022),
    F(1, 2**1023),
    F(2**53 - 1, 2**1075),
    F(2**53 + 1, 2**1075),
    F(2**1024 - 2**971),
    F(2**1024 - 2**970),
    F(2**1024 - 1),
    F(2**1024),
    F(-3, 2**1024),
    F(10**400 + 1, 10**400 * 2**1021),
]
EDGE_FACTORS = (3, 5, 7, 2**64 - 1, 10**400 + 1)


class TestTwoIntegerEntry:
    """`_to_float(n, d, ...)` is `to_float(Fraction(n, d), ...)` bit for
    bit, None included, whether or not n / d is reduced."""

    @settings(derandomize=True, max_examples=600)
    @given(
        rationals,
        st.one_of(st.integers(1, 2**70), st.integers(1, 10**400), st.sampled_from([2, 3, 2**64])),
        factors,
        st.sampled_from([0, 0, 1, -1, 700, -700, 2000, -2000]),
    )
    def test_unreduced_equals_reduced(self, q, g, f, exp2):
        n, d = q.numerator * g, q.denominator * g
        assert _bits(_to_float(n, d, f, exp2)) == _bits(to_float(q, f, exp2))

    @pytest.mark.parametrize("q", EDGE_VALUES)
    @pytest.mark.parametrize("f, exp2", [(1.0, 0), (0.75, 0), (1.5, 0), (-1.0, 1), (1.0, -1)])
    def test_at_the_range_edges(self, q, f, exp2):
        want = to_float(q, f, exp2)
        for g in EDGE_FACTORS:
            assert _bits(_to_float(q.numerator * g, q.denominator * g, f, exp2)) == _bits(want)

    def test_edges_include_a_moved_shift(self):
        # a common factor can move the bit-length difference by one, as 9/3
        # against 3/1; the edge grid moves it at both ends of the range, on
        # a value inside and on one outside
        assert _shift(9, 3) != _shift(3, 1)
        moved = {
            q
            for q in EDGE_VALUES
            if any(_shift(q.numerator * g, q.denominator * g) != _shift(*q.as_integer_ratio())
                   for g in EDGE_FACTORS)
        }
        ends = {F(2**53 - 1, 2**1075), F(2**53 + 1, 2**1075)}
        ends |= {F(2**1024 - 2**971), F(2**1024 - 2**970)}
        assert ends <= moved
        assert [to_float(q) is None for q in sorted(ends)] == [True, False, False, True]


def _t_float_by_fraction(pt: ProfilePoint) -> float | None:
    """`ProfilePoint.t_float` at an irrational t, as written when the width
    went to `to_float` as a Fraction."""
    (p, r), (s, u) = pt.t_lo.as_integer_ratio(), pt.t_hi.as_integer_ratio()
    lo = to_float(pt.t_lo)
    width = to_float(F(s * r - p * u, r * u), pt.offset.ratio(pt.span))
    t = None if lo is None or width is None else lo + width
    return t if t is None or math.isfinite(t) else None


@st.composite
def irrational_points(draw):
    """A point with an irrational t on [t_lo, t_hi], both of up to 400
    digits, often with denominators that share a factor, so the width
    (s r - p u) / (r u) is not reduced."""
    size = st.sampled_from([10, 10**20, 10**400])
    common = draw(st.integers(1, draw(size)))
    r, u = (common * draw(st.integers(1, draw(size))) for _ in range(2))
    t_lo = F(draw(st.integers(-draw(size), draw(size))), r)
    t_hi = t_lo + F(draw(st.integers(1, draw(size))), u)
    offset = A(draw(st.sampled_from([D(1, 2), D(3, -1), D(-2, 5)])), draw(st.integers(0, 3)))
    span = A(draw(st.sampled_from([D(1, 0), D(1, 1), D(4, 1)])), draw(st.integers(1, 10**30)))
    return ProfilePoint(0, t_lo, t_hi, offset, span)


class TestIrrationalTFloat:
    @settings(derandomize=True, max_examples=400)
    @given(irrational_points())
    def test_matches_the_fraction_rule(self, pt):
        assert pt.t_fraction() is None
        assert _bits(pt.t_float()) == _bits(_t_float_by_fraction(pt))

    def test_beyond_float_range(self):
        # t_lo beyond the range above, and a width below it: None both ways
        offset, span = A(D(1, 2)), A(D(0, 1))
        for t_lo, t_hi in ((F(10**400), F(10**400 + 1)), (F(0), F(1, 10**400))):
            pt = ProfilePoint(0, t_lo, t_hi, offset, span)
            assert pt.t_float() is None and _t_float_by_fraction(pt) is None


def _oracle_phi(mpmath, phi, t):
    """phi(t) from the breakpoint values, at the oracle's precision."""
    i = max(k for k in range(len(phi.breaks) - 1) if phi.breaks[k] <= t)
    lo, hi = phi.breaks[i], phi.breaks[i + 1]
    lam = mpmath.mpf((t - lo).numerator) / (t - lo).denominator * (hi - lo).denominator / (
        hi - lo
    ).numerator

    def value(a):
        return mpmath.atan2(a.dir.y, a.dir.x) + 2 * mpmath.pi * a.turns

    return value(phi.values[i]) + lam * (value(phi.values[i + 1]) - value(phi.values[i]))


def _mp(mpmath, q: F):
    return mpmath.mpf(q.numerator) / q.denominator


def _exact(x) -> F:
    """An mpmath number as the exact Fraction it holds."""
    return F(int(x.man)) * F(2) ** int(x.exp)


@st.composite
def moment_cases(draw):
    """A two-segment profile of up to 10^30 turns, a radial value of 10^-400
    to 10^400, an eta of small or 401-digit coordinates, and a rational t."""
    turns = draw(st.integers(0, 10**30))
    mid = draw(st.sampled_from([A(D(1, 1), turns // 2), A(D(3, -2), turns // 2 + 1)]))
    end = A(D.reduced(draw(st.integers(1, 9)), draw(st.integers(-9, 9))), turns + 2)
    phi = AngleProfile((F(0), F(1, 2), F(1)), (A(D(1, 0)), mid, end))
    scale = lambda: F(draw(st.integers(1, 99)), draw(st.integers(1, 99))) * F(10) ** draw(
        st.integers(-400, 400)
    )
    radial = RadialProfile.from_values([0, F(1, 3), 1], [scale(), scale(), scale()])
    small, big = st.integers(-5, 5), st.integers(-(10**400), 10**400)
    eta = draw(st.tuples(st.one_of(small, big), small).filter(lambda e: e != (0, 0)))
    t = F(draw(st.integers(0, 1000)), 1000)
    return InvariantContactForm(phi, radial), eta, t


class TestMomentsAgainstOracle:
    """The float moments within 2**-45 * e^s r(t) |eta| of the oracle, and
    None only where the oracle may be outside the normal range."""

    @settings(derandomize=True, max_examples=150)
    @given(moment_cases(), st.floats(-2000, 2000))
    def test_moment_and_symplectization(self, case, s):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        form, (m, n), t = case
        a = _oracle_phi(mpmath, form.phi, t)
        r = _mp(mpmath, form.radial.evaluate(t))
        f = r * (m * mpmath.cos(a) + n * mpmath.sin(a))
        size = r * mpmath.sqrt(m * m + n * n)
        value, sign = moment_eval(form, (m, n), t)
        psi = sympl_moment_eval(form, (m, n), t, s)
        e = mpmath.exp(s)
        for got, want, scale in ((value, f, size), (psi, -e * f, e * size)):
            bound = 2.0**-45 * scale
            lo, hi = _exact(max(abs(want) - bound, 0)), _exact(abs(want) + bound)
            if sign == 0:
                assert got == 0.0 and abs(want) <= bound
            elif got is None:
                assert not _inside(lo, hi)
            else:
                assert not _beyond(lo, hi) and abs(got - want) <= bound


class TestBeyondFloatRangeFixedCases:
    T = 10**400

    def point(self):
        return ProfilePoint(0, F(0), F(1), A(D(1, 2), self.T), A(D(1, 0), 3 * self.T))

    def test_angle_value_and_ratio(self):
        assert A(D(1, 0), self.T).value() is None
        assert A(D(1, 0), 10**307).value() == 2 * math.pi * 1e307 + 0.0
        pt = self.point()
        assert pt.offset.ratio(pt.span) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("sign", [0, 1, -1])
    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_angle_value_paths_agree_at_the_bound(self, sign, k):
        # below 2**1000 turns `value` multiplies in floats, from there on it
        # calls to_float; on either side of the bound, and near 0, both give
        # one float
        turns, two_pi = sign * 2**1000 + k, 2 * math.pi
        for d in (D(1, 0), D(3, 4), D(-1, 0), D(-2, -7)):
            want = math.atan2(d.y, d.x) + to_float(turns, two_pi)
            assert A(d, turns).value() == want == math.atan2(d.y, d.x) + turns * two_pi

    def test_t_float_of_a_huge_turn_ratio(self):
        assert self.point().t_float() == pytest.approx(1 / 3)

    def test_floats_along_at_an_irrational_hit(self):
        radial = RadialProfile.from_values([0, F(1, 2), 1], [1, 2, 1])
        [r] = radial.floats_along([self.point()])
        assert r == pytest.approx(1 + 2 / 3)

    def test_angle_form_value(self):
        assert AngleForm(((D(2, 1), F(10**400)),)).value() is None
        assert AngleForm(((D(2, 1), F(1, 10**400)),)).value() == 0.0

    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
    def test_symplectization_at_a_non_finite_s(self, s):
        phi = AngleProfile((F(0), F(1)), (A(D(1, 0)), A(D(0, 1), 1)))
        form = InvariantContactForm.unit(phi)
        assert sympl_moment_eval(form, (1, 0), F(1, 3), s) is None

    @pytest.mark.parametrize("exp, shown", [(200, True), (300, False)])
    def test_reduced_coefficient_below_range_is_none(self, exp, shown):
        # r / |eta| is about 1e-230, a normal float, or 1e-330, below the
        # range, where a plain float quotient reads -0.0 and 0.0
        form = InvariantContactForm(
            alpha_form(1).phi, RadialProfile.constant(F(1, 10**exp), (0, 1))
        )
        circles = contact_reduce(form, (10**30, 1))
        assert len(circles) == 2
        for c in circles:
            if shown:
                assert c.coefficient == c.sign * (to_float(F(1, 10**exp)) / math.hypot(1e30, 1))
            else:
                assert c.coefficient is None
