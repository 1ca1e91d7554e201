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
    moment_eval,
    sympl_moment_eval,
)
from toruscut.angles import to_float

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
