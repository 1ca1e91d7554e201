"""AngleForm signs, floors, ratios and pi multiples.

Random forms are checked against a 200-digit mpmath oracle; those tests
skip when mpmath is missing.  Constructed forms carry their answer and
need no oracle.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toruscut import angles
from toruscut.angles import AngleForm, Direction

from gaussian_reference import in_quarter_turns
from quarter_reference import EIGHTHS

D = Direction


def oracle(form: AngleForm, digits: int = 200):
    """The value of the form, to `digits` digits; skips the test without mpmath."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = digits
    total = mpmath.mpf(form.r) / form.den * mpmath.mp.pi
    for d, c in form.terms:
        total += mpmath.mpf(c) / form.den * mpmath.atan2(d.y, d.x)
    return total


def oracle_sign(form: AngleForm) -> int:
    v = oracle(form)
    if abs(v) < 1e-150:
        return 0
    return 1 if v > 0 else -1


def gpow(w: tuple[int, int], p: int) -> Direction:
    x, y = 1, 0
    for _ in range(p):
        x, y = x * w[0] - y * w[1], x * w[1] + y * w[0]
    return D.reduced(x, y)


def term(d, c=1):
    return AngleForm(((d, F(c)),))


def pi(r):
    return AngleForm((), F(r))


def dirs(max_coord=60):
    return (
        st.tuples(st.integers(-max_coord, max_coord), st.integers(-max_coord, max_coord))
        .filter(lambda v: v != (0, 0))
        .map(lambda v: D.reduced(*v))
    )


def rationals(max_num=30, max_den=12):
    return st.builds(F, st.integers(-max_num, max_num), st.integers(1, max_den))


forms = st.builds(
    lambda ts, r: AngleForm(tuple(ts), r),
    st.lists(st.tuples(dirs(), rationals()), max_size=4),
    rationals(),
)


BIG = 2**200

# the pi/4 directions, a small pool that repeats, and large coordinates
merge_dirs = st.one_of(
    st.sampled_from(EIGHTHS),
    dirs(3),
    st.tuples(st.integers(-BIG, BIG), st.integers(-BIG, BIG))
    .filter(lambda v: v != (0, 0))
    .map(lambda v: D.reduced(*v)),
)


@st.composite
def form_pairs(draw):
    """(a, b) whose terms share directions; copies of a's terms in b, with
    the same or the opposite coefficient, cancel exactly in a - b or a + b."""
    raw = st.lists(st.tuples(merge_dirs, rationals()), max_size=5)
    a = AngleForm(tuple(draw(raw)), draw(rationals()))
    a_terms = [(d, F(c, a.den)) for d, c in a.terms]
    shared = draw(st.lists(st.sampled_from(a_terms), max_size=4)) if a_terms else []
    b_terms = draw(raw) + [(d, c if draw(st.booleans()) else -c) for d, c in shared]
    return a, AngleForm(tuple(draw(st.permutations(b_terms))), draw(rationals()))


def exact_tie(w, p: int) -> AngleForm:
    """p*Arg(w) - Arg(w**p) + k*pi with the k that makes it 0.

    p*Arg(w) - Arg(w**p) is a multiple of 2*pi of size at most (p + 1)*pi,
    so rounding its float value finds k.
    """
    base = term(D.reduced(*w), p) - term(gpow(w, p))
    return base - pi(round(base.value() / math.pi))


def count_fixed(monkeypatch) -> list:
    calls = []
    real = angles._fixed_sum

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(angles, "_fixed_sum", counted)
    return calls


class TestArithmetic:
    @settings(derandomize=True, max_examples=120)
    @given(form_pairs())
    def test_add_and_sub_merge_like_the_constructor(self, pair):
        a, b = pair

        def rational(f):
            """f's terms and r as Fractions, numerator over den."""
            return tuple((d, F(c, f.den)) for d, c in f.terms), F(f.r, f.den)

        (ta, ra), (tb, rb) = rational(a), rational(b)
        neg_b = tuple((d, -c) for d, c in tb)
        for got, want in (
            (a + b, AngleForm(ta + tb, ra + rb)),
            (a - b, AngleForm(ta + neg_b, ra - rb)),
        ):
            assert rational(got) == rational(want)
            assert type(got.den) is int and got.den > 0
            assert type(got.r) is int and all(type(c) is int for _, c in got.terms)
        # a form combines with forms and scales by rationals, nothing else
        for other in (lambda: a + 1, lambda: a - 1, lambda: a * 0.5):
            with pytest.raises(TypeError):
                other()
        assert (a == 3) is False


class TestSign:
    @given(forms)
    @settings(max_examples=300)
    def test_random_forms(self, f):
        assert f.sign() == oracle_sign(f)
        assert (-f).sign() == -oracle_sign(f)

    @given(forms, forms)
    def test_difference_orders_like_values(self, f, g):
        assert (f - g).sign() == oracle_sign(f - g)
        assert (f == g) == (oracle_sign(f - g) == 0)

    @given(dirs(9).map(lambda d: (d.x, d.y)), st.integers(1, 60), rationals())
    def test_power_ties(self, w, p, c):
        tie = exact_tie(w, p)
        assert tie.sign() == 0 and tie.pi_multiple() == 0
        scaled = tie * c + pi(c)
        assert scaled.sign() == (c > 0) - (c < 0) and scaled.pi_multiple() == c

    def test_conjugate_pair_ties(self):
        f = term(D(2, 1)) + term(D(2, -1))
        assert f.terms != () and f.sign() == 0 and f == AngleForm()
        assert (term(D(2, 1)) + term(D(1, 2))).pi_multiple() == F(1, 2)
        assert (term(D(3, 4)) - term(D(2, 1), 2)).sign() == 0

    @given(dirs(40).filter(lambda d: d.x and d.y and abs(d.x) != abs(d.y)), rationals(), rationals())
    def test_conjugate_pairs(self, d, c, c2):
        f = term(d, c) + term(D(d.x, -d.y), c) + pi(c2)  # = c2*pi
        assert f.sign() == (c2 > 0) - (c2 < 0)
        assert f.pi_multiple() == c2

    @given(dirs(9).map(lambda d: (d.x, d.y)), st.integers(1, 40), st.integers(1, 40),
           st.sampled_from((1, -1)))
    def test_near_ties(self, w, p, k, s):
        f = exact_tie(w, p) + term(D(10**k, 1), s)  # = s*atan(10**-k)
        assert f.sign() == s
        assert f.pi_multiple() is None

    def test_huge_coefficients_take_the_fixed_point_path(self, monkeypatch):
        calls = count_fixed(monkeypatch)
        n = 2**45 + 1
        tie = exact_tie((2, 1), 7) * n
        assert sum(abs(c) for _, c in tie.terms) > 2**40
        assert tie.sign() == 0 and tie.pi_multiple() == 0
        assert calls, "the rounding must come from fixed point"
        calls.clear()
        f = tie + term(D(10**6, 1))
        assert f.sign() == 1
        assert calls

    def test_tiny_non_tie_takes_the_fixed_point_path(self, monkeypatch):
        calls = count_fixed(monkeypatch)
        # atan(10**-20) - atan(1/(10**20 + 1)), about 10**-40
        f = term(D(10**20, 1)) - term(D(10**20 + 1, 1))
        assert f.sign() == 1 and (-f).sign() == -1
        assert calls and max(calls) > 64

    def test_coefficients_beyond_float_range(self):
        # Arg(2,1) < Arg(1,2), and Arg(2,1) ~ 0.46 > pi/10
        f = term(D(2, 1), F(10**400)) - term(D(1, 2), F(10**400) + 1)
        assert f.sign() == -1
        assert (term(D(2, 1), F(1, 10**400)) + pi(F(-1, 10**401))).sign() == 1


# Gaussian primes of norm 2, 5, 13, 17, 29 and 41, and the four units
PRIMES = ((1, 1), (2, 1), (3, 2), (4, 1), (5, 2), (5, 4))
UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


@st.composite
def quarter_turn_sums(draw):
    """Integer terms (d, n) over products of a few Gaussian primes, each in
    either orientation, to powers up to 60, times a unit.  Directions drawn
    from one small pool of primes, half the time to the same powers, share
    composite norms such as 65 = 5*13 with mixed orientations.  Half the
    draws close the sum with conj(w), w = prod d**n, which makes it 0
    (mod 2 pi); then the coefficients are scaled by up to 10**30."""
    pool = draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=3, unique=True))
    powers = st.one_of(st.integers(0, 3), st.integers(4, 60))
    shared = draw(st.booleans())  # one power per prime: the norms are equal
    exps = [draw(powers) for _ in pool]
    terms, w = [], (1, 0)
    for _ in range(draw(st.integers(1, 4))):
        z = draw(st.sampled_from(UNITS))
        for (x, y), e in zip(pool, exps):
            p = (x, y) if draw(st.booleans()) else (x, -y)
            z = gmul(z, gpow(p, e if shared else draw(powers)).as_tuple())
        d, n = D.reduced(*z), draw(st.integers(-3, 3).filter(bool))
        terms.append((d, n))
        # d**n for n < 0 is conj(d)**|n| up to a positive rational
        w = D.reduced(*gmul(w, gpow((d.x, d.y if n > 0 else -d.y), abs(n)).as_tuple())).as_tuple()
    if draw(st.booleans()):
        terms.append((D(w[0], -w[1]), 1))
    k = draw(st.sampled_from((1, 10**30, 7 * 10**29 + 1)))
    return [(d, n * k) for d, n in terms]


BIG_POWER = gpow((2, 1), 1800)  # coordinates of more than 2,000 bits


class TestQuarterTurns:
    """The tie test in rational integers against the Gaussian-integer one."""

    @settings(derandomize=True, max_examples=300)
    @given(quarter_turn_sums())
    @example([(BIG_POWER, 1), (gpow((2, -1), 900), 2)])
    @example([(BIG_POWER, 1), (gpow((2, -1), 900), 3)])
    def test_matches_gaussian_reference(self, terms):
        assert angles._in_quarter_turns(terms) == in_quarter_turns(terms)

    @pytest.mark.parametrize(
        "terms, multiple",
        [
            # norm 10: the factor 2 does not count
            (((D(1, 3), 1), (D(2, 1), -1)), F(1, 4)),
            (((D(4, 7), 1), (D(7, 4), 1)), F(1, 2)),
            # four directions of norm 65 = 5 * 13 in every orientation: 65 splits
            (((D(4, 7), 1), (D(8, -1), 1), (D(8, 1), 1), (D(4, -7), 1)), F(0)),
            # (4 + 7i)(8 - i) = 13 (3 + 4i)
            (((D(4, 7), 1), (D(8, -1), 1)), None),
        ],
    )
    def test_directed_sums(self, terms, multiple):
        assert angles._in_quarter_turns(terms) == (multiple is not None)
        assert in_quarter_turns(terms) == (multiple is not None)
        assert AngleForm(tuple((d, F(n)) for d, n in terms)).pi_multiple() == multiple


class TestRatio:
    @given(forms, forms)
    def test_random_ratios(self, f, g):
        den = oracle(g)
        if abs(den) < 1e-150:
            return
        want = oracle(f) / den
        assert abs(f.ratio(g) - want) <= 2.0**-40 * (1 + abs(want))

    def test_tiny_denominator_takes_the_fixed_point_path(self, monkeypatch):
        calls = count_fixed(monkeypatch)
        den = term(D(10**20, 1)) - term(D(10**20 + 1, 1))  # about 10**-40
        assert den.value() == 0.0
        assert abs((den * F(1, 3)).ratio(den) - 1 / 3) <= 2.0**-40
        assert abs((den * 5 + pi(0)).ratio(-den) + 5) <= 6 * 2.0**-40
        assert calls

    def test_tiny_denominator_across_pi(self):
        # -Arg(-10**20, 1) + Arg(-(10**20 - 1), -1) + 2*pi, about 2 * 10**-20,
        # is a sum of Args near +-pi whose float estimate cancels to 0
        den = term(D(-(10**20), 1), -1) + term(D(-(10**20 - 1), -1)) + pi(2)
        num = term(D(10**20, 1))  # about 10**-20
        assert den.sign() == 1
        assert abs(num.ratio(den) - 0.5) <= 2.0**-30

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            term(D(2, 1)).ratio(term(D(2, 1)) + term(D(2, -1)))


# a convergent p/q of Arg(3,1)/Arg(2,1): p*Arg(2,1) - q*Arg(3,1) is about 1/q
C20 = (24163505532541357399, 34819991487658706090)


@st.composite
def placed_forms(draw):
    """Forms for `floor_ceil`: exact multiples of pi, near-ties a hair off
    one (a difference of two Args near 0, or a continued-fraction
    convergent), and random forms, each moved by k pi, and some by
    +-10**400 or +-10**4000 pi more (four near-ties in five), so that no
    coefficient over den has a float."""
    kind = draw(st.sampled_from(("tie", "near", "convergent", "random")))
    if kind == "tie":
        f = exact_tie(draw(st.sampled_from(((2, 1), (3, 2), (5, 1)))), draw(st.integers(2, 9)))
    elif kind == "near":
        n = 10 ** draw(st.integers(8, 40))
        f = term(D(n, 1)) - term(D(n + 1, 1))  # about 1 / n**2
    elif kind == "convergent":
        f = term(D(2, 1), C20[0]) - term(D(3, 1), C20[1])
    else:
        f = draw(forms)
    f = f if draw(st.booleans()) else -f
    huge = (10**400, -(10**400), 10**4000, -(10**4000))
    zeros = (0,) if kind in ("near", "convergent") else (0,) * 4
    return f + pi(draw(st.integers(-40, 40)) + draw(st.sampled_from(zeros + huge)))


class TestFloorAndPiMultiple:
    @settings(derandomize=True, max_examples=150)
    @given(placed_forms())
    def test_floor_ceil(self, f):
        mpmath = pytest.importorskip("mpmath")
        size = max(len(str(abs(c))) for c in (f.r, f.den, *(c for _, c in f.terms)))
        q = oracle(f, 200 + size) / mpmath.mp.pi
        n = mpmath.nint(q)
        on_lattice = abs(q - n) < 1e-100
        fl = int(n) if on_lattice else int(mpmath.floor(q))
        want = (fl, fl if on_lattice else fl + 1)
        assert f.floor_ceil() == want
        assert (-f).floor_ceil() == (-want[1], -want[0])

    @given(forms)
    def test_floor(self, f):
        mpmath = pytest.importorskip("mpmath")
        q = oracle(f) / mpmath.mp.pi
        n = mpmath.nint(q)
        want = n if abs(q - n) < 1e-150 else mpmath.floor(q)
        assert f.floor_ceil()[0] == int(want)

    @given(st.integers(-40, 40))
    def test_floor_on_exact_multiples(self, k):
        f = exact_tie((2, 1), 5) + pi(k)
        assert f.floor_ceil()[0] == k

    def test_floor_of_coefficients_outside_float_range(self):
        # no float of r / den, but its whole half turns are split off in
        # integers first, so Arg(2, 1) alone takes the float bracket
        f = AngleForm((), 10**400) + term(D(2, 1))  # 10**400 pi + Arg(2, 1)
        assert (f.floor_ceil()[0], (-f).floor_ceil()[0]) == (10**400, -(10**400) - 1)

    def test_floor_ceil_of_a_term_coefficient_outside_float_range(self):
        # no float of c / den: the bracket from the coefficient sizes
        mpmath = pytest.importorskip("mpmath")
        f = term(D(2, 1), 10**400)
        fl = int(mpmath.floor(oracle(f, 700) / mpmath.mp.pi))
        assert f.floor_ceil() == (fl, fl + 1)
        assert (-f).floor_ceil() == (-fl - 1, -fl)

    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda v: v != (0, 0)),
           st.integers(-50, 50), rationals())
    def test_single_angle_forms_match_as_pi_multiple(self, v, turns, c):
        a = angles.Angle(D.reduced(*v), turns)
        q = a.pi_multiple()
        assert AngleForm.of(a).pi_multiple() == q
        want = 0 if c == 0 else None if q is None else q * c
        assert (AngleForm.of(a) * c).pi_multiple() == want

    def test_str_is_deterministic(self):
        f = term(D(1, 2), F(-1, 3)) + term(D(2, 1), 2) + pi(F(5, 4))
        assert str(f) == "-1/3*Arg(1,2) + 2*Arg(2,1) + 5/4*pi"
        assert str(AngleForm()) == "0*pi"
