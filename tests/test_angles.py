"""Exact angle arithmetic: representation, order, lattice counting."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruscut.angles import (
    Angle,
    Direction,
    add_half_turns,
    add_turns,
    angle_add,
    angle_compare,
    angle_of_quarters,
    angle_sub,
    direction_angle,
    negate,
    parse_angle,
)
from toruscut.errors import NonPrimitive, ZeroVector

from quarter_reference import EIGHTHS, quarter_angle

A = lambda x, y, n=0: Angle(Direction(x, y), n)


def count_lattice(theta, a0, a1):
    """Number of representatives theta + 2*pi*m inside the closed interval
    [a0, a1] of angle values.  Requires a0 <= a1.  Endpoints count.

    The ray count as one lattice count, checked against brute force in
    TestCountLattice; tests/test_classification.py builds its reference
    cc_count and cc_profile on it.
    """
    if angle_compare(a0, a1) > 0:
        raise ValueError("count_lattice needs a0 <= a1")
    lo = -(-angle_sub(a0, theta).floor_ceil()[1] // 2)
    hi = angle_sub(a1, theta).floor_ceil()[0] // 2
    return max(0, hi - lo + 1)


def dirs(max_coord=9):
    return st.tuples(
        st.integers(-max_coord, max_coord), st.integers(-max_coord, max_coord)
    ).filter(lambda v: v != (0, 0))


def angles(max_coord=9, max_turns=100):
    return st.builds(
        lambda v, n: Angle(Direction.reduced(*v), n),
        dirs(max_coord),
        st.integers(-max_turns, max_turns),
    )


class TestDirection:
    def test_reduction(self):
        assert direction_angle((2, 2)).dir == Direction(1, 1)
        assert direction_angle((0, -3)).dir == Direction(0, -1)
        assert direction_angle((-4, 6)).dir == Direction(-2, 3)

    def test_rejects_zero(self):
        with pytest.raises(ZeroVector):
            Direction(0, 0)

    def test_rejects_imprimitive(self):
        with pytest.raises(NonPrimitive):
            Direction(2, 4)

    @given(dirs())
    def test_reduced_is_primitive_on_same_ray(self, v):
        d = Direction.reduced(*v)
        assert math.gcd(abs(d.x), abs(d.y)) == 1
        assert d.x * v[1] == d.y * v[0]  # parallel
        assert d.x * v[0] + d.y * v[1] > 0  # same ray, not opposite


class TestCompare:
    def test_quarter_below_half(self):
        assert angle_compare(A(0, 1), A(-1, 0)) == -1

    def test_turns_dominate(self):
        # pi + 0 turns < any angle with 1 turn
        assert angle_compare(A(-1, 0, 0), A(1, -1, 1)) == -1

    def test_branch_endpoint_is_pi_not_minus_pi(self):
        assert angle_compare(A(-1, 0), A(1, -1)) == 1  # pi > -pi/4

    @given(angles(), angles())
    def test_antisymmetric_and_float_consistent(self, a, b):
        c = angle_compare(a, b)
        assert c == -angle_compare(b, a)
        assert ((a < b), (a <= b), (a > b), (a >= b)) == (c < 0, c <= 0, c > 0, c >= 0)
        gap = a.value() - b.value()
        if abs(gap) > 1e-9:
            assert c == (1 if gap > 0 else -1)

    @given(angles(), angles(), angles())
    def test_transitive(self, a, b, c):
        trio = sorted([a, b, c], key=lambda x: (x.turns, 0), reverse=False)
        x, y, z = sorted([a, b, c])
        assert angle_compare(x, y) <= 0 <= angle_compare(z, y)
        assert angle_compare(x, z) <= 0
        del trio

    @given(angles())
    def test_equality_is_structural(self, a):
        assert angle_compare(a, Angle(a.dir, a.turns)) == 0

    @given(angles())
    def test_operators_on_equal_angles(self, a):
        b = Angle(Direction(a.dir.x, a.dir.y), a.turns)  # built separately
        assert a is not b and a == b
        assert (a < b, a <= b, a > b, a >= b) == (False, True, False, True)
        assert max(a, b) is a and min(a, b) is a
        assert sorted([a, b])[0] is a and sorted([b, a])[0] is b

    def test_operators_on_pi_and_minus_quarter(self):
        pi, low = A(-1, 0), A(1, -1)  # pi > -pi/4: the branch endpoint
        assert (pi < low, pi <= low, pi > low, pi >= low) == (False, False, True, True)
        assert (low < pi, low <= pi, low > pi, low >= pi) == (True, True, False, False)
        assert max(low, pi) is pi and min(pi, low) is low
        assert sorted([pi, low]) == [low, pi]

    def test_order_with_other_types_is_a_type_error(self):
        a = Angle(Direction(1, 0))
        for compare in (lambda: a < 1, lambda: a >= 1, lambda: sorted([a, None])):
            with pytest.raises(TypeError):
                compare()
        assert (a == 1, a != None) == (False, True)  # noqa: E711


class TestAddSub:
    def test_half_minus_quarter(self):
        # pi - pi/2 = pi/2
        assert angle_sub(A(-1, 0), A(0, 1)) == A(0, 1)

    def test_quarter_plus_k_turns_minus_zero(self):
        for k in range(6):
            d = angle_sub(A(0, 1, k), A(1, 0))
            assert d == A(0, 1, k)
            assert math.isclose(d.value(), (4 * k + 1) * math.pi / 2, abs_tol=1e-12)

    def test_self_difference_is_zero(self):
        assert angle_sub(A(3, -7, 4), A(3, -7, 4)) == A(1, 0, 0)

    def test_wrap_below_branch(self):
        # -3pi/4 - 3pi/4 = -3pi/2, represented with dir (0,1) and turns -1
        assert angle_sub(A(-1, -1), A(-1, 1)) == A(0, 1, -1)

    @given(angles(), angles())
    def test_sub_round_trip(self, a, b):
        d = angle_sub(a, b)
        assert angle_add(b, d) == a
        assert math.isclose(d.value(), a.value() - b.value(), abs_tol=1e-9)

    @given(angles(), angles())
    def test_add_commutes(self, a, b):
        assert angle_add(a, b) == angle_add(b, a)

    @given(angles())
    def test_negate_involution(self, a):
        assert negate(negate(a)) == a
        assert math.isclose(negate(a).value(), -a.value(), abs_tol=1e-9)

    @given(angles(max_turns=20), st.integers(-9, 9))
    def test_half_turn_shift(self, a, j):
        s = add_half_turns(a, j)
        assert math.isclose(s.value(), a.value() + j * math.pi, abs_tol=1e-9)
        assert add_half_turns(s, -j) == a


class TestFloorCeil:
    @given(angles())
    def test_against_float(self, a):
        # Floats are a safe oracle away from exact lattice hits; the exact
        # hits are covered separately below.
        approx = a.value() / math.pi
        if abs(approx - round(approx)) > 1e-6:
            assert a.floor_ceil() == (math.floor(approx), math.ceil(approx))

    def test_exact_multiples(self):
        assert A(1, 0, 6).floor_ceil() == (12, 12)  # 12pi
        assert A(-1, 0, 1).floor_ceil() == (3, 3)  # 3pi
        assert A(-1, 0, 0).floor_ceil() == (1, 1)  # pi

    @given(angles(max_turns=30))
    def test_floor_ceil_sandwich(self, a):
        f, c = a.floor_ceil()
        assert f <= c <= f + 1
        exact = a.pi_multiple()
        assert (f == c) == (exact is not None and exact.denominator == 1)


class TestCountLattice:
    def test_ray_diag_upper_two_turns(self):
        # representatives of 3pi/4 inside [0, pi/2 + 4pi]
        assert count_lattice(A(-1, 1), A(1, 0), A(0, 1, 2)) == 2

    def test_ray_diag_lower_three_turns(self):
        assert count_lattice(A(1, -1), A(1, 0), A(0, 1, 3)) == 3

    def test_point_interval_hit(self):
        a = A(1, 1, 0)
        assert count_lattice(a, a, a) == 1

    def test_point_interval_miss(self):
        assert count_lattice(A(1, 2), A(1, 1), A(1, 1)) == 0

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            count_lattice(A(1, 0), A(0, 1), A(1, 0))

    @staticmethod
    def brute(theta, a0, a1):
        # For |turns| <= 100 every candidate satisfies |m| <= 210, so this
        # window is the full count over m in [-10**6, 10**6].
        n = 0
        for m in range(-210, 211):
            t = add_turns(theta, m)
            if angle_compare(a0, t) <= 0 <= angle_compare(a1, t):
                n += 1
        return n

    @given(angles(), angles(), angles())
    @settings(max_examples=60)
    def test_matches_brute_force(self, theta, x, y):
        a0, a1 = sorted([x, y])
        assert count_lattice(theta, a0, a1) == self.brute(theta, a0, a1)

    @given(angles(max_turns=20), angles(max_turns=20), angles(max_turns=20))
    def test_widening_by_a_turn_adds_exactly_one_hit_per_side(self, theta, x, y):
        a0, a1 = sorted([x, y])
        inner = count_lattice(theta, a0, a1)
        wider = count_lattice(theta, add_turns(a0, -1), add_turns(a1, 1))
        assert wider == inner + 2


class TestPiMultiples:
    @pytest.mark.parametrize("shift", [0, 8 * 10**30, -8 * 10**30])
    def test_quarter_counts_round_trip(self, shift):
        for q in range(shift - 80, shift + 81):
            a = quarter_angle(q)
            assert angle_of_quarters(q) == a
            assert a.quarters() == q
            m = a.pi_multiple()
            assert type(m) is Fraction and m == Fraction(q, 4)

    @given(angles())
    def test_only_pi_quarter_directions_have_counts(self, a):
        if a.dir not in EIGHTHS:
            assert a.quarters() is None and a.pi_multiple() is None

    def test_table(self):
        assert A(1, 0).pi_multiple() == 0
        assert A(-1, 1).pi_multiple() == Fraction(3, 4)
        assert A(0, -1, 2).pi_multiple() == Fraction(7, 2)
        assert A(2, 1).pi_multiple() is None

    @given(angles())
    def test_consistent_with_float(self, a):
        q = a.pi_multiple()
        if q is not None:
            assert math.isclose(float(q) * math.pi, a.value(), abs_tol=1e-9)


class TestLiterals:
    @given(angles())
    def test_round_trip(self, a):
        assert parse_angle(str(a)) == a

    def test_omitted_turns(self):
        assert parse_angle("-1,0") == A(-1, 0)
        assert parse_angle(" 0,1;2 ") == A(0, 1, 2)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_angle("1;2")
