"""Profiles, forms, and exact moment signs."""

import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toruscut import (
    Angle,
    AngleProfile,
    Direction,
    InvariantContactForm,
    NonMonotone,
    NonPositiveRadial,
    OutsideDomain,
    ProfilePoint,
    RadialProfile,
    ZeroSlopeSegment,
    angle_add,
    angle_compare,
    angle_sub,
    contact_check,
    contact_reduce,
    direction_angle,
    moment_eval,
    moment_sign,
    rescale,
    sweep,
)
from toruscut import forms
from toruscut.angles import negate

A = Angle
D = Direction


def alpha_phi(k):
    # phi(0) = 0, phi(1) = (4k+1) pi/2
    return AngleProfile((F(0), F(1)), (A(D(1, 0)), A(D(0, 1), k)))


def dirs(max_coord=5):
    return (
        st.tuples(
            st.integers(-max_coord, max_coord), st.integers(-max_coord, max_coord)
        )
        .filter(lambda v: v != (0, 0))
        .map(lambda v: D(*D.reduced(*v).as_tuple()))
    )


def angles(max_coord=5, max_turns=3):
    return st.builds(A, dirs(max_coord), st.integers(-max_turns, max_turns))


@st.composite
def positive_angles(draw):
    d = draw(dirs())
    turns = draw(st.integers(0, 2))
    a = A(d, turns)
    if angle_compare(a, A(D(1, 0))) <= 0:
        a = A(d, turns + 1)
    return a


@st.composite
def ascending_breaks(draw, max_segments=4):
    k = draw(st.integers(1, max_segments))
    t = draw(st.fractions(min_value=-2, max_value=2, max_denominator=6))
    breaks = [t]
    for _ in range(k):
        gap = draw(st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6))
        breaks.append(breaks[-1] + gap)
    return breaks


@st.composite
def monotone_profiles(draw, max_segments=4, orientation=None):
    """Strictly monotone profiles; orientation +1 or -1 fixes the direction,
    None draws it.  Every segment sweeps at least Arg(5, 1) ~ 0.197."""
    breaks = draw(ascending_breaks(max_segments))
    vals = [draw(angles())]
    for _ in range(len(breaks) - 1):
        vals.append(angle_add(vals[-1], draw(positive_angles())))
    if orientation == -1 or (orientation is None and draw(st.booleans())):
        vals.reverse()
    return AngleProfile(tuple(breaks), tuple(vals))


@st.composite
def radial_profiles(draw, max_segments=4):
    """Affine profiles, and products of two with interleaved breakpoints."""
    breaks = draw(ascending_breaks(max_segments))
    positive = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)
    r = RadialProfile.from_values(breaks, [draw(positive) for _ in breaks])
    if draw(st.booleans()):
        mid = breaks[0] + (breaks[-1] - breaks[0]) * draw(st.sampled_from([F(1, 3), F(1, 2)]))
        other = [breaks[0], mid, breaks[-1]]
        r = r.multiply(RadialProfile.from_values(other, [draw(positive) for _ in other]))
    return r


@st.composite
def sub_intervals(draw, breaks):
    """t_a < t_b inside [breaks[0], breaks[-1]]; endpoints often breakpoints."""

    def point():
        if draw(st.booleans()):
            return draw(st.sampled_from(breaks))
        return draw(rational_in(breaks[0], breaks[-1]))

    t_a, t_b = point(), point()
    assume(t_a != t_b)
    return min(t_a, t_b), max(t_a, t_b)


def rational_in(lo, hi, q=840):
    # evenly spread rationals with denominator q
    n_lo = math.ceil(lo * q)
    n_hi = math.floor(hi * q)
    return st.integers(n_lo, n_hi).map(lambda n: F(n, q))


class TestAngleProfile:
    def test_orientation_of_model_profiles(self):
        for k in range(6):
            assert alpha_phi(k).orientation() == 1
            assert alpha_phi(k).reversed().orientation() == -1

    def test_zero_slope_rejected(self):
        phi = AngleProfile((F(0), F(1), F(2)), (A(D(1, 0)), A(D(0, 1)), A(D(0, 1))))
        with pytest.raises(ZeroSlopeSegment):
            phi.orientation()

    def test_direction_change_rejected(self):
        phi = AngleProfile((F(0), F(1), F(2)), (A(D(1, 0)), A(D(0, 1)), A(D(1, 1))))
        with pytest.raises(NonMonotone):
            phi.orientation()

    def test_degenerate_interval(self):
        d = AngleProfile((F(0), F(0)), (A(D(1, 1)), A(D(1, 1))))
        assert d.is_degenerate
        with pytest.raises(ZeroSlopeSegment):
            d.orientation()
        assert d.compare_at(F(0), A(D(1, 1))) == 0

    def test_eval_float_at_breakpoints(self):
        phi = alpha_phi(2)
        assert phi.eval_float(0.0) == 0.0
        assert abs(phi.eval_float(1.0) - 9 * math.pi / 2) < 1e-12
        assert abs(phi.eval_float(0.5) - 9 * math.pi / 4) < 1e-12

    def test_compare_at_known_points(self):
        phi = alpha_phi(1)
        assert phi.compare_at(F(1, 5), A(D(0, 1))) == 0
        assert phi.compare_at(F(1, 5), A(D(1, 1))) > 0
        assert phi.compare_at(F(1, 5), A(D(0, 1), 1)) < 0

    def test_compare_outside_domain(self):
        with pytest.raises(OutsideDomain):
            alpha_phi(1).compare_at(F(3, 2), A(D(1, 0)))

    def test_solve_known_lattice(self):
        # phi(t) = (5 pi / 2) t meets pi/4 + j pi at t = 1/10, 1/2, 9/10
        phi = alpha_phi(1)
        pts = phi.solve_half_turn_lattice(direction_angle((-1, -1)))
        assert [j for j, _ in pts] == [1, 2, 3]
        assert [p.t_fraction() for _, p in pts] == [F(1, 10), F(1, 2), F(9, 10)]

    def test_solve_out_of_range(self):
        assert alpha_phi(0).solve(A(D(0, -1))) is None
        assert alpha_phi(0).solve(A(D(1, 0), 2)) is None

    def test_solve_endpoint_hits(self):
        phi = alpha_phi(1)
        assert phi.solve(A(D(1, 0))).t_fraction() == F(0)
        assert phi.solve(A(D(0, 1), 1)).t_fraction() == F(1)

    def test_exact_t_is_computed_once(self, monkeypatch):
        calls = []
        pi_multiple = Angle.pi_multiple
        monkeypatch.setattr(Angle, "pi_multiple", lambda a: calls.append(a) or pi_multiple(a))
        pt = ProfilePoint(0, F(0), F(1), A(D(1, 2)), A(D(0, 1)))  # irrational offset
        assert pt.t_fraction() is None and len(calls) == 2
        assert str(pt) == "0 + (1-0)*ratio[1,2;0 / 0,1;0]"
        assert pt.t_float() == pytest.approx(math.atan2(2, 1) / (math.pi / 2))
        assert pt.t_fraction() is None and len(calls) == 2
        assert pt == ProfilePoint(0, F(0), F(1), A(D(1, 2)), A(D(0, 1)))

    @given(monotone_profiles())
    def test_solve_inverts_compare(self, phi):
        lo, hi = phi.value_bounds()
        for target in (lo, hi, phi.values[len(phi.values) // 2]):
            pt = phi.solve(target)
            assert pt is not None
            t = pt.t_fraction()
            if t is not None:
                assert phi.compare_at(t, target) == 0

    @given(monotone_profiles(), st.integers(0, 839))
    def test_compare_matches_float(self, phi, k):
        t = phi.t0 + (phi.t1 - phi.t0) * F(k, 840)
        target = phi.values[0]
        c = phi.compare_at(t, target)
        gap = phi.eval_float(float(t)) - target.value()
        if abs(gap) > 1e-9:
            assert c == (1 if gap > 0 else -1)

    @given(monotone_profiles())
    def test_reversed_swaps_orientation(self, phi):
        assert phi.reversed().orientation() == -phi.orientation()
        assert phi.reversed().reversed() == phi

    @given(monotone_profiles(), st.integers(0, 839))
    def test_reparametrized_evaluates_identically(self, phi, k):
        new = phi.reparametrized(F(0), F(1))
        lam = F(k, 840)
        t_old = phi.t0 + (phi.t1 - phi.t0) * lam
        assert new.compare_at(lam, phi.values[0]) == phi.compare_at(t_old, phi.values[0])

    def test_restricted_exact(self):
        phi = alpha_phi(1)
        sub = phi.restricted_exact(
            F(1, 10), direction_angle((1, 1)), F(9, 10), A(D(1, 1), 1)
        )
        assert sub.breaks == (F(1, 10), F(9, 10))
        assert angle_sub(sub.values[1], sub.values[0]).pi_multiple() == F(2)
        assert sub.compare_at(F(1, 2), A(D(-1, -1), 1)) == 0  # phi(1/2) = 5 pi/4


def scan_solve(phi, target):
    """Reference solve: the first segment in parameter order whose closed
    value range contains the target; zero-sweep segments never match."""
    for i in range(len(phi.breaks) - 1):
        v0, v1 = phi.values[i], phi.values[i + 1]
        s = angle_compare(v1, v0)
        if s != 0 and s * angle_compare(target, v0) >= 0 and s * angle_compare(v1, target) >= 0:
            return ProfilePoint(
                i, phi.breaks[i], phi.breaks[i + 1], angle_sub(target, v0), angle_sub(v1, v0)
            )
    return None


def scan_restricted_exact(phi, t_a, value_a, t_b, value_b):
    """Reference restriction: keep the breakpoints strictly inside (t_a, t_b)."""
    mid = [(t, v) for t, v in zip(phi.breaks, phi.values) if t_a < t < t_b]
    return AngleProfile(
        (t_a, *[t for t, _ in mid], t_b), (value_a, *[v for _, v in mid], value_b)
    )


def refine_restricted(r, t_a, t_b):
    """Reference restriction: refine at both ends, then cut."""
    fine = r.refined([t_a, t_b])
    i0, i1 = fine.breaks.index(t_a), fine.breaks.index(t_b)
    return RadialProfile(fine.breaks[i0 : i1 + 1], fine.pieces[i0:i1])


# about 1e-3 rad: far inside every segment of monotone_profiles()
NUDGE = direction_angle((1000, 1))


class TestSolveBisection:
    @given(
        st.one_of(monotone_profiles(), monotone_profiles(orientation=-1)),
        angles(max_turns=15),
    )
    @settings(max_examples=150)
    def test_matches_linear_scan(self, phi, drawn):
        v = phi.values
        step = NUDGE if phi.orientation() > 0 else negate(NUDGE)
        inside = [angle_add(x, step) for x in v[:-1]] + [angle_sub(x, step) for x in v[1:]]
        outside = [angle_sub(v[0], step), angle_add(v[-1], step)]
        for target in (*v, *inside, *outside, drawn):
            assert phi.solve(target) == scan_solve(phi, target)
        for target in v[1:-1]:  # a shared breakpoint belongs to the earlier segment
            pt = phi.solve(target)
            assert pt.offset == pt.span and pt.t_hi == phi.breaks[v.index(target)]
        for target in inside:
            pt = phi.solve(target)
            assert 0 < pt.t_float() - float(pt.t_lo) < float(pt.t_hi - pt.t_lo)
        for target in outside:
            assert phi.solve(target) is None

    @given(angles(), angles(), st.fractions(min_value=-2, max_value=2, max_denominator=6))
    def test_degenerate_and_zero_sweep_profiles_have_no_solution(self, a, target, t):
        for phi in (AngleProfile((t, t), (a, a)), AngleProfile((t, t + 1), (a, a))):
            assert phi.solve(a) is None and scan_solve(phi, a) is None
            assert phi.solve(target) is None

    def test_lattice_enumeration_cost_is_n_plus_j_log_n(self, monkeypatch):
        # the n = 1000 rung of the contact_reduce ladder (perfbench/ladder.py)
        n = 1000
        phi = AngleProfile(
            tuple(F(i, n - 1) for i in range(n)), tuple(A(D(1, 0), i) for i in range(n))
        )
        calls = Counter()
        for name in ("angle_compare", "angle_sub"):

            def counted(*args, _real=getattr(forms, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(forms, name, counted)
        circles = contact_reduce(InvariantContactForm.unit(phi), (1, 0))
        hits = len(circles)
        assert hits == 2 * (n - 1)
        # a per-hit scan of the segments makes about n * J / 2 calls
        assert sum(calls.values()) <= 2 * (n + hits * math.log2(n))

    @given(monotone_profiles(), st.data())
    def test_restricted_exact_matches_scan(self, phi, data):
        t_a, t_b = data.draw(sub_intervals(phi.breaks))
        value_a, value_b = phi.values[0], phi.values[-1]
        sub = phi.restricted_exact(t_a, value_a, t_b, value_b)
        ref = scan_restricted_exact(phi, t_a, value_a, t_b, value_b)
        assert (sub.breaks, sub.values) == (ref.breaks, ref.values)

    @given(radial_profiles(), st.data())
    def test_radial_restricted_matches_refine(self, r, data):
        t_a, t_b = data.draw(sub_intervals(r.breaks))
        sub = r.restricted(t_a, t_b)
        ref = refine_restricted(r, t_a, t_b)
        assert (sub.breaks, sub.pieces) == (ref.breaks, ref.pieces)
        for t in sub.breaks:
            assert sub.evaluate(t) == r.evaluate(t)


class TestRadialProfile:
    def test_positive_required(self):
        with pytest.raises(NonPositiveRadial):
            RadialProfile.from_values([0, 1], [1, 0])
        with pytest.raises(NonPositiveRadial):
            RadialProfile.from_values([0, 1, 2], [1, F(-1, 2), 1])

    def test_affine_evaluation(self):
        r = RadialProfile.from_values([0, F(1, 3), 1], [1, 3, 2])
        assert r.evaluate(F(1, 6)) == 2
        assert r.evaluate(F(2, 3)) == F(5, 2)
        assert abs(r.evaluate_float(0.5) - 2.75) < 1e-15

    def test_outside_domain(self):
        r = RadialProfile.constant(1, (0, 1))
        with pytest.raises(OutsideDomain):
            r.evaluate(F(3, 2))

    @given(st.integers(0, 840), st.integers(0, 840))
    def test_multiply_is_pointwise_product(self, i, j):
        r = RadialProfile.from_values([0, F(1, 3), 1], [1, 3, 2])
        s = RadialProfile.from_values([0, F(1, 2), 1], [2, F(1, 2), 1])
        t = F(min(i, j), 840)
        assert r.multiply(s).evaluate(t) == r.evaluate(t) * s.evaluate(t)

    @given(st.integers(0, 840))
    def test_refined_preserves_values(self, i):
        r = RadialProfile.from_values([0, F(1, 3), 1], [1, 3, 2])
        fine = r.refined([F(1, 7), F(5, 7)])
        t = F(i, 840)
        assert fine.evaluate(t) == r.evaluate(t)

    @given(st.integers(0, 840))
    def test_reversed_mirrors_exactly(self, i):
        r = RadialProfile.from_values([0, F(1, 3), 1], [1, 3, 2])
        rr = r.multiply(r).reversed()
        t = F(i, 840)
        assert rr.evaluate(1 - t) == r.evaluate(t) ** 2

    @given(st.integers(0, 840))
    def test_reparametrized_evaluates_identically(self, i):
        r = RadialProfile.from_values([0, F(1, 3), 1], [1, 3, 2])
        new = r.reparametrized(F(-1), F(3))
        t = F(i, 840)
        assert new.evaluate(-1 + 4 * t) == r.evaluate(t)

    def test_restricted(self):
        r = RadialProfile.from_values([0, F(1, 3), 1], [1, 3, 2])
        sub = r.restricted(F(1, 6), F(2, 3))
        assert (sub.t0, sub.t1) == (F(1, 6), F(2, 3))
        for t in (F(1, 6), F(1, 3), F(1, 2), F(2, 3)):
            assert sub.evaluate(t) == r.evaluate(t)


class TestContactCheck:
    def test_model_forms_are_positive_contact(self):
        for k in range(6):
            form = InvariantContactForm.unit(alpha_phi(k))
            assert contact_check(form) == 1
            assert sweep(form).pi_multiple() == F(4 * k + 1, 2)

    def test_reversed_form_is_negative_contact(self):
        form = InvariantContactForm.unit(alpha_phi(1)).reversed()
        assert contact_check(form) == -1

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            InvariantContactForm(alpha_phi(1), RadialProfile.constant(1, (0, 2)))

    @given(monotone_profiles())
    def test_contact_sign_is_sweep_sign(self, phi):
        form = InvariantContactForm.unit(phi)
        assert contact_check(form) == angle_compare(phi.values[-1], phi.values[0])


class TestMoment:
    def test_known_signs_along_alpha1(self):
        form = InvariantContactForm.unit(alpha_phi(1))
        expected = [
            (F(0), -1),
            (F(1, 10), 0),
            (F(1, 4), 1),
            (F(1, 2), 0),
            (F(7, 10), -1),
            (F(9, 10), 0),
            (F(1), 1),
        ]
        for t, sign in expected:
            mv = moment_eval(form, (-1, 1), t)
            assert mv.sign == sign
            if sign == 0:
                assert mv.value == 0.0

    def test_zero_vector_moment(self):
        form = InvariantContactForm.unit(alpha_phi(0))
        assert moment_eval(form, (0, 0), F(1, 2)) == (0.0, 0)

    def test_nonprimitive_eta_allowed(self):
        # moment is linear in eta, so sign of 2*eta equals sign of eta
        form = InvariantContactForm.unit(alpha_phi(1))
        for t in (F(0), F(1, 10), F(1, 4), F(1, 2)):
            assert (
                moment_eval(form, (-2, 2), t).sign
                == moment_eval(form, (-1, 1), t).sign
            )

    @given(monotone_profiles(), dirs(), st.integers(0, 839))
    @settings(max_examples=60)
    def test_sign_matches_float_value(self, phi, d, k):
        form = InvariantContactForm.unit(phi)
        eta = d.as_tuple()
        t = phi.t0 + (phi.t1 - phi.t0) * F(k, 840)
        mv = moment_eval(form, eta, t)
        a = phi.eval_float(float(t))
        approx = eta[0] * math.cos(a) + eta[1] * math.sin(a)
        scale = abs(eta[0]) + abs(eta[1])
        if abs(approx) > 1e-9 * scale:
            assert mv.sign == (1 if approx > 0 else -1)
        if mv.sign != 0:
            assert mv.value * mv.sign > 0

    def test_moment_sign_locates_the_segment_once(self, monkeypatch):
        n = 300
        phi = AngleProfile(
            tuple(F(i, n - 1) for i in range(n)), tuple(A(D(1, 0), i) for i in range(n))
        )
        form = InvariantContactForm.unit(phi)
        phi._sweeps  # computed once per profile, on first use
        calls = Counter()
        for name in ("angle_sub", "add_half_turns", "compare_scaled"):

            def counted(*args, _real=getattr(forms, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(forms, name, counted)
        real_segment_of = AngleProfile._segment_of

        def segment_of(self, t):
            calls["_segment_of"] += 1
            return real_segment_of(self, t)

        monkeypatch.setattr(AngleProfile, "_segment_of", segment_of)
        assert moment_sign(form, (1, 2), F(1, 3)) == -1  # phi(1/3) = 2 pi (99 + 2/3)
        steps = calls["add_half_turns"]  # one lattice target per comparison
        assert steps >= 8 and calls["compare_scaled"] == steps
        assert calls["_segment_of"] == 1
        assert calls["angle_sub"] <= steps + 2

    def test_compare_at_beyond_float_range(self):
        # phi(t) = 5 pi t / 2; at t = 10**-400 it is about 7.85e-400
        phi = alpha_phi(1)
        t = F(1, 10**400)
        assert phi.compare_at(t, A(D(1, 0))) == 1
        assert phi.compare_at(t, A(D(10**399, 1))) == -1
        assert phi.compare_at(t, A(D(10**400, 1))) == 1
        assert phi.compare_at(1 - t, A(D(0, 1), 1)) == -1

    @given(monotone_profiles(), dirs())
    @settings(max_examples=60)
    def test_zero_exactly_on_lattice(self, phi, d):
        form = InvariantContactForm.unit(phi)
        eta = (d.y, -d.x)  # so the moment zero lattice sits at Arg(d) + j pi
        pts = phi.solve_half_turn_lattice(Angle(d))
        for j, pt in pts:
            t = pt.t_fraction()
            if t is None:
                continue
            assert moment_eval(form, eta, t) == (0.0, 0)
        # strictly between consecutive rational hits the sign is constant
        ts = [p.t_fraction() for _, p in pts if p.t_fraction() is not None]
        for a, b in zip(ts, ts[1:]):
            mid = (a + b) / 2
            assert moment_sign(form, eta, mid) != 0


class TestRescale:
    @given(monotone_profiles(), st.integers(0, 839))
    @settings(max_examples=60)
    def test_rescale_preserves_signs_and_scales_values(self, phi, k):
        form = InvariantContactForm.unit(phi)
        lo, hi = phi.t0, phi.t1
        third = lo + (hi - lo) / 3
        r2 = RadialProfile.from_values([lo, third, hi], [1, 3, 2])
        scaled = rescale(form, r2)
        t = lo + (hi - lo) * F(k, 840)
        a = moment_eval(form, (1, 2), t)
        b = moment_eval(scaled, (1, 2), t)
        assert a.sign == b.sign
        assert abs(b.value - float(r2.evaluate(t)) * a.value) <= 1e-12 * (
            1 + abs(a.value)
        )

    def test_rescale_rejects_nonpositive(self):
        form = InvariantContactForm.unit(alpha_phi(0))
        bad = RadialProfile(
            (F(0), F(1)), ((F(1), F(-2)),)
        )  # affine dipping negative
        with pytest.raises(NonPositiveRadial):
            rescale(form, bad)
