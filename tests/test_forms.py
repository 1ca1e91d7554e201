"""Profiles, forms, and exact moment signs."""

import dataclasses
import importlib.util
import inspect
import math
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruscut import (
    Angle,
    AngleForm,
    AngleProfile,
    BadBreakpoints,
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
    complement_vector,
    contact_check,
    contact_reduce,
    direction_angle,
    moment_eval,
    moment_sign,
    parse_angle,
    rescale,
    sweep,
    sympl_moment_eval,
    sympl_moment_sign,
)
from toruscut import cuts, forms
from toruscut import angles as angle_module
from toruscut.angles import ZERO_ANGLE, add_half_turns, add_turns, to_float

from call_counts import CallCounts
from float_reference import phi_float, radial_float
from quarter_reference import EIGHTHS, quarter_angle

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


def turn_counts(max_turns):
    """Integers in [-max_turns, max_turns].  Past 10**6, the top decade
    from max_turns // 10 up is also drawn from its own band, in both
    signs: `st.integers` alone reaches a wide range's top in few draws."""
    turns = st.integers(-max_turns, max_turns)
    if max_turns <= 10**6:
        return turns
    top = st.integers(max_turns // 10, max_turns)
    return st.one_of(turns, top, top.map(lambda n: -n))


def angles(max_coord=5, max_turns=3):
    return st.builds(A, dirs(max_coord), turn_counts(max_turns))


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
def quarter_profiles(draw, max_segments=6, max_turns=0):
    """Strictly monotone profiles whose values are all pi/4 directions,
    one to nine quarter turns apart, shifted by up to max_turns turns."""
    breaks = draw(ascending_breaks(max_segments))
    qs = [draw(st.integers(-40, 40)) + 8 * draw(turn_counts(max_turns))]
    for _ in range(len(breaks) - 1):
        qs.append(qs[-1] + draw(st.integers(1, 9)))
    if draw(st.booleans()):
        qs.reverse()
    return AngleProfile(tuple(breaks), tuple(quarter_angle(q) for q in qs))


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


def rational_in(lo, hi, q=840):
    # evenly spread rationals with denominator q
    n_lo = math.ceil(lo * q)
    n_hi = math.floor(hi * q)
    return st.integers(n_lo, n_hi).map(lambda n: F(n, q))


class TestAngleProfile:
    def test_orientation_of_model_profiles(self):
        for k in range(6):
            assert alpha_phi(k).orientation == 1
            assert alpha_phi(k).reversed().orientation == -1

    def test_zero_slope_rejected(self):
        with pytest.raises(ZeroSlopeSegment, match="segment 1;"):
            AngleProfile((F(0), F(1), F(2)), (A(D(1, 0)), A(D(0, 1)), A(D(0, 1))))

    def test_direction_change_rejected(self):
        with pytest.raises(NonMonotone, match="segment 1$"):
            AngleProfile((F(0), F(1), F(2)), (A(D(1, 0)), A(D(0, 1)), A(D(1, 1))))

    def test_breaks_and_values_of_different_lengths_rejected(self):
        with pytest.raises(BadBreakpoints, match="matching breaks/values"):
            AngleProfile((F(0), F(1), F(2)), (A(D(1, 0)), A(D(0, 1))))

    def test_degenerate_interval(self):
        # a collapsed interval [t0, t0] is no profile: no form can carry it
        with pytest.raises(BadBreakpoints, match="strictly ascending"):
            AngleProfile((F(0), F(0)), (A(D(1, 1)), A(D(1, 1))))

    def test_eval_float_at_breakpoints(self):
        phi = alpha_phi(2)
        assert phi_float(phi, 0.0) == 0.0
        assert abs(phi_float(phi, 1.0) - 9 * math.pi / 2) < 1e-12
        assert abs(phi_float(phi, 0.5) - 9 * math.pi / 4) < 1e-12

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
        exact_t = ProfilePoint._exact_t
        monkeypatch.setattr(ProfilePoint, "_exact_t", lambda p: calls.append(p) or exact_t(p))
        pt = ProfilePoint(0, F(0), F(1), A(D(1, 2)), A(D(0, 1)))  # irrational offset
        assert pt.t_fraction() is None and len(calls) == 1
        assert str(pt) == "0 + (1-0)*ratio[1,2;0 / 0,1;0]"
        assert pt.t_float() == pytest.approx(math.atan2(2, 1) / (math.pi / 2))
        assert pt.t_fraction() is None and len(calls) == 1
        assert pt == ProfilePoint(0, F(0), F(1), A(D(1, 2)), A(D(0, 1)))
        # a pi/4 walk sets its points' t, so they make no _exact_t call
        pts = [p for _, p in alpha_phi(1).solve_half_turn_lattice(direction_angle((-1, -1)))]
        assert [p.t_fraction() for p in pts] == [F(1, 10), F(1, 2), F(9, 10)]
        assert [str(p) for p in pts] == ["1/10", "1/2", "9/10"] and len(calls) == 1

    def test_angle_walk_computes_exact_t_once(self):
        # phi = Arg(1, 2) + 2 pi t meets Arg(1, 2) + j pi at t = 0, 1/2, 1;
        # off pi/4 data the walk leaves each t to its first use
        phi = AngleProfile((F(0), F(1)), (A(D(1, 2)), A(D(1, 2), 1)))
        with CallCounts((ProfilePoint, "_exact_t")) as calls:
            pts = [p for _, p in phi.solve_half_turn_lattice(A(D(1, 2)))]
            assert calls["_exact_t"] == 0
            assert [p.t_fraction() for p in pts] == [F(0), F(1, 2), F(1)]
            assert calls["_exact_t"] == 3
            assert [str(p) for p in pts] == ["0", "1/2", "1"] and calls["_exact_t"] == 3

    @given(
        st.one_of(quarter_profiles(), quarter_profiles(max_turns=10**12)),
        st.data(),
    )
    def test_quarter_walk_sets_each_exact_t(self, phi, data):
        # both orientations, bases on a breakpoint value and up to 10**12
        # turns off: each hit's t is the one a fresh point computes, and
        # reading it enters no _exact_t; the walk sets up the t of the
        # segments with a hit only
        bases = [
            data.draw(st.sampled_from(phi.values)),
            quarter_angle(data.draw(st.integers(-8 * 10**12, 8 * 10**12))),
        ]
        for base in bases:
            with CallCounts((forms, "_quarter_t")) as walk:
                pts = [p for _, p in phi.solve_half_turn_lattice(base)]
            assert walk["_quarter_t"] == len({p.segment for p in pts})
            with CallCounts((ProfilePoint, "_exact_t")) as calls:
                got = [p.t_fraction() for p in pts]
            assert calls["_exact_t"] == 0
            fresh = [ProfilePoint(p.segment, p.t_lo, p.t_hi, p.offset, p.span) for p in pts]
            assert got == [p.t_fraction() for p in fresh]

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
        gap = phi_float(phi, float(t)) - target.value()
        if abs(gap) > 1e-9:
            assert c == (1 if gap > 0 else -1)

    @given(monotone_profiles())
    def test_reversed_swaps_orientation(self, phi):
        assert phi.reversed().orientation == -phi.orientation
        assert phi.reversed().reversed() == phi

    @given(monotone_profiles(), st.integers(0, 839))
    def test_reparametrized_evaluates_identically(self, phi, k):
        new = phi.reparametrized(F(0), F(1))
        lam = F(k, 840)
        t_old = phi.t0 + (phi.t1 - phi.t0) * lam
        assert new.compare_at(lam, phi.values[0]) == phi.compare_at(t_old, phi.values[0])


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


def lattice_by_solving(phi, base):
    """Reference solve_half_turn_lattice: one `solve` per lattice index."""
    lo, hi = phi.value_bounds()
    j_min, j_max = angle_sub(lo, base).floor_ceil()[1], angle_sub(hi, base).floor_ceil()[0]
    hits = [(j, phi.solve(add_half_turns(base, j))) for j in range(j_min, j_max + 1)]
    return hits[::-1] if phi.orientation < 0 else hits


def reduce_by_solving(form, eta):
    """Reference contact_reduce: the radial evaluated at each hit on its own,
    as (index, point, exact t, float t, coefficient)."""
    base = direction_angle((-eta[1], eta[0]))
    out = []
    for j, pt in lattice_by_solving(form.phi, base):
        t = pt.t_fraction()
        if t is not None:
            r = float(form.radial.evaluate(t))
        else:
            r = radial_float(form.radial, pt.t_float())
        sign = 1 if j % 2 else -1
        out.append((j, pt, t, pt.t_float(), sign * r / math.hypot(*eta)))
    return out


# about 1e-3 rad: far inside every segment of monotone_profiles()
NUDGE = direction_angle((1000, 1))


class TestSolveBisection:
    @given(
        st.one_of(monotone_profiles(), monotone_profiles(orientation=-1), quarter_profiles()),
        angles(max_turns=15),
        st.integers(-50, 110).map(quarter_angle),
    )
    @settings(max_examples=150)
    def test_matches_linear_scan(self, phi, drawn, quarter):
        v = phi.values
        step = NUDGE if phi.orientation > 0 else angle_sub(ZERO_ANGLE, NUDGE)
        inside = [angle_add(x, step) for x in v[:-1]] + [angle_sub(x, step) for x in v[1:]]
        outside = [angle_sub(v[0], step), angle_add(v[-1], step)]
        for target in (*v, *inside, *outside, drawn, quarter):
            pt = phi.solve(target)
            assert pt == scan_solve(phi, target)
            # == ignores t; where offset and span are rational multiples of
            # pi, t is their ratio placed on the segment
            num = None if pt is None else pt.offset.pi_multiple()
            den = None if pt is None else pt.span.pi_multiple()
            if num is not None and den is not None:
                assert pt.t_fraction() == pt.t_lo + (pt.t_hi - pt.t_lo) * (num / den)
        for target in v[1:-1]:  # a shared breakpoint belongs to the earlier segment
            pt = phi.solve(target)
            assert pt.offset == pt.span and pt.t_hi == phi.breaks[v.index(target)]
        for target in inside:
            pt = phi.solve(target)
            assert 0 < pt.t_float() - float(pt.t_lo) < float(pt.t_hi - pt.t_lo)
        for target in outside:
            assert phi.solve(target) is None

    @given(angles(), st.fractions(min_value=-2, max_value=2, max_denominator=6))
    def test_zero_sweep_profile_has_no_solution(self, a, t):
        # a profile of zero sweep is refused when it is built, so solve and
        # the lattice walk never see one
        with pytest.raises(ZeroSlopeSegment, match="segment 0;"):
            AngleProfile((t, t + 1), (a, a))

    @given(
        st.one_of(
            monotone_profiles(),
            quarter_profiles(),
            quarter_profiles(max_turns=10**30),
            st.integers(0, 40).map(alpha_phi),
        ),
        st.data(),
        st.lists(st.sampled_from([F(1, 2), 1, 2]), min_size=3, max_size=3),
    )
    @settings(max_examples=250)
    def test_lattice_walk_matches_one_solve_per_hit(self, phi, data, r2):
        # bases on a breakpoint value (hits on shared breakpoints), at a
        # pi/4 direction near 0 and up to 10**30 turns below and above the
        # profile (hit indices far from 0), and drawn (mostly irrational);
        # the pi/4 bases on a pi/4 profile take the integer walk
        lo, hi = phi.value_bounds()
        far = st.integers(0, 8 * 10**30)
        bases = [
            data.draw(st.sampled_from(phi.values)),
            quarter_angle(data.draw(st.integers(-8, 8))),
            quarter_angle(8 * lo.turns - data.draw(far)),
            quarter_angle(8 * hi.turns + data.draw(far)),
            data.draw(angles()),
        ]
        # a piecewise radial times a three-piece one: degree 2 where both
        # pieces slope, constant where neither does
        r1 = [data.draw(st.sampled_from([1, 3])) for _ in phi.breaks]
        radial = RadialProfile.from_values(phi.breaks, r1)
        third = phi.t0 + (phi.t1 - phi.t0) / 3
        form = rescale(
            InvariantContactForm(phi, radial),
            RadialProfile.from_values([phi.t0, third, phi.t1], r2),
        )
        for base in bases:
            got, want = phi.solve_half_turn_lattice(base), lattice_by_solving(phi, base)
            assert got == want
            assert [(p.t_fraction(), p.t_float()) for _, p in got] == [
                (p.t_fraction(), p.t_float()) for _, p in want
            ]
            eta = (base.dir.y, -base.dir.x)  # its zero lattice runs through base
            circles = contact_reduce(form, eta)
            want = reduce_by_solving(form, eta)
            # each point equals the reference's solve of base + index * pi
            assert [
                (c.index, c.point, c.point.t_fraction(), c.point.t_float()) for c in circles
            ] == [w[:4] for w in want]
            # bit for bit at an exact t, to rounding at an irrational one
            assert [c.coefficient for c in circles] == [
                w[4] if w[2] is not None else pytest.approx(w[4], rel=1e-12) for w in want
            ]

    def test_lattice_enumeration_cost_is_n_plus_j(self):
        # the n = 1000 rung of the contact_reduce ladder (perfbench/ladder.py),
        # whose values are pi/4 directions, and the same with irrational ones;
        # each function counts on its code object, whatever name calls it
        n = 1000
        for d in (D(1, 0), D(2, 1)):
            with CallCounts(
                (angle_module, "angle_compare"),
                (angle_module, "angle_add"),
                (angle_module, "angle_sub"),
                (angle_module, "_half_turns"),
                (AngleProfile, "solve"),
                (A, "pi_multiple"),
                (D, "__neg__"),
            ) as calls:
                phi = AngleProfile(
                    tuple(F(i, n - 1) for i in range(n)), tuple(A(d, i) for i in range(n))
                )
                circles = contact_reduce(InvariantContactForm.unit(phi), (1, 0))
            hits = len(circles)
            assert hits == 2 * (n - 1)
            assert calls["solve"] == 0
            # one solve per hit makes about J log n angle comparisons
            assert sum(calls.values()) <= 4 * (n + hits), calls
            # a direction is negated at most once per segment and once per
            # call, never per hit or per circle
            assert calls["__neg__"] <= n, calls["__neg__"]
            # a pi/4 lattice on pi/4 values is walked in integer quarter turns
            walked_in_angles = [calls[k] for k in ("angle_add", "_half_turns")]
            assert (sum(walked_in_angles) == 0) == (d == D(1, 0)), walked_in_angles
            assert calls["pi_multiple"] == 0


def walk_by_constructors(phi, base):
    """solve_half_turn_lattice's two per-hit loops, written out apart from
    it: a pi/4 hit's offset by `quarter_angle` and its t by one Fraction
    of its own integers, with no `_quarter_t`."""
    b, qs, q_base = phi.breaks, phi._quarters, base.quarters()
    hits = []
    if qs is not None and q_base is not None:
        m = [q_base - q for q in qs]
        ranges = forms._lattice_ranges([-d // 4 for d in m], [-(d // 4) for d in m])
        for i, (span, js) in enumerate(zip(phi._sweeps, ranges)):
            t_lo, t_hi, q_span = b[i], b[i + 1], qs[i + 1] - qs[i]
            p, r, s, u = t_lo.numerator, t_lo.denominator, t_hi.numerator, t_hi.denominator
            for j in js:
                q = m[i] + 4 * j
                t = F(p * u * q_span + (s * r - p * u) * q, r * u * q_span)
                hits.append((j, ProfilePoint(i, t_lo, t_hi, quarter_angle(q), span, t)))
        return hits
    m = [angle_sub(base, v) for v in phi.values]
    f, c = zip(*(a.floor_ceil() for a in m))
    ranges = forms._lattice_ranges([-x for x in c], [-x for x in f])
    for i, (span, js) in enumerate(zip(phi._sweeps, ranges)):
        steps, t_lo, t_hi = angle_module._half_turns(m[i]), b[i], b[i + 1]
        for j in js:
            d, turns = steps[j % 2]
            hits.append((j, ProfilePoint(i, t_lo, t_hi, A(d, turns + j // 2), span)))
    return hits


def reduce_by_constructors(form, eta):
    """contact_reduce's loop, written out apart from it, over
    `walk_by_constructors`."""
    x, y = to_float(eta[0]), to_float(eta[1])
    mag = None if x is None or y is None else math.hypot(x, y)
    hits = walk_by_constructors(form.phi, direction_angle((-eta[1], eta[0])))
    radii = form.radial.floats_along(pt for _, pt in hits)
    out = []
    for (j, pt), r in zip(hits, radii):
        q = None if r is None or mag is None else r / mag
        coefficient = None if q is None or q < sys.float_info.min else (q if j % 2 else -q)
        out.append(cuts.ReducedCircle(j, pt, coefficient))
    return out


@st.composite
def far_profiles(draw):
    """pi/4 and other profiles, in both orientations, moved by up to 10^30
    turns."""
    phi = draw(st.one_of(monotone_profiles(), quarter_profiles()))
    big = st.integers(10**29, 10**30)
    turns = draw(st.one_of(st.integers(-3, 3), big, big.map(lambda n: -n)))
    return AngleProfile(phi.breaks, tuple(add_turns(v, turns) for v in phi.values))


def assert_same_objects(got, want):
    """Equal, of one type, with equal hash and repr, and slotted and frozen."""
    assert type(got) is type(want) and got == want
    assert hash(got) == hash(want) and repr(got) == repr(want)
    assert not hasattr(got, "__dict__")
    field = dataclasses.fields(got)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(got, field, getattr(got, field))


class TestWalkBuiltObjects:
    """The walk's hits and contact_reduce's circles against the same objects
    from the reference loops: the hand-written `__init__`s give equal,
    slotted and frozen objects."""

    @given(far_profiles(), st.data())
    @settings(derandomize=True, max_examples=200)
    def test_match_the_public_constructors(self, phi, data):
        lo = phi.value_bounds()[0]
        far = st.one_of(st.integers(0, 8), st.integers(8 * 10**29, 8 * 10**30))
        bases = [
            data.draw(st.sampled_from(phi.values)),
            add_turns(data.draw(angles()), lo.turns),
            quarter_angle(8 * lo.turns + data.draw(st.integers(-8, 8))),
            quarter_angle(8 * lo.turns - data.draw(far)),
            data.draw(angles(max_turns=10**30)),
        ]
        radial = RadialProfile.from_values(phi.breaks, [1 + k % 3 for k in range(len(phi.breaks))])
        form = InvariantContactForm(phi, radial)
        for base in bases:
            got, want = phi.solve_half_turn_lattice(base), walk_by_constructors(phi, base)
            assert [j for j, _ in got] == [j for j, _ in want]
            for (_, g), (_, w) in zip(got, want):
                assert_same_objects(g, w)
                assert_same_objects(g.offset, w.offset)
                assert g.t_fraction() == w.t_fraction()
                assert repr(g.t_float()) == repr(w.t_float())
            eta = (base.dir.y, -base.dir.x)
            circles, reference = contact_reduce(form, eta), reduce_by_constructors(form, eta)
            assert len(circles) == len(reference) == len(got)
            for c, r in zip(circles, reference):
                assert_same_objects(c, r)
                assert c.point.t_fraction() == r.point.t_fraction()
                assert repr(c.point.t_float()) == repr(r.point.t_float())


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
        assert abs(radial_float(r, 0.5) - 2.75) < 1e-15

    def test_domain_and_piece_checks_are_geometry_errors(self):
        unit = RadialProfile.constant(1, (0, 1))
        big, tiny = F(10**399 + 7), F(1, 10**800)
        cases = [
            (lambda: rescale(InvariantContactForm.unit(alpha_phi(1)),
                             RadialProfile.from_values([0, 2], [1, 1])),
             "radial profiles must share their domain"),
            (lambda: RadialProfile((F(0), F(1)), ()), "needs matching breaks/values"),
            # one breakpoint: no domain to evaluate on
            (lambda: RadialProfile((F(0),), ((F(1),),)), "at least two"),
            (lambda: RadialProfile((), ()), "at least two"),
            # a factor missing at one breakpoint, and no factor at all
            (lambda: RadialProfile((F(0), F(1)), ((F(1), F(2)), (F(1),))),
             "needs matching breaks/values"),
            (lambda: RadialProfile((F(0), F(1)), ((), ())), "needs matching breaks/values"),
            (lambda: RadialProfile((F(1), F(0)), ((F(1),), (F(1),))), "strictly ascending"),
            # equal breakpoints given as an int and as a Fraction
            (lambda: RadialProfile((0, F(0), F(1)), ((F(1),),) * 3), "strictly ascending"),
            (lambda: AngleProfile((F(0), 0), (A(D(1, 0)), A(D(0, 1)))), "strictly ascending"),
            # 400-digit neighbours 10^-800 apart, descending, and equal
            (lambda: RadialProfile((big + tiny, big), ((F(1),),) * 2), "strictly ascending"),
            (lambda: RadialProfile((big, big + 0), ((F(1),),) * 2), "strictly ascending"),
            # negative breakpoints, descending
            (lambda: RadialProfile((F(-1, 3), F(-1, 2)), ((F(1),),) * 2), "strictly ascending"),
            (lambda: AngleProfile((-1, -2, 0), (A(D(1, 0)),) * 3), "strictly ascending"),
            (lambda: unit.reparametrized(1, 1), "reparametrization needs nondegenerate domains"),
            (lambda: alpha_phi(1).reparametrized(1, 0),
             "reparametrization needs nondegenerate domains"),
        ]
        for call, message in cases:
            with pytest.raises(BadBreakpoints, match=message):
                call()
        # the same neighbours ascending, and negative ones, are accepted
        assert RadialProfile((big, big + tiny), ((F(1),),) * 2).breaks == (big, big + tiny)
        assert RadialProfile((F(-1, 2), F(-1, 3)), ((F(1),),) * 2).t1 == F(-1, 3)

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

    @pytest.mark.parametrize(
        "values, t, value",
        [
            (((1,), (-1,)), 1, -1),
            (((0,), (1,)), 0, 0),
            # (1 - 2t)^2: positive at both ends, 0 at t = 1/2
            (((1, 1), (-1, -1)), 1, -1),
            (((2, 1), (1, 3), (1, 0)), 2, 0),
        ],
    )
    def test_raw_nonpositive_factor_rejected(self, values, t, value):
        breaks = tuple(F(i) for i in range(len(values)))
        with pytest.raises(NonPositiveRadial) as e:
            RadialProfile(breaks, values)
        assert str(e.value) == f"radial profile must be positive; value at t={t} is {value}"

    def test_equal_radials_compare_equal(self):
        r = RadialProfile.constant(2, (0, 1))
        assert r.reversed() == r
        assert r.reparametrized(0, 1) == r

    def test_multiply_commutes(self):
        # interleaved breakpoints: each profile breaks inside the other's pieces
        r = RadialProfile.from_values([0, F(1, 3), F(3, 4), 1], [1, 3, F(1, 2), 2])
        s = RadialProfile.from_values([0, F(1, 2), F(5, 6), 1], [2, F(1, 2), 4, 1])
        assert r.multiply(s) == s.multiply(r)

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

    @given(radial_profiles(), st.data())
    def test_floats_along_matches_pointwise(self, r, data):
        # ascending, breakpoints included, exact and irrational points mixed:
        # offset Arg(1, 2) over a quarter-turn span puts t at about 0.705
        # of the way from t_lo to t_hi
        point = st.one_of(st.sampled_from(r.breaks), rational_in(r.t0, r.t1))
        quarter, irrational = A(D(0, 1)), A(D(1, 2))
        pts = [
            ProfilePoint(0, t, t, quarter, quarter)
            if data.draw(st.booleans())
            else ProfilePoint(0, r.t0, t, irrational, quarter)
            for t in data.draw(st.lists(point))
        ]
        pts.sort(key=lambda p: p.t_float() if p.t_fraction() is None else p.t_fraction())
        # bit for bit: an irrational t is read once, at lam's float, and
        # r there is rounded once
        assert r.floats_along(pts) == [
            to_float(r.evaluate(p.t_lo + (p.t_hi - p.t_lo) * F(p.offset.ratio(p.span))))
            if p.t_fraction() is None
            else float(r.evaluate(p.t_fraction()))
            for p in pts
        ]


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

    @pytest.mark.parametrize(
        "last, error", [(A(D(1, 1)), NonMonotone), (A(D(0, 1)), ZeroSlopeSegment)]
    )
    def test_failure_raises_on_every_call(self, last, error):
        # the contact condition is decided when the profile is built: every
        # build raises, so no form that is not contact reaches contact_check
        for _ in range(3):
            with pytest.raises(error, match="segment 1"):
                AngleProfile((F(0), F(1), F(2)), (A(D(1, 0)), A(D(0, 1)), last))

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
        # the moment of (0, 0) is 0 everywhere: one rule, in moment_sign,
        # read by the value and the symplectized functions alike
        form = InvariantContactForm.unit(alpha_phi(1))
        for t in (F(0), F(1, 3), F(1, 2), F(1)):
            assert moment_sign(form, (0, 0), t) == 0
            assert sympl_moment_sign(form, (0, 0), t) == 0
            assert moment_eval(form, (0, 0), t) == (0.0, 0)
            assert sympl_moment_eval(form, (0, 0), t, 0.5) == 0.0

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
        a = phi_float(phi, float(t))
        approx = eta[0] * math.cos(a) + eta[1] * math.sin(a)
        scale = abs(eta[0]) + abs(eta[1])
        if abs(approx) > 1e-9 * scale:
            assert mv.sign == (1 if approx > 0 else -1)
        if mv.sign != 0:
            assert mv.value * mv.sign > 0

    def test_moment_sign_locates_the_segment_once(self, monkeypatch):
        # phi(t) is read once, as one AngleForm, and placed on the lattice by
        # its floor: no search over lattice indices, O(1) exact signs
        n = 300
        phi = AngleProfile(
            tuple(F(i, n - 1) for i in range(n)), tuple(A(D(1, 0), i) for i in range(n))
        )
        form = InvariantContactForm.unit(phi)
        calls = Counter()

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        # base (-2, 1) is no pi/4 direction: a lattice walk would read its
        # directions per segment through _half_turns
        monkeypatch.setattr(forms, "_half_turns", counting("_half_turns", forms._half_turns))
        monkeypatch.setattr(AngleProfile, "_locate", counting("_locate", AngleProfile._locate))
        monkeypatch.setattr(AngleForm, "sign", counting("sign", AngleForm.sign))
        assert moment_sign(form, (1, 2), F(1, 3)) == -1  # phi(1/3) = 2 pi (99 + 2/3)
        assert calls["_locate"] == 1
        assert calls["_half_turns"] == 0
        assert 1 <= calls["sign"] <= 2

    @pytest.mark.parametrize("exponent", [16, 400, 4000])
    def test_moment_sign_cost_does_not_grow_with_turns(self, exponent, monkeypatch):
        # phi(1/5) = 2 pi T + 3/5 Arg(2, 1), T = 10**exponent: the placement
        # splits off the whole half turns in integers, so it asks one float
        # sign whatever T
        turns = 10**exponent
        values = (A(D(1, 0), turns), A(D(2, 1), turns), A(D(0, 1), turns + 1))
        form = InvariantContactForm.unit(AngleProfile((F(0), F(1, 3), F(1)), values))
        calls = Counter()

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        monkeypatch.setattr(AngleForm, "sign", counting("sign", AngleForm.sign))
        fixed_sum = counting("_fixed_sum", angle_module._fixed_sum)
        monkeypatch.setattr(angle_module, "_fixed_sum", fixed_sum)
        # 2 cos + sin of 3/5 Arg(2, 1), about 0.278, is positive
        assert moment_sign(form, (2, 1), F(1, 5)) == 1
        assert calls["sign"] <= 2
        assert calls["_fixed_sum"] == 0

    @pytest.mark.parametrize(
        "eta, t, value",
        [
            ((0, 1), F(1), 1.0),
            ((0, 1), F(1, 3), 0.5),
            ((1, 0), F(1, 7), math.cos(9 * math.pi / 14)),
        ],
    )
    def test_value_drops_whole_turns(self, eta, t, value):
        # phi(t) = (4T + 1) pi t / 2 with T = 10^20: 5 pi/6 at t = 1/3 and
        # 9 pi/14 at t = 1/7, modulo whole turns; the float of the whole
        # angle would lose every digit
        form = InvariantContactForm.unit(alpha_phi(10**20))
        mv = moment_eval(form, eta, t)
        assert mv.sign == (1 if value > 0 else -1)
        assert mv.value == pytest.approx(value, abs=1e-15)
        assert sympl_moment_eval(form, eta, t, 0.0) == -mv.value

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

    @pytest.mark.xfail(
        strict=True, reason="no exact t between irrational but commensurable angles"
    )
    def test_commensurable_hit_has_exact_t(self):
        # phi(1/4) = 3pi/2: the offset pi/2 - Arg(3, 1) is half the span
        # pi - 2 Arg(3, 1), a rational ratio of two irrational multiples of pi
        values = ("0,1;0", "-3,-1;1", "3,-1;1", "0,1;1")
        phi = AngleProfile((0, F(1, 6), F(1, 3), F(1, 2)), tuple(map(parse_angle, values)))
        assert moment_sign(InvariantContactForm.unit(phi), (1, 0), F(1, 4)) == 0
        hits = dict(phi.solve_half_turn_lattice(A(D(0, 1))))
        assert hits[1].t_fraction() == F(1, 4)
        assert str(hits[1]) == "1/4"


def quarters_at(breaks, qs, t):
    """phi(t) / (pi/4) as a Fraction, for the profile with values qs[i] * pi/4."""
    i = next(i for i in range(len(qs) - 1) if breaks[i] <= t <= breaks[i + 1])
    return qs[i] + (qs[i + 1] - qs[i]) * (t - breaks[i]) / (breaks[i + 1] - breaks[i])


@st.composite
def huge_quarter_profiles(draw):
    """(breaks, qs) of a monotone profile with values qs[i] * pi/4, whose
    values and sweeps reach 10^30 turns."""
    big = 8 * 10**30
    breaks = draw(ascending_breaks())
    qs = [draw(st.integers(-big, big))]
    for _ in range(len(breaks) - 1):
        qs.append(qs[-1] + draw(st.one_of(st.integers(1, 9), st.integers(1, big))))
    if draw(st.booleans()):
        qs.reverse()
    return breaks, qs


class TestExactPhi:
    """compare_at and moment_sign against phi(t) computed in Fractions."""

    @given(huge_quarter_profiles(), st.data())
    @settings(max_examples=200)
    def test_quarter_profiles_match_fractions(self, profile, data):
        breaks, qs = profile
        phi = AngleProfile(tuple(breaks), tuple(quarter_angle(q) for q in qs))
        if data.draw(st.booleans()):
            t = data.draw(st.fractions(breaks[0], breaks[-1], max_denominator=10**6))
        else:  # phi(t) on the pi/4 lattice
            i = data.draw(st.integers(0, len(qs) - 2))
            k = data.draw(st.integers(*sorted(qs[i : i + 2])))
            t = breaks[i] + (breaks[i + 1] - breaks[i]) * F(k - qs[i], qs[i + 1] - qs[i])
        x = quarters_at(breaks, qs, t)
        k = math.floor(x) + data.draw(st.integers(-1, 1))
        assert phi.compare_at(t, quarter_angle(k)) == (x > k) - (x < k)
        r, c = data.draw(st.integers(0, 7)), data.draw(st.integers(1, 3))
        eta = (c * EIGHTHS[r].x, c * EIGHTHS[r].y)
        # |eta| cos(phi - Arg(eta)) vanishes at phi = Arg(eta) + pi/2 + j*pi,
        # with Arg(eta) = r*pi/4 up to whole turns, and is (-1)^(j+1) just above
        d = (x - r - 2) / 4
        j = math.floor(d)
        want = 0 if d == j else (1 if j % 2 else -1)
        assert moment_sign(InvariantContactForm.unit(phi), eta, t) == want

    @given(st.sampled_from([(2, 1), (1, 2), (3, 2)]), st.integers(2, 60), st.data())
    @settings(max_examples=100)
    def test_exact_ties_match_fractions(self, w, q, data):
        # phi = q Arg(w) t on [0, 1], which is p Arg(w) exactly at t = p/q
        multiples = [A(D(1, 0))]
        for _ in range(q):
            multiples.append(angle_add(multiples[-1], A(D(*w))))
        phi = AngleProfile((F(0), F(1)), (multiples[0], multiples[q]))
        p = data.draw(st.integers(1, q - 1))
        hair = F(data.draw(st.integers(-1, 1)), data.draw(st.integers(10**5, 10**6)))
        t = F(p, q) + hair
        # phi(t) - p Arg(w) = (q t - p) Arg(w), and Arg(w) > 0
        want = (q * t > p) - (q * t < p)
        assert phi.compare_at(t, multiples[p]) == want
        assert phi.compare_at(F(p, q), angle_add(multiples[p], A(D(10**6, 1)))) == -1
        # the lattice through Arg(w^p) for eta = (y, -x), (x, y) the direction
        # of w^p: p Arg(w) is an even index, so the sign is -want
        d = multiples[p].dir
        assert moment_sign(InvariantContactForm.unit(phi), (d.y, -d.x), t) == -want


@st.composite
def huge_profiles(draw):
    """A monotone profile and a t in its domain; half the draws move the
    breakpoints onto 401-digit denominators, and half place t by a
    401-digit fraction of the domain."""
    phi = draw(monotone_profiles())
    if draw(st.booleans()):
        scale = F(1, 10**400 + draw(st.integers(1, 99)))
        phi = AngleProfile(tuple(F(1, 3) + b * scale for b in phi.breaks), phi.values)
    if draw(st.booleans()):
        k = draw(st.integers(0, 10**400 + 1))
        at = F(k, 10**400 + 1)
    else:
        at = draw(st.fractions(0, 1, max_denominator=840))
    return phi, phi.t0 + (phi.t1 - phi.t0) * at


class TestFormAt:
    @given(huge_profiles())
    @settings(max_examples=200)
    def test_matches_the_constructor(self, drawn):
        # form_at reads lambda in integers; the constructor takes it as a
        # Fraction: v[i] + lam * sweep[i], sweep[i] = Arg(s) + 2 pi turns
        phi, t = drawn
        b = phi.breaks
        i = min(bisect_right(b, t) - 1, len(b) - 2)
        lam = (t - b[i]) / (b[i + 1] - b[i])
        v, s = phi.values[i], angle_sub(phi.values[i + 1], phi.values[i])
        want = AngleForm(((v.dir, 1), (s.dir, lam)), 2 * v.turns + 2 * lam * s.turns)
        got = phi.form_at(t)
        assert (got - want).sign() == 0
        assert type(got.den) is int and got.den > 0
        assert type(got.r) is int and all(type(c) is int for _, c in got.terms)

    def test_tie_queries_build_no_fraction(self, monkeypatch):
        # the exact-ties tie shape: phi = q Arg(w) t on [0, 1] with q = 136,
        # which is p Arg(w) exactly at t = p/q
        q, w = 136, A(D(2, 1))
        multiples = [A(D(1, 0))]
        for _ in range(q):
            multiples.append(angle_add(multiples[-1], w))
        phi = AngleProfile((F(0), F(1)), (multiples[0], multiples[q]))
        queries = [(F(p, q), multiples[p]) for p in (67, 69)]
        hairs = [(t, angle_add(a, A(D(10**6, 1)))) for t, a in queries]
        built = []
        new = F.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counting_new)
        if "_from_coprime_ints" in vars(F):  # Fraction arithmetic since 3.12
            coprime = vars(F)["_from_coprime_ints"].__func__

            def counting_coprime(cls, n, d):
                built.append((n, d))
                return coprime(cls, n, d)

            monkeypatch.setattr(F, "_from_coprime_ints", classmethod(counting_coprime))
        for t, a in hairs:  # targets a hair above the tie: the float stage decides
            assert phi.compare_at(t, a) == -1
        assert built == []
        for t, a in queries:  # exact ties: only the returned pi multiple
            built.clear()
            assert phi.compare_at(t, a) == 0
            assert len(built) <= 1


class TestBeyondFloatRange:
    """A float beyond float range is None; the exact parts stay."""

    def test_constant_radial_of_401_digits(self):
        form = InvariantContactForm(alpha_phi(1), RadialProfile.constant(10**400, (0, 1)))
        circles = contact_reduce(form, (0, 1))
        unit = contact_reduce(InvariantContactForm.unit(alpha_phi(1)), (0, 1))
        assert [c.coefficient for c in circles] == [None] * len(unit)
        assert [(c.index, c.point, c.sign) for c in circles] == [
            (c.index, c.point, c.sign) for c in unit
        ]
        assert moment_eval(form, (0, 1), F(1, 3)) == (None, 1)
        assert sympl_moment_eval(form, (0, 1), F(1, 3), 0.5) is None
        # an exact zero of the moment keeps its 0.0
        assert moment_eval(form, (0, 1), 0) == (0.0, 0)
        assert sympl_moment_eval(form, (0, 1), 0, 0.5) == 0.0

    def test_affine_radial_reaching_401_digits(self):
        form = InvariantContactForm(
            alpha_phi(1), RadialProfile.from_values([0, 1], [1, 10**400])
        )
        # t = 0 is exact with r = 1; the other hits are beyond float range,
        # at exact and at irrational t
        unit = contact_reduce(InvariantContactForm.unit(alpha_phi(1)), (0, 1))
        got = [c.coefficient for c in contact_reduce(form, (0, 1))]
        assert got == [unit[0].coefficient, None, None]
        assert [c.coefficient for c in contact_reduce(form, (2, 1))] == [None, None]

    def test_eta_of_401_digits(self):
        form = InvariantContactForm.unit(alpha_phi(1))
        eta = (10**400, 1)
        circles = contact_reduce(form, eta)
        assert circles and all(c.coefficient is None for c in circles)
        value, sign = moment_eval(form, eta, F(1, 3))
        assert value is None and sign == moment_sign(form, eta, F(1, 3)) != 0

    def test_breakpoints_of_401_digits(self):
        # irrational hits on a two-piece radial over [0, 10^400]: the same
        # coefficients as over [0, 1], with no float of t or of a breakpoint
        def form(end):
            phi = AngleProfile((F(0), F(end)), (A(D(1, 0)), A(D(0, 1), 3)))
            return InvariantContactForm(
                phi, RadialProfile.from_values([0, F(end, 2), end], [1, 2, 1])
            )

        huge, unit = contact_reduce(form(10**400), (2, 1)), contact_reduce(form(1), (2, 1))
        assert len(huge) == len(unit) == 6
        assert all(c.point.t_fraction() is None for c in huge)
        for big, small in zip(huge, unit):
            assert big.coefficient == pytest.approx(small.coefficient, abs=1e-9)

    def test_symplectization_moment_beyond_exp_range(self):
        form, eta = InvariantContactForm.unit(alpha_phi(1)), (1, 0)
        # f = cos(5 pi t/2) = -sqrt(3)/2 at t = 1/3
        assert sympl_moment_eval(form, eta, F(1, 3), 700.0) == pytest.approx(
            math.exp(700) * math.sqrt(3) / 2
        )
        assert sympl_moment_eval(form, eta, F(1, 3), 1000.0) is None
        # e^710 alone is beyond float range, but not its product with a
        # moment of about 1e-11 next to the zero at t = 1/5
        t = F(1, 5) + F(1, 10**12)
        value, _ = moment_eval(form, eta, t)
        assert sympl_moment_eval(form, eta, t, 710.0) == pytest.approx(
            -math.exp(700) * value * math.exp(10)
        )
        # a moment whose float underflows still has a product in range:
        # -e^1000 * 10^-400 * (-sqrt(3)/2), about 1.706e34
        tiny = InvariantContactForm(alpha_phi(1), RadialProfile.constant(F(1, 10**400), (0, 1)))
        assert sympl_moment_eval(tiny, eta, F(1, 3), 1000.0) == pytest.approx(
            math.exp(1000 - 400 * math.log(10)) * math.sqrt(3) / 2
        )

    def test_moment_below_float_range(self):
        # the float underflows while the exact sign does not: None, not -0.0
        tiny = InvariantContactForm(alpha_phi(1), RadialProfile.constant(F(1, 10**400), (0, 1)))
        assert moment_eval(tiny, (1, 0), F(1, 3)) == (None, -1)
        assert moment_eval(tiny, (1, 0), F(1, 5)) == (0.0, 0)

    def test_floats_along_constant_piece(self):
        r = RadialProfile.from_values([0, F(1, 2), 1], [10**400, 10**400, 2])
        quarter = A(D(0, 1))
        pts = [ProfilePoint(0, t, t, quarter, quarter) for t in (F(1, 4), F(3, 4), F(1))]
        assert r.floats_along(pts) == [None, None, 2.0]


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
        with pytest.raises(NonPositiveRadial):
            # affine dipping negative: the radial is refused before rescale
            rescale(form, RadialProfile((F(0), F(1)), ((1,), (-1,))))


class TestTracerTargets:
    def test_tracer_wraps_the_classes_own_attributes(self):
        # perfbench/tracer.py reads vars(cls): a profile method or a
        # constructor that only a base class defines is a KeyError there
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for name in (*tracer.PROFILE_METHODS, "segments"):
            assert name in vars(AngleProfile), name
        for name in tracer.CONSTRUCTORS:
            assert "__init__" in vars(getattr(forms, name)), name


class TestValueTypes:
    def test_init_takes_the_fields(self):
        # the hand-written __init__s take the fields in order, with their
        # defaults, and set every slot: a field added without its
        # __init__ line fails here
        point = ProfilePoint(2, F(1, 3), F(1, 2), A(D(1, 1)), A(D(0, 1)), F(5, 12))
        for value in (A(D(1, 2), -3), point, cuts.ReducedCircle(1, point, 0.5)):
            kind, fields = type(value), dataclasses.fields(value)
            params = inspect.signature(kind).parameters.values()
            assert [p.name for p in params] == [f.name for f in fields]
            assert [p.default for p in params] == [
                inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
                for f in fields
            ]
            args = [getattr(value, f.name) for f in fields]
            by_name = kind(**{f.name: a for f, a in zip(fields, args)})
            for made in (kind(*args), by_name, dataclasses.replace(value)):
                assert made == value
                assert [getattr(made, f.name) for f in fields] == args

    def test_no_instance_dict(self):
        from toruscut.invariants import Arc, PlanarZero, cc_profile, homotopy_certificate
        from toruscut.report import Item, Record

        form = InvariantContactForm.unit(alpha_phi(1))
        circle = contact_reduce(form, (0, 1))[0]
        angle = add_half_turns(direction_angle(D(0, 1).perp()), circle.index)
        arc = cc_profile(form).arcs[0]
        zero = homotopy_certificate(form, InvariantContactForm.unit(alpha_phi(2))).zeros[0]
        item = Item("key", "exact", 1.0)
        values = (complement_vector(D(0, 1)), angle, circle.point, circle, arc, zero, item)
        values += (Record("t", (item,)),)
        kinds = (Direction, Angle, ProfilePoint, cuts.ReducedCircle, Arc, PlanarZero, Item, Record)
        for value, kind in zip(values, kinds):
            assert type(value) is kind
            assert not hasattr(value, "__dict__") and not hasattr(value, "__weakref__"), kind

    def test_t_beyond_float_range_has_no_float(self):
        big, quarter = F(10**400), A(D(0, 1))
        exact = ProfilePoint(0, F(0), 2 * big, A(D(1, 1)), quarter)  # t = big
        irrational = ProfilePoint(0, big, 2 * big, A(D(1, 2)), quarter)
        assert exact.t_fraction() == big and irrational.t_fraction() is None
        assert exact.t_float() is None and irrational.t_float() is None
        near = ProfilePoint(0, F(0), F(2), A(D(1, 1)), quarter)
        assert near.t_float() == 1.0

    @given(monotone_profiles(), dirs())
    def test_irrational_t_float_matches_its_formula(self, phi, eta):
        points = [p for _, p in phi.solve_half_turn_lattice(direction_angle(eta))]
        big, quarter = F(10**400), A(D(0, 1))
        points += [
            ProfilePoint(0, big, 2 * big, A(D(1, 2)), quarter),
            ProfilePoint(0, -big, F(1, 3), A(D(1, 2)), quarter),
        ]
        for p in points:
            if p.t_fraction() is not None:
                continue
            lo = to_float(p.t_lo)
            width = to_float(p.t_hi - p.t_lo, p.offset.ratio(p.span))
            want = None if lo is None or width is None else lo + width
            got = p.t_float()
            # bit for bit, and None on both sides beyond float range
            assert (got is None) == (want is None), (p, got, want)
            assert got is None or got.hex() == want.hex(), (p, got, want)

    def test_exact_t_is_not_compared_hashed_or_shown(self):
        (_, walked), _, _ = alpha_phi(1).solve_half_turn_lattice(direction_angle((-1, -1)))
        fresh = ProfilePoint(walked.segment, walked.t_lo, walked.t_hi, walked.offset, walked.span)
        assert (walked, hash(walked), repr(walked)) == (fresh, hash(fresh), repr(fresh))
        assert "_t" not in repr(walked)
        assert fresh.t_fraction() == walked.t_fraction() == F(1, 10)
        assert (walked, hash(walked), repr(walked)) == (fresh, hash(fresh), repr(fresh))
