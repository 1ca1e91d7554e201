"""Cut validation, lens classification, reduction, and moment slicing."""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toruscut import (
    Angle,
    AngleProfile,
    CutSpec,
    Direction,
    InvalidCutSpec,
    InvariantContactForm,
    LensKind,
    NonMonotone,
    NonPrimitive,
    RadialProfile,
    alpha_cutspec,
    alpha_form,
    angle_compare,
    classify_lens,
    complement_vector,
    contact_reduce,
    lens_cutspec,
    minimal_valid_cutspec,
    rescale,
    rotating_line_form,
    require_valid,
    slice_by_ray,
    sweep,
    validate_cutspec,
)
from toruscut import angles
from toruscut.angles import (
    QUARTER_TURN,
    add_half_turns,
    add_turns,
    angle_add,
    angle_sub,
    direction_angle,
)
from toruscut.forms import ProfilePoint, contact_check
from toruscut.invariants import Arc, CCProfile, cc_count, cc_profile, detect_overtwisted

from call_counts import CallCounts
from quarter_reference import EIGHTHS, quarter_angle

A = Angle
D = Direction


def dirs(max_coord=5):
    return (
        st.tuples(
            st.integers(-max_coord, max_coord), st.integers(-max_coord, max_coord)
        )
        .filter(lambda v: v != (0, 0))
        .map(lambda v: D(*D.reduced(*v).as_tuple()))
    )


def codes(violations):
    return [(v.code, v.end) for v in violations]


class TestValidation:
    @pytest.mark.parametrize("k", range(7))
    def test_alpha_specs_valid(self, k):
        assert validate_cutspec(alpha_cutspec(k)) == []

    @pytest.mark.parametrize("kl", [(1, 1), (2, 1), (1, 2), (2, 3), (3, 5)])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_lens_specs_valid(self, kl, j):
        assert validate_cutspec(lens_cutspec(*kl, j)) == []

    def test_nonzero_moment_at_start(self):
        # phi(0) = 0, so the (1,0)-moment there is the full radius
        spec = CutSpec(alpha_form(1), D(1, 0), D(1, 0))
        assert codes(validate_cutspec(spec)) == [("nonzero-boundary-moment", 0)]

    def test_nonzero_moment_at_end(self):
        spec = CutSpec(alpha_form(1), D(0, 1), D(0, 1))
        bad = validate_cutspec(spec)
        assert codes(bad) == [("nonzero-boundary-moment", 1)]
        assert "not zero" in bad[0].message

    def test_wrong_sign_at_start(self):
        # (0,-1) is perpendicular to phi(0) but its moment decreases inward
        spec = CutSpec(alpha_form(1), D(0, -1), D(1, 0))
        assert codes(validate_cutspec(spec)) == [("wrong-sign", 0)]

    def test_wrong_sign_at_end(self):
        spec = CutSpec(alpha_form(1), D(0, 1), D(-1, 0))
        assert codes(validate_cutspec(spec)) == [("wrong-sign", 1)]

    def test_both_ends_can_fail(self):
        spec = CutSpec(alpha_form(1), D(0, -1), D(-1, 0))
        assert codes(validate_cutspec(spec)) == [("wrong-sign", 0), ("wrong-sign", 1)]

    def test_not_contact(self):
        # the profile refuses to be built, so no CutSpec holds a form that is
        # not contact and every violation is at an end
        with pytest.raises(NonMonotone, match="segment 1$"):
            AngleProfile((F(0), F(1, 2), F(1)), (A(D(1, 0)), A(D(-1, 0)), A(D(0, 1))))

    def test_require_valid(self):
        require_valid(alpha_cutspec(2))
        with pytest.raises(InvalidCutSpec) as exc:
            require_valid(CutSpec(alpha_form(1), D(1, 0), D(1, 0)))
        assert exc.value.violations[0].code == "nonzero-boundary-moment"

    def test_moment_beyond_float_range_has_no_float(self):
        # r * cos(0) is 10^400 at t = 0: exactly nonzero, not a float
        big = 10**400
        phi = AngleProfile((F(0), F(1)), (A(D(1, 0)), A(D(0, 1))))
        for form, v0 in (
            (InvariantContactForm.unit(phi), D(big, 1)),
            (InvariantContactForm(phi, RadialProfile.constant(big, (0, 1))), D(1, 1)),
        ):
            (bad,) = validate_cutspec(CutSpec(form, v0, D(1, 0)))
            assert (bad.code, bad.end) == ("nonzero-boundary-moment", 0)
            assert bad.message.endswith(" at t=0 is beyond float range, not zero")
        # a finite moment keeps its 12-digit float
        (bad,) = validate_cutspec(CutSpec(InvariantContactForm.unit(phi), D(1, 1), D(1, 0)))
        assert bad.message == "moment of (1,1) at t=0 is 1, not zero"

    @given(dirs(10**6), st.data())
    def test_vanishing_moment_rule_matches_angle_difference(self, v, data):
        # the rule it replaced: phi(end) - Arg(perp v) is a multiple of pi
        def old_rule_vanishes(value, v):
            rel = angle_sub(value, direction_angle(D(-v.y, v.x)))
            return rel.dir.as_tuple() in ((1, 0), (-1, 0))

        perp = D(-v.y, v.x)
        d = data.draw(st.sampled_from([perp, -perp, v, -v]) | dirs(10**6), label="d")
        turns = data.draw(st.integers(-3, 3), label="turns")
        phi = AngleProfile((F(0), F(1)), (A(d, turns), A(d, turns + 1)))
        spec = CutSpec(InvariantContactForm.unit(phi), v, v)
        nonzero = {bad.end for bad in spec.violations if bad.code == "nonzero-boundary-moment"}
        for end, value in enumerate(phi.values):
            assert (end not in nonzero) == old_rule_vanishes(value, v)

    def test_domain_reparametrized_to_unit_interval(self):
        phi = AngleProfile((F(-1), F(3)), (A(D(1, 0)), A(D(0, 1), 1)))
        spec = CutSpec(InvariantContactForm.unit(phi), D(0, 1), D(1, 0))
        assert spec.form.domain == (F(0), F(1))
        assert validate_cutspec(spec) == []

    @given(dirs(), dirs())
    def test_minimal_cutspec_is_valid(self, v0, v1):
        assert validate_cutspec(minimal_valid_cutspec(v0, v1)) == []

    @given(dirs(), dirs())
    def test_validity_survives_reversal_with_swapped_vectors(self, v0, v1):
        spec = minimal_valid_cutspec(v0, v1)
        swapped = CutSpec(spec.form.reversed(), spec.v1, spec.v0)
        assert validate_cutspec(swapped) == []


class TestClassification:
    def test_quarter_sweep_sphere(self):
        desc = classify_lens(minimal_valid_cutspec((0, 1), (1, 0)))
        assert desc.kind is LensKind.SPHERE
        assert desc.slope == F(0, 1)
        assert desc.normal_form == (1, 0)
        assert desc.raw_basis_data == (1, 0)

    @pytest.mark.parametrize("k", range(5))
    def test_alpha_cut_space_is_sphere(self, k):
        desc = classify_lens(alpha_cutspec(k))
        assert desc.kind is LensKind.SPHERE
        assert desc.slope == 0

    def test_integer_slope_is_sphere(self):
        desc = classify_lens(minimal_valid_cutspec((0, 1), (1, -2)))
        assert desc.kind is LensKind.SPHERE
        assert desc.slope == -2
        assert desc.normal_form == (1, 0)

    def test_equal_collapse_vectors_give_s1xs2(self):
        desc = classify_lens(minimal_valid_cutspec((0, 1), (0, 1)))
        assert desc.kind is LensKind.S1XS2
        assert desc.slope is None
        assert desc.normal_form is None
        assert desc.raw_basis_data[0] == 0

    def test_opposite_collapse_vectors_give_s1xs2(self):
        desc = classify_lens(minimal_valid_cutspec((2, 1), (-2, -1)))
        assert desc.kind is LensKind.S1XS2

    @pytest.mark.parametrize(
        "kl,kind,slope,normal",
        [
            ((1, 1), LensKind.SPHERE, F(-1), (1, 0)),
            ((2, 1), LensKind.SPHERE, F(-2), (1, 0)),
            ((1, 2), LensKind.LENS, F(-1, 2), (2, 1)),
            ((2, 3), LensKind.LENS, F(-2, 3), (3, 1)),
        ],
    )
    def test_lens_family_table(self, kl, kind, slope, normal):
        desc = classify_lens(lens_cutspec(*kl))
        assert desc.kind is kind
        assert desc.slope == slope
        assert desc.normal_form == normal

    @pytest.mark.parametrize("kl", [(1, 2), (2, 3)])
    def test_extra_turns_do_not_change_cut_space(self, kl):
        descs = [classify_lens(lens_cutspec(*kl, j)) for j in (1, 2, 3)]
        assert descs[0] == descs[1] == descs[2]

    def test_classify_rejects_invalid_spec(self):
        with pytest.raises(InvalidCutSpec):
            classify_lens(CutSpec(alpha_form(1), D(1, 0), D(1, 0)))

    @given(dirs(), dirs())
    def test_swap_negates_x_and_inverts_y(self, v0, v1):
        d1 = classify_lens(minimal_valid_cutspec(v0, v1))
        d2 = classify_lens(minimal_valid_cutspec(v1, v0))
        x1, y1 = d1.raw_basis_data
        x2, y2 = d2.raw_basis_data
        assert x2 == -x1
        if x1 != 0:
            assert (y1 * y2 - 1) % x1 == 0
        assert d1.kind == d2.kind

    @given(dirs(), dirs(), st.lists(st.sampled_from("ST"), max_size=6))
    def test_basis_change_fixes_kind_and_normal_form(self, v0, v1, word):
        def apply(v):
            x, y = v.as_tuple()
            for c in word:
                if c == "S":
                    x, y = -y, x
                else:
                    x, y = x + y, y
            return (x, y)

        base = classify_lens(minimal_valid_cutspec(v0, v1))
        moved = classify_lens(minimal_valid_cutspec(apply(v0), apply(v1)))
        assert moved.kind == base.kind
        assert moved.normal_form == base.normal_form


class TestComplement:
    @pytest.mark.parametrize(
        "eta,zeta",
        [((0, 1), (1, 0)), ((1, 0), (0, -1)), ((2, 1), (1, 0)), ((-1, 1), (0, 1))],
    )
    def test_anchors(self, eta, zeta):
        assert complement_vector(D(*eta)).as_tuple() == zeta

    @given(dirs(9))
    def test_unimodular_and_reduced(self, eta):
        z = complement_vector(eta)
        assert z.x * eta.y - z.y * eta.x == 1
        dot = z.x * eta.x + z.y * eta.y
        assert 0 <= dot < eta.x * eta.x + eta.y * eta.y


class TestContactReduce:
    def test_alpha1_vertical_moment(self):
        circles = contact_reduce(alpha_form(1), (0, 1))
        assert [c.point.t_fraction() for c in circles] == [F(0), F(2, 5), F(4, 5)]
        assert [c.sign for c in circles] == [1, -1, 1]
        assert [c.coefficient for c in circles] == [1.0, -1.0, 1.0]
        # the coordinate the coefficients refer to
        assert complement_vector(D(0, 1)).as_tuple() == (1, 0)
        assert [c.index for c in circles] == [-1, 0, 1]

    def test_circle_angles_lie_on_profile(self):
        form = alpha_form(2)
        base = direction_angle(D(1, 1).perp())
        for c in contact_reduce(form, (1, 1)):
            t = c.point.t_fraction()
            assert t is not None
            assert form.phi.compare_at(t, add_half_turns(base, c.index)) == 0

    def test_coefficient_magnitude(self):
        # crossings of an irrational base angle have no rational t, but the
        # constant radius pins the coefficient to sign * r / |eta| anyway
        form = rescale(alpha_form(1), RadialProfile.constant(3, (F(0), F(1))))
        circles = contact_reduce(form, (1, 2))
        assert circles
        for c in circles:
            assert c.point.t_fraction() is None
            expected = c.sign * 3 / math.sqrt(5)
            assert c.coefficient == pytest.approx(expected, rel=1e-12)

    def test_rescale_scales_coefficients_only(self):
        base = contact_reduce(alpha_form(2), (0, 1))
        doubled = contact_reduce(
            rescale(alpha_form(2), RadialProfile.constant(2, (F(0), F(1)))), (0, 1)
        )
        assert [c.point for c in base] == [c.point for c in doubled]
        assert [c.sign for c in base] == [c.sign for c in doubled]
        for b, d in zip(base, doubled):
            assert d.coefficient == pytest.approx(2 * b.coefficient, rel=1e-15)

    def test_makes_no_angle_per_circle(self):
        # the walk's one offset Angle per hit is the only per-circle Angle:
        # between two forms of one segment the counts differ by the circles
        for eta in ((1, 1), (2, 1)):
            made = []
            for k in (3, 40):
                form = alpha_form(k)
                with CallCounts((angles.Angle, "__init__")) as calls:
                    circles = len(contact_reduce(form, eta))
                made.append((circles, calls["__init__"]))
            (few, a_few), (many, a_many) = made
            assert many > few
            assert a_many - a_few == many - few

    def test_signs_alternate_and_t_increases(self):
        circles = contact_reduce(alpha_form(3), (2, -1))
        assert len(circles) >= 2
        for prev, cur in zip(circles, circles[1:]):
            assert cur.index == prev.index + 1
            assert cur.sign == -prev.sign
            assert prev.point.t_float() < cur.point.t_float()

    def test_rejects_nonprimitive_eta(self):
        with pytest.raises(NonPrimitive):
            contact_reduce(alpha_form(1), (0, 2))

    @pytest.mark.parametrize("eta", [(1, 0), (1, -3)])
    def test_constant_radial_reads_no_hit_parameter(self, eta, monkeypatch):
        # one constant radial piece: every coefficient is sign * r / |eta|,
        # so no hit is asked for its exact or its float t
        form = rescale(alpha_form(3), RadialProfile.constant(3, (F(0), F(1))))
        asked = []
        for name in ("t_fraction", "t_float"):
            real = getattr(ProfilePoint, name)
            monkeypatch.setattr(
                ProfilePoint, name, lambda pt, _n=name, _r=real: asked.append(_n) or _r(pt)
            )
        circles = contact_reduce(form, eta)
        assert len(circles) >= 6 and asked == []
        mag = math.hypot(*eta)
        assert [c.coefficient for c in circles] == [c.sign * 3.0 / mag for c in circles]


@st.composite
def line_like_forms(draw):
    """Strictly monotone profiles with values at multiples of pi/4, one to
    nine eighths of a turn apart, and a non-constant piecewise-affine
    radial on its own breakpoints (some of phi's among them), in either
    orientation."""
    breaks = [draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))]
    gap = st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4)
    for _ in range(draw(st.integers(1, 9))):
        breaks.append(breaks[-1] + draw(gap))
    qs = [draw(st.integers(-20, 20))]
    for _ in breaks[1:]:
        qs.append(qs[-1] + draw(st.integers(1, 9)))
    phi = AngleProfile(tuple(breaks), tuple(quarter_angle(q) for q in qs))
    t0, t1 = breaks[0], breaks[-1]
    inside = st.integers(1, 839).map(lambda k: t0 + (t1 - t0) * F(k, 840))
    rb = sorted({t0, t1, *draw(st.lists(st.one_of(st.sampled_from(breaks), inside), max_size=6))})
    rv = [draw(st.sampled_from([1, F(3, 2), 3])) for _ in rb]
    assume(len(set(rv)) > 1)
    form = InvariantContactForm(phi, RadialProfile.from_values(rb, rv))
    return form.reversed() if draw(st.booleans()) else form


def restricted_exact(phi, t_a, value_a, t_b, value_b):
    """Reference phi of a piece on [t_a, t_b]: the breakpoints strictly
    inside, found by bisection."""
    i0, i1 = bisect_right(phi.breaks, t_a), bisect_left(phi.breaks, t_b)
    return AngleProfile((t_a, *phi.breaks[i0:i1], t_b), (value_a, *phi.values[i0:i1], value_b))


def restricted(r, t_a, t_b):
    """Reference radial of a piece on [t_a, t_b]: refined at both ends, with
    the breakpoints outside dropped."""
    fine = r.refined([t_a, t_b])
    kept = [(t, v) for t, v in zip(fine.breaks, fine.values) if t_a <= t <= t_b]
    return RadialProfile(tuple(t for t, _ in kept), tuple(v for _, v in kept))


def slice_by_restriction(line_form, eta, window):
    """Reference slice_by_ray: each piece is restricted on [t_l, t_r], and
    CutSpec then reparametrizes it onto [0, 1]."""
    orientation = contact_check(line_form)
    phi = line_form.phi
    beta = direction_angle(eta)
    v_lo, v_hi = phi.value_bounds()
    lo, hi = max(window[0], v_lo), min(window[1], v_hi)
    start, stop = angle_sub(beta, QUARTER_TURN), angle_add(beta, QUARTER_TURN)
    # the j with lo <= start + 2 pi j and stop + 2 pi j <= hi, by a linear
    # scan up from a j whose start lies a whole turn count below lo
    j = lo.turns - start.turns - 1
    while angle_compare(add_turns(start, j), lo) < 0:
        j += 1
    pieces = []
    while angle_compare(b := add_turns(stop, j), hi) <= 0:
        a = add_turns(start, j)
        j += 1
        ta, tb = phi.solve(a).t_fraction(), phi.solve(b).t_fraction()
        t_l, v_l, t_r, v_r = (ta, a, tb, b) if orientation > 0 else (tb, b, ta, a)
        piece = InvariantContactForm(
            restricted_exact(phi, t_l, v_l, t_r, v_r), restricted(line_form.radial, t_l, t_r)
        )
        pieces.append((t_l, CutSpec(piece, eta, eta)))
    pieces.sort(key=lambda p: p[0])
    return [spec for _, spec in pieces]


def turns(n):
    # the angle n*pi, n even or odd
    return A(D(1, 0), n // 2) if n % 2 == 0 else A(D(-1, 0), (n - 1) // 2)


class TestSliceByRay:
    def test_three_vertical_slices(self):
        pieces = slice_by_ray(rotating_line_form(3), (0, 1), (turns(-3), turns(3)))
        assert len(pieces) == 3
        for spec in pieces:
            assert validate_cutspec(spec) == []
            assert classify_lens(spec).kind is LensKind.S1XS2
            assert angle_compare(sweep(spec.form), A(D(-1, 0))) == 0
            assert spec.form.domain == (F(0), F(1))

    def test_slice_value_ranges_are_disjoint_and_ordered(self):
        pieces = slice_by_ray(rotating_line_form(3), (0, 1), (turns(-3), turns(3)))
        bounds = [p.form.phi.value_bounds() for p in pieces]
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert angle_compare(hi, lo) < 0

    def test_pieces_equal_unit_cut_data(self):
        # every piece has the unit radial that a hand-built datum has
        pieces = slice_by_ray(rotating_line_form(3), (0, 1), (turns(-3), turns(3)))
        for piece in pieces:
            unit = InvariantContactForm.unit(piece.form.phi)
            assert piece == CutSpec(unit, piece.v0, piece.v1)

    def test_window_drops_clipped_intervals(self):
        line = rotating_line_form(3)
        assert len(slice_by_ray(line, (0, 1), (A(D(1, 0)), turns(3)))) == 2
        assert len(slice_by_ray(line, (0, 1), (A(D(0, 1)), turns(3)))) == 1
        assert slice_by_ray(line, (0, 1), (A(D(0, 1)), A(D(0, -1), 1))) == []

    def test_domain_truncation_drops_intervals(self):
        # the window allows five intervals but the form only sweeps three
        pieces = slice_by_ray(rotating_line_form(3), (0, 1), (turns(-5), turns(5)))
        assert len(pieces) == 3

    def test_horizontal_moment_slices(self):
        pieces = slice_by_ray(rotating_line_form(3), (1, 0), (turns(-3), turns(3)))
        assert len(pieces) == 3
        for spec in pieces:
            assert spec.v0.as_tuple() == (1, 0)
            assert angle_compare(sweep(spec.form), A(D(-1, 0))) == 0

    def test_reversed_line_gives_same_slices(self):
        # slices come out sorted by t, so the reversed form lists the same
        # value ranges in the opposite order
        window = (turns(-3), turns(3))
        fwd = slice_by_ray(rotating_line_form(3), (0, 1), window)
        rev = slice_by_ray(rotating_line_form(3).reversed(), (0, 1), window)
        assert len(rev) == len(fwd)
        for a, b in zip(fwd, reversed(rev)):
            va, vb = a.form.phi.value_bounds(), b.form.phi.value_bounds()
            assert angle_compare(va[0], vb[0]) == 0
            assert angle_compare(va[1], vb[1]) == 0
            assert validate_cutspec(b) == []

    def test_decreasing_window_rejected(self):
        with pytest.raises(ValueError):
            slice_by_ray(rotating_line_form(3), (0, 1), (turns(3), turns(-3)))

    def test_incommensurable_endpoint_piece(self):
        # phi = pi at an irrational t; the piece is read from its end values
        phi = AngleProfile((F(0), F(1)), (A(D(1, 0)), A(D(2, 1), 1)))
        form = InvariantContactForm.unit(phi)
        unit = InvariantContactForm.unit(AngleProfile((0, 1), (A(D(1, 0)), A(D(-1, 0)))))
        assert slice_by_ray(form, (0, 1), (turns(-3), turns(3))) == [
            CutSpec(unit, D(0, 1), D(0, 1))
        ]

    @given(line_like_forms(), st.sampled_from(EIGHTHS), st.data())
    @settings(max_examples=200)
    def test_pieces_match_restriction_then_reparametrization(self, form, eta, data):
        # window ends on breakpoint values and on other multiples of pi/4;
        # a piece in normal form and the restricted one agree in every
        # invariant that is read off a cut datum
        ends = st.one_of(
            st.sampled_from(form.phi.values), st.integers(-60, 120).map(quarter_angle)
        )
        w0, w1 = data.draw(ends), data.draw(ends)
        assume(angle_compare(w0, w1) != 0)
        window = (w0, w1) if angle_compare(w0, w1) < 0 else (w1, w0)
        got, want = slice_by_ray(form, eta, window), slice_by_restriction(form, eta, window)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.v0, g.v1, g.violations) == (w.v0, w.v1, w.violations)
            gv, wv = g.form.phi.values, w.form.phi.values
            assert (gv[0], gv[-1]) == (wv[0], wv[-1])
            assert classify_lens(g) == classify_lens(w)
            assert cc_profile(g) == cc_profile(w)
            assert detect_overtwisted(g) == detect_overtwisted(w) is None

    @given(st.data())
    @settings(max_examples=300)
    def test_pieces_are_the_moment_intervals(self, data):
        # values of any primitive directions, up to 10^30 whole turns, in
        # either orientation, sliced along any eta in a window of any ends
        t0 = data.draw(st.integers(-(10**30), 10**30), label="turns")
        values = {A(data.draw(dirs()), t0 + data.draw(st.integers(0, 4))) for _ in range(6)}
        assume(len(values) > 1)
        values = sorted(values)
        v_lo, v_hi = values[0], values[-1]
        if data.draw(st.booleans(), label="decreasing"):
            values.reverse()
        phi = AngleProfile(tuple(range(len(values))), tuple(values))
        w = sorted({A(data.draw(dirs()), t0 + data.draw(st.integers(-2, 6))) for _ in range(2)})
        assume(len(w) == 2)
        eta = data.draw(dirs())

        def arg(v):
            return math.atan2(v.y, v.x)

        def key(a):  # whole turns, then the Arg: ordered as the angles are
            return (a.turns, arg(a.dir))

        lo_turns, lo_arg = max(key(w[0]), key(v_lo))
        hi_turns, hi_arg = min(key(w[1]), key(v_hi))
        # the j with Arg(eta) - pi/2 + 2 pi j >= lo and Arg(eta) + pi/2 + 2 pi j
        # <= hi, counted in whole turns with the Args' share in floats
        beta = arg(eta)
        x = (lo_arg - beta + math.pi / 2) / (2 * math.pi)
        y = (hi_arg - beta - math.pi / 2) / (2 * math.pi)
        assume(min(abs(x - round(x)), abs(y - round(y))) > 1e-9)
        js = range(lo_turns + math.ceil(x), hi_turns + math.floor(y) + 1)
        pieces = slice_by_ray(InvariantContactForm.unit(phi), eta, tuple(w))
        assert len(pieces) == len(js)
        for spec, j in zip(pieces, js[:: phi.orientation]):
            assert spec.violations == () and spec.v0 == spec.v1 == eta
            # Arg(eta) -+ pi/2 + 2 pi j lie on the directions (y, -x) and (-y, x)
            ends = tuple(
                A(d, j + round((beta + s * math.pi / 2 - arg(d)) / (2 * math.pi)))
                for d, s in ((D(eta.y, -eta.x), -1), (D(-eta.y, eta.x), 1))
            )
            assert spec.form.phi.values == ends[:: phi.orientation]

    def test_pieces_solve_no_parameter(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a slice piece solved a parameter")

        monkeypatch.setattr(AngleProfile, "solve", refuse)
        monkeypatch.setattr(ProfilePoint, "t_fraction", refuse)
        window = (A(D(1, 0), -100), A(D(1, 0), 100))
        assert len(slice_by_ray(rotating_line_form(60), (1, 1), window)) == 59


PRIMITIVE_PAIRS = [
    (k, l) for k in range(-6, 7) for l in range(-6, 7) if math.gcd(k, l) == 1
]


class TestModels:
    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("k, l", PRIMITIVE_PAIRS)
    def test_lens_cutspec_valid_for_every_pair(self, k, l, j):
        # phi rises from 0 to Arg(k, l) + 2 pi j when Arg(k, l) is in (0, pi],
        # and one turn further when Arg(k, l) <= 0, so that it rises at all
        spec = lens_cutspec(k, l, j)
        assert validate_cutspec(spec) == []
        assert spec.v1 == D.reduced(l, -k)
        e = 1 if l < 0 or (l == 0 and k > 0) else 0
        assert spec.form.phi.values[-1] == A(D.reduced(k, l), j + e)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_lens_one_zero_sweeps_j_plus_one_turns(self, j):
        # v1 = (0, -1) = -v0, so phi starts and ends on the direction (1, 0)
        # and the lift adds a whole turn: phi sweeps 2 pi (j + 1), which
        # meets every ray j + 1 times and the ray of both ends j + 2 times
        spec = lens_cutspec(1, 0, j)
        assert spec.v1 == -spec.v0
        x = D(1, 0)
        assert spec.form.phi.values == (A(x), A(x, j + 1))
        arcs = (Arc(A(x), A(x), A(x, 1), j + 1),)
        assert cc_profile(spec) == CCProfile(arcs, j + 1, j + 2, A(x, j + 1))
        assert [cc_count(spec, xi) for xi in ((1, 0), (0, 1), (-1, 0), (1, -1))] == [
            j + 2, j + 1, j + 1, j + 1
        ]

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: alpha_form(-1), "k must be nonnegative"),
            (lambda: lens_cutspec(0, 0), "must be a nonzero"),
            (lambda: lens_cutspec(1, 1, 0), "j must be at least 1"),
            (lambda: rotating_line_form(0), "at least one turn"),
        ],
    )
    def test_guards(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
