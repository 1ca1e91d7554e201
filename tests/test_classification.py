"""Ray counts, distinguishing witnesses, and the two certificate families."""

import math
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toruscut import angles, cli, cuts, forms, invariants
from toruscut import (
    Angle,
    AngleProfile,
    Arc,
    CCProfile,
    CutSpec,
    Direction,
    DistinguishWitness,
    DomainMismatch,
    EndpointMismatch,
    InvalidCutSpec,
    InvariantContactForm,
    MODE_FIXED,
    MODE_GL2Z,
    RadialProfile,
    add_turns,
    alpha_cutspec,
    alpha_form,
    angle_add,
    angle_compare,
    angle_sub,
    cc_count,
    cc_profile,
    detect_overtwisted,
    distinguish,
    homotopy_certificate,
    lens_cutspec,
    minimal_valid_cutspec,
    parse_spec_file,
    rescale,
    rotating_line_form,
    slice_by_ray,
    validate_cutspec,
)
from toruscut.angles import AngleForm
from toruscut.cli import _LENS_TABLE
from toruscut.errors import NonMonotone, ZeroVector
from toruscut.forms import ProfilePoint
from toruscut.invariants import PlanarZero

from call_counts import CallCounts
from float_reference import phi_float
from quarter_reference import quarter_angle
from test_angles import count_lattice
from test_forms import monotone_profiles

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


def unit_profile(start, end):
    return InvariantContactForm.unit(AngleProfile((F(0), F(1)), (start, end)))


def turns(n):
    return A(D(1, 0), n // 2) if n % 2 == 0 else A(D(-1, 0), (n - 1) // 2)


def quarter(n):
    # the angle n*pi/2
    q, r = divmod(n, 4)
    d = [D(1, 0), D(0, 1), D(-1, 0), D(0, -1)][r]
    return A(d, q + 1 if r == 3 else q)


def piecewise(breaks, vals):
    return InvariantContactForm.unit(
        AngleProfile(tuple(F(b) for b in breaks), tuple(vals))
    )


class TestCCCount:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_alpha_diagonal_rays(self, k):
        spec = alpha_cutspec(k)
        assert cc_count(spec, (-1, 1)) == k
        assert cc_count(spec, (1, -1)) == k

    def test_alpha1_horizontal_ray(self):
        assert cc_count(alpha_cutspec(1), (1, 0)) == 2

    def test_alpha0_counts(self):
        spec = alpha_cutspec(0)
        assert cc_count(spec, (1, 1)) == 1
        assert cc_count(spec, (-1, 1)) == 0

    def test_endpoints_both_count(self):
        form = unit_profile(A(D(1, 0)), A(D(1, 0), 1))
        assert cc_count(form, (1, 0)) == 2
        assert cc_count(form, (0, 1)) == 1

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidCutSpec):
            cc_count(CutSpec(alpha_form(1), D(1, 0), D(1, 0)), (1, 0))

    @given(dirs(), dirs(), st.integers(0, 3))
    def test_extra_turn_adds_one_for_every_ray(self, v, xi, extra):
        start = A(v)
        base = unit_profile(start, add_turns(start, 1 + extra))
        more = unit_profile(start, add_turns(start, 2 + extra))
        assert cc_count(more, xi) == cc_count(base, xi) + 1

    @given(st.integers(2, 9), st.integers(1, 8))
    def test_interior_bend_is_invisible(self, n, m):
        # counts see only the swept range of values, not how phi gets there
        assume(m < n)
        e = quarter(n).dir
        v1 = D(e.y, -e.x)
        a = CutSpec(piecewise((0, 1), [quarter(0), quarter(n)]), D(0, 1), v1)
        b = CutSpec(
            piecewise((0, F(1, 3), 1), [quarter(0), quarter(m), quarter(n)]),
            D(0, 1),
            v1,
        )
        assert validate_cutspec(a) == [] and validate_cutspec(b) == []
        assert distinguish(a, b) is None
        for xi in [(1, 0), (2, 1), (-1, 1), (0, -1), (3, -5)]:
            assert cc_count(a, xi) == cc_count(b, xi)


class TestCCProfile:
    def test_alpha1_arcs(self):
        prof = cc_profile(alpha_cutspec(1))
        assert (prof.min_count, prof.max_count) == (1, 2)
        assert len(prof.arcs) == 2
        first, second = prof.arcs
        assert first.count == 2 and second.count == 1
        assert angle_compare(first.start, A(D(1, 0))) == 0
        assert angle_compare(first.end, A(D(0, 1))) == 0
        assert angle_compare(first.span, A(D(0, 1))) == 0

    def test_alpha0_arcs(self):
        prof = cc_profile(alpha_cutspec(0))
        assert (prof.min_count, prof.max_count) == (0, 1)
        assert [a.count for a in prof.arcs] == [1, 0]

    def test_degenerate_full_turn_single_arc(self):
        prof = cc_profile(unit_profile(A(D(1, 0)), A(D(1, 0), 1)))
        assert len(prof.arcs) == 1
        assert prof.arcs[0].count == 1
        assert (prof.min_count, prof.max_count) == (1, 2)

    @given(dirs(), dirs(), st.integers(0, 4))
    def test_arc_sum_is_sweep(self, v, w, extra):
        lo = A(v)
        hi = A(w, extra)
        if angle_compare(hi, lo) <= 0:
            hi = add_turns(hi, 1)
        prof = cc_profile(unit_profile(lo, hi))
        # exact identity: sum of span*count telescopes to the sweep
        acc = A(D(1, 0))
        for arc in prof.arcs:
            for _ in range(arc.count):
                acc = angle_add(acc, arc.span)
        assert angle_compare(acc, prof.swept) == 0

    @given(dirs(), dirs(), st.integers(0, 4), dirs())
    def test_profile_matches_pointwise_count(self, v, w, extra, xi):
        lo = A(v)
        hi = A(w, extra)
        if angle_compare(hi, lo) <= 0:
            hi = add_turns(hi, 1)
        form = unit_profile(lo, hi)
        prof = cc_profile(form)
        n = cc_count(form, xi)
        assert prof.min_count <= n <= prof.max_count

    @given(dirs(), dirs(), st.integers(0, 4))
    def test_adjacent_counts_differ_by_at_most_one(self, v, w, extra):
        lo = A(v)
        hi = A(w, extra)
        if angle_compare(hi, lo) <= 0:
            hi = add_turns(hi, 1)
        prof = cc_profile(unit_profile(lo, hi))
        counts = [a.count for a in prof.arcs]
        for x, y in zip(counts, counts[1:]):
            assert abs(x - y) <= 1


class TestDistinguish:
    def test_alpha_pair_fixed_action(self):
        wit = distinguish(alpha_cutspec(1), alpha_cutspec(2))
        assert wit is not None and wit.mode == MODE_FIXED
        a, b = alpha_cutspec(1), alpha_cutspec(2)
        assert cc_count(a, wit.xi_plus) == wit.counts_plus[0]
        assert cc_count(b, wit.xi_plus) == wit.counts_plus[1]
        assert wit.counts_plus[0] != wit.counts_plus[1]
        assert cc_count(a, wit.xi_minus) == wit.counts_minus[0]
        assert cc_count(b, -wit.xi_minus) == wit.counts_minus[1]
        assert wit.counts_minus[0] != wit.counts_minus[1]

    def test_diagonal_ray_distinguishes_alpha_pair_directly(self):
        # the ray through (-1,1) separates alpha_1 from alpha_2 in both
        # orientation cases
        a, b = alpha_cutspec(1), alpha_cutspec(2)
        assert cc_count(a, (-1, 1)) == 1
        assert cc_count(b, (-1, 1)) == 2
        assert cc_count(b, (1, -1)) == 2

    def test_same_spec_indistinguishable(self):
        for k in range(4):
            assert distinguish(alpha_cutspec(k), alpha_cutspec(k)) is None
            assert distinguish(alpha_cutspec(k), alpha_cutspec(k), MODE_GL2Z) is None

    def test_gl2z_mode_uses_summaries(self):
        wit = distinguish(alpha_cutspec(1), alpha_cutspec(2), MODE_GL2Z)
        assert wit is not None and wit.mode == MODE_GL2Z
        assert wit.summary_a == (1, 2)
        assert wit.summary_b == (2, 3)
        assert wit.xi_minus is None
        ca = cc_count(alpha_cutspec(1), wit.xi_plus)
        cb = cc_count(alpha_cutspec(2), wit.xi_plus)
        assert (ca, cb) == wit.counts_plus and ca != cb

    @pytest.mark.parametrize("k,l", [(k, l) for k in range(1, 5) for l in range(k + 1, 5)])
    def test_all_alpha_pairs_distinguished(self, k, l):
        assert distinguish(alpha_cutspec(k), alpha_cutspec(l)) is not None
        assert distinguish(alpha_cutspec(k), alpha_cutspec(l), MODE_GL2Z) is not None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            distinguish(alpha_cutspec(1), alpha_cutspec(2), "sideways")

    def test_queries_do_not_revalidate(self, monkeypatch):
        # validity is decided when a CutSpec is built; queries only read it
        a, b = alpha_cutspec(3), alpha_cutspec(7)
        calls = []
        original = cuts._boundary_checks

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cuts, "_boundary_checks", counted)
        for mode in (MODE_FIXED, MODE_GL2Z):
            assert distinguish(a, b, mode) is not None
        assert calls == []

    @given(dirs(), dirs(), st.integers(0, 40))
    def test_none_is_honest_on_sampled_rays(self, v0, v1, seed):
        # lifting both endpoint values by a whole turn translates the swept
        # window without changing any count, so distinguish must return
        # None, and sampled rays must back that up
        a = minimal_valid_cutspec(v0, v1)
        phi = a.form.phi
        lifted = AngleProfile(
            (F(0), F(1)),
            (add_turns(phi.values[0], 1), add_turns(phi.values[-1], 1)),
        )
        b = CutSpec(InvariantContactForm.unit(lifted), v0, v1)
        assert distinguish(a, b) is None
        rng = random.Random(seed)
        for _ in range(20):
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            if (x, y) == (0, 0):
                continue
            xi = D(*D.reduced(x, y).as_tuple())
            assert cc_count(a, xi) == cc_count(b, xi)

    @given(dirs(), dirs())
    def test_extra_turn_always_distinguished(self, v0, v1):
        a = minimal_valid_cutspec(v0, v1)
        phi = a.form.phi
        b = CutSpec(
            InvariantContactForm.unit(
                AngleProfile(
                    (F(0), F(1)), (phi.values[0], add_turns(phi.values[-1], 1))
                )
            ),
            v0,
            v1,
        )
        wit = distinguish(a, b)
        assert wit is not None
        assert wit.counts_plus[1] == wit.counts_plus[0] + 1


# -- the enumerating distinguish, kept as the reference ----------------------

_EIGHT = [D(1, 0), D(1, 1), D(0, 1), D(-1, 1), D(-1, 0), D(-1, -1), D(0, -1), D(1, -1)]


def reference_candidates(*specs):
    """Every candidate ray: the standard eight, the endpoint directions and
    their negatives, and one vector-sum representative per gap, sorted by
    angle."""
    ends = set(_EIGHT)
    for spec in specs:
        phi = invariants._phi_of(spec)
        for v in (phi.values[0], phi.values[-1]):
            ends.update((v.dir, -v.dir))
    ordered = sorted(ends, key=A)
    out = list(ordered)
    for d1, d2 in zip(ordered, ordered[1:] + ordered[:1]):
        out.append(D.reduced(d1.x + d2.x, d1.y + d2.y))
    return sorted(out, key=A)


def reference_cc_count(spec, xi):
    """The ray count as one lattice count: the representatives of Arg(xi)
    mod 2 pi in the swept interval [lo, hi], both ends included."""
    lo, hi = invariants._phi_of(spec).value_bounds()
    return count_lattice(angles.direction_angle(xi), lo, hi)


def reference_cc_profile(spec):
    """The count profile read off the sweep: q = floor(sweep / 2 pi) whole
    turns, and the partial arc rho from lo's direction to hi's."""
    lo, hi = invariants._phi_of(spec).value_bounds()
    swept = angles.angle_sub(hi, lo)
    q = swept.floor_ceil()[0] // 2
    c_lo, c_hi = A(lo.dir), A(hi.dir)
    rho = angles.angle_sub(c_hi, c_lo)
    if angle_compare(rho, angles.ZERO_ANGLE) < 0:
        rho = add_turns(rho, 1)
    full = add_turns(angles.ZERO_ANGLE, 1)
    if rho == angles.ZERO_ANGLE:
        arcs = (Arc(c_lo, c_lo, full, q),)
    else:
        arcs = (Arc(c_lo, c_hi, rho, q + 1), Arc(c_hi, c_lo, angles.angle_sub(full, rho), q))
    return CCProfile(arcs=arcs, min_count=q, max_count=q + 1, swept=swept)


def reference_distinguish(a, b, mode):
    """The enumerating algorithm: full count profiles and one lattice count
    per candidate ray."""
    pa, pb = reference_cc_profile(a), reference_cc_profile(b)
    sa, sb = (pa.min_count, pa.max_count), (pb.min_count, pb.max_count)
    if mode == MODE_GL2Z:
        if sa == sb:
            return None
        for xi in reference_candidates(a, b):
            ca, cb = reference_cc_count(a, xi), reference_cc_count(b, xi)
            if ca != cb:
                return DistinguishWitness(mode, xi, (ca, cb), None, None, sa, sb)
        return None
    plus = minus = None
    for xi in reference_candidates(a, b):
        ca = reference_cc_count(a, xi)
        if plus is None:
            cb = reference_cc_count(b, xi)
            if ca != cb:
                plus = (xi, (ca, cb))
        if minus is None:
            cbn = reference_cc_count(b, -xi)
            if ca != cbn:
                minus = (xi, (ca, cbn))
        if plus and minus:
            return DistinguishWitness(mode, *plus, *minus, sa, sb)
    return None


def assert_matches_reference(a, b):
    for mode in (MODE_FIXED, MODE_GL2Z):
        assert distinguish(a, b, mode) == reference_distinguish(a, b, mode)
    sides = invariants._side(a), invariants._side(b)
    pairs = list(invariants._critical_directions(*sides))
    candidates = [xi for xi, _ in pairs]
    assert candidates == reference_candidates(a, b)
    assert all(neg == -xi for xi, neg in pairs)
    for spec, side in zip((a, b), sides):
        for xi in candidates:
            assert invariants._arc_count(side, xi) == reference_cc_count(spec, xi)
            assert invariants._arc_count(side, -xi) == reference_cc_count(spec, -xi)


def wide_dirs():
    coord = st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63))
    return (
        st.tuples(coord, coord)
        .filter(lambda v: v != (0, 0))
        .map(lambda v: D.reduced(*v))
    )


def many_turns():
    return st.one_of(st.integers(-2, 2), st.integers(-(10**30), 10**30))


@st.composite
def valid_cut_data(draw):
    """minimal_valid_cutspec lifted by whole turns at both ends, with extra
    turns swept, in either orientation."""
    v0 = draw(wide_dirs())
    v1 = draw(st.one_of(wide_dirs(), st.just(-v0), st.just(v0)))
    phi = minimal_valid_cutspec(v0, v1).form.phi
    lift = draw(many_turns())
    extra = abs(draw(many_turns()))
    form = InvariantContactForm.unit(
        AngleProfile(
            (F(0), F(1)),
            (add_turns(phi.values[0], lift), add_turns(phi.values[-1], lift + extra)),
        )
    )
    if draw(st.booleans()):
        return CutSpec(form.reversed(), v1, v0)
    return CutSpec(form, v0, v1)


@st.composite
def bare_profiles(draw):
    """Two-point angle profiles with arbitrary distinct ends, bare or as
    unit forms."""
    start = A(draw(wide_dirs()), draw(many_turns()))
    end = A(draw(st.one_of(wide_dirs(), st.just(start.dir))), draw(many_turns()))
    assume(angle_compare(start, end) != 0)
    phi = AngleProfile((F(0), F(1)), (start, end))
    return InvariantContactForm.unit(phi) if draw(st.booleans()) else phi


class TestDistinguishMatchesEnumeration:
    @pytest.mark.parametrize("k", range(21))
    def test_alpha_pairs(self, k):
        a = alpha_cutspec(k)
        for l in range(21):
            assert_matches_reference(a, alpha_cutspec(l))

    def test_lens_table(self):
        specs = [lens_cutspec(k, l, j) for k, l in _LENS_TABLE for j in (1, 2, 3)]
        for a in specs:
            for b in specs:
                assert_matches_reference(a, b)

    @settings(max_examples=200)
    @given(valid_cut_data(), valid_cut_data())
    def test_valid_cut_data(self, a, b):
        assert_matches_reference(a, b)
        assert_matches_reference(a, a)

    @given(bare_profiles(), bare_profiles())
    def test_bare_forms_and_profiles(self, a, b):
        assert_matches_reference(a, b)

    def test_reads_each_side_once(self, capsys):
        # one value_bounds and one _arg_compare per side for q; no angle
        # arithmetic and no count profile in distinguish or cc_count, and no
        # floor of a sweep in cc_profile either.  Entries are counted on the
        # code objects, so an alias, a method or a sort key counts too
        calls = CallCounts(
            (invariants, "cc_profile"),
            (invariants, "cc_count"),
            (angles, "_arg_compare"),
            (angles, "angle_sub"),
            (angles.Angle, "floor_ceil"),
            (angles.AngleForm, "floor_ceil"),
            (Direction, "reduced"),
            (invariants, "distinguish"),
        )
        huge, skew = alpha_cutspec(10**30), minimal_valid_cutspec((3, -5), (7, 2))
        standard_ends = [
            (alpha_cutspec(1), alpha_cutspec(2)),
            (alpha_cutspec(3), alpha_cutspec(3)),
            (huge, huge),
        ]
        for a, b in standard_ends + [(huge, skew)]:
            for mode in (MODE_FIXED, MODE_GL2Z):
                calls.clear()
                with calls:
                    distinguish(a, b, mode)
                assert calls["cc_profile"] == calls["cc_count"] == 0
                assert calls["angle_sub"] == calls["floor_ceil"] == 0
                if (a, b) in standard_ends:
                    assert calls["_arg_compare"] == 2  # the two q, no ring scan
                    assert calls["reduced"] == 0  # the standard candidates are a constant
                else:
                    # skew's two ends and their negatives are not standard:
                    # the two q, and one sort of a ring of 12 directions, at
                    # most 12 * ceil(log2 12) comparisons (2 + 30 calls today)
                    assert calls["_arg_compare"] <= 2 + 12 * 4
        for spec in (alpha_cutspec(1), huge, skew):
            calls.clear()
            with calls:
                for xi in ((1, 0), (4, -2), D(-1, 1), D(7, 2)):
                    invariants.cc_count(spec, xi)
            assert calls["angle_sub"] == calls["floor_ceil"] == 0
            calls.clear()
            with calls:
                invariants.cc_profile(spec)
            assert calls["floor_ceil"] == 0
        # reproduce-paper searches each of its 190 pairs once, for both modes
        calls.clear()
        with calls:
            assert cli.main(["reproduce-paper", "--kmax", "20"]) == 0
        capsys.readouterr()
        assert calls["distinguish"] == 20 * 19 // 2

    @given(
        st.one_of(st.just(angles.NEG_X), wide_dirs()),
        st.one_of(st.just(angles.NEG_X), wide_dirs()),
        many_turns(),
        many_turns(),
        st.booleans(),
    )
    def test_integer_q_is_floor_of_sweep(self, d0, d1, n0, n1, same_dir):
        lo, hi = A(d0, n0), A(d0 if same_dir else d1, n1)
        assume(lo != hi)  # a profile of zero sweep is not contact
        if angle_compare(lo, hi) > 0:
            lo, hi = hi, lo
        q, lo_dir, hi_dir = invariants._side(AngleProfile((F(0), F(1)), (lo, hi)))
        assert (lo_dir, hi_dir) == (lo.dir, hi.dir)
        assert q == angles.angle_sub(hi, lo).floor_ceil()[0] // 2

    def test_standard_ring_is_sorted(self):
        ring = invariants._STANDARD_DIRECTIONS
        assert set(ring) == {
            D(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if (x, y) != (0, 0)
        }
        for d, e in zip(ring, ring[1:]):
            assert angles._arg_compare(d, e) < 0


def assert_gl2z_reads_off_fixed_witness(a, b):
    """modulo-GL2Z is None exactly when the fixed-action search finds no
    witness or finds one whose summaries are equal, and otherwise carries
    the same summaries."""
    w, g = distinguish(a, b, MODE_FIXED), distinguish(a, b, MODE_GL2Z)
    assert (g is None) == (w is None or w.summary_a == w.summary_b)
    if g is not None:
        assert (g.summary_a, g.summary_b) == (w.summary_a, w.summary_b)


class TestGL2ZFromFixedWitness:
    @settings(max_examples=200)
    @given(valid_cut_data(), valid_cut_data())
    def test_valid_cut_data(self, a, b):
        assert_gl2z_reads_off_fixed_witness(a, b)

    @given(bare_profiles(), bare_profiles())
    def test_bare_forms_and_profiles(self, a, b):
        assert_gl2z_reads_off_fixed_witness(a, b)

    def test_alpha_pairs(self):
        specs = [alpha_cutspec(k) for k in range(41)]
        for a in specs:
            for b in specs:
                assert_gl2z_reads_off_fixed_witness(a, b)

    def test_lens_table(self):
        specs = [lens_cutspec(k, l, j) for k, l in _LENS_TABLE for j in (1, 2, 3)]
        for a in specs:
            for b in specs:
                assert_gl2z_reads_off_fixed_witness(a, b)


def xis():
    """Rays as Directions or as integer pairs, primitive or not."""
    coord = st.one_of(st.integers(-4, 4), st.integers(-(2**63), 2**63))
    pairs = st.tuples(coord, coord).filter(lambda v: v != (0, 0))
    return st.one_of(wide_dirs(), pairs)


class TestCountsMatchLatticeReference:
    """cc_count and cc_profile read the whole turns and an arc test off the
    side; the reference counts lattice points in the swept interval."""

    @staticmethod
    def check(spec, xi):
        prof, ref = cc_profile(spec), reference_cc_profile(spec)
        assert prof.arcs == ref.arcs
        assert (prof.min_count, prof.max_count) == (ref.min_count, ref.max_count)
        assert prof.swept == ref.swept
        lo, hi = invariants._phi_of(spec).value_bounds()
        ends = [lo.dir, hi.dir, -lo.dir, -hi.dir]
        scaled = [(3 * d.x, 3 * d.y) for d in ends]
        for ray in [xi, (4, -2), *ends, *scaled, *(d.as_tuple() for d in ends)]:
            assert cc_count(spec, ray) == reference_cc_count(spec, ray)

    @settings(max_examples=200)
    @given(valid_cut_data(), xis())
    def test_valid_cut_data(self, spec, xi):
        self.check(spec, xi)

    @settings(max_examples=200)
    @given(bare_profiles(), xis())
    def test_bare_forms_and_profiles(self, phi, xi):
        self.check(phi, xi)

    @given(wide_dirs(), many_turns(), st.integers(0, 3), st.booleans(), xis())
    def test_one_direction_arcs(self, d, turns, extra, reverse, xi):
        start, end = A(d, turns), A(d, turns + 1 + extra)
        phi = AngleProfile((F(0), F(1)), (end, start) if reverse else (start, end))
        self.check(phi, xi)
        assert len(cc_profile(phi).arcs) == 1

    def test_paper_families(self):
        specs = [alpha_cutspec(k) for k in (0, 1, 2, 10**30)]
        specs += [lens_cutspec(k, l, j) for k, l in _LENS_TABLE for j in (1, 2, 10**30)]
        for spec in specs:
            self.check(spec, (-1, 1))

    def test_invalid_spec_raises_before_zero_ray(self):
        bad = CutSpec(alpha_form(1), D(1, 0), D(1, 0))
        with pytest.raises(InvalidCutSpec):
            cc_count(bad, (0, 0))
        with pytest.raises(ZeroVector):
            cc_count(alpha_cutspec(1), (0, 0))


class TestRescaleInvariance:
    def scaled(self, spec, num=3, den=2):
        factor = RadialProfile.from_values(
            [F(0), F(1, 2), F(1)], [F(num, den), F(1), F(num, den)]
        )
        return CutSpec(rescale(spec.form, factor), spec.v0, spec.v1)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_counts_and_certificates_unchanged(self, k):
        spec = alpha_cutspec(k)
        other = self.scaled(spec)
        for xi in [(1, 0), (0, 1), (-1, 1), (2, -3)]:
            assert cc_count(spec, xi) == cc_count(other, xi)
        assert cc_profile(spec) == cc_profile(other)
        ca, cb = detect_overtwisted(spec), detect_overtwisted(other)
        assert (ca is None) == (cb is None)
        if ca is not None:
            assert ca.point == cb.point and ca.target == cb.target

    def test_rescaled_spec_not_distinguished_from_itself(self):
        spec = alpha_cutspec(2)
        assert distinguish(spec, self.scaled(spec)) is None
        assert distinguish(spec, self.scaled(spec), MODE_GL2Z) is None


class TestOvertwisted:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_alpha_certificates(self, k):
        cert = detect_overtwisted(alpha_cutspec(k))
        assert cert is not None
        assert cert.point.t_fraction() == F(2, 4 * k + 1)
        assert angle_compare(cert.target, A(D(-1, 0))) == 0

    def test_certificate_equation_holds_exactly(self):
        for k in (1, 2, 5):
            spec = alpha_cutspec(k)
            cert = detect_overtwisted(spec)
            t = cert.point.t_fraction()
            assert F(0) < t < F(1)
            assert spec.form.phi.compare_at(t, cert.target) == 0

    def test_alpha0_has_no_disk(self):
        assert detect_overtwisted(alpha_cutspec(0)) is None

    def test_half_turn_slices_have_no_disk(self):
        window = (turns(-3), turns(3))
        for spec in slice_by_ray(rotating_line_form(3), (0, 1), window):
            assert detect_overtwisted(spec) is None

    def test_strictly_beyond_half_turn_has_disk(self):
        just_over = unit_profile(A(D(1, 0)), A(D(-1, -1), 1))
        assert detect_overtwisted(just_over) is not None
        exactly = unit_profile(A(D(1, 0)), A(D(-1, 0), 0))
        assert detect_overtwisted(exactly) is None
        # decreasing: 0 -> -5 pi/4 and 0 -> -pi - Arg(5, 1) have a disk at
        # phi = -pi, 0 -> -pi has none
        for end in (A(D(-1, 1), -1), A(D(-5, 1), -1)):
            form = unit_profile(A(D(1, 0)), end)
            cert = detect_overtwisted(form)
            assert cert is not None and cert.target == turns(-1)
            assert 0 < cert.point.t_float() < 1
        assert detect_overtwisted(unit_profile(A(D(1, 0)), turns(-1))) is None

    @pytest.mark.parametrize("orientation", (1, -1))
    @settings(derandomize=True, max_examples=200)
    @given(data=st.data())
    def test_disk_exactly_when_sweep_exceeds_half_turn(self, orientation, data):
        phi = data.draw(monotone_profiles(orientation=orientation))
        swept = angle_sub(phi.values[-1], phi.values[0])
        beyond = angle_compare(swept, turns(1)) > 0 or angle_compare(swept, turns(-1)) < 0
        assert (detect_overtwisted(InvariantContactForm.unit(phi)) is not None) == beyond

    def test_decreasing_profile_certificate(self):
        form = alpha_form(1).reversed()
        cert = detect_overtwisted(form)
        assert cert is not None
        t = cert.point.t_fraction()
        assert form.phi.compare_at(t, cert.target) == 0


class TestHomotopyCertificate:
    def test_alpha0_alpha1_single_zero(self):
        cert = homotopy_certificate(alpha_cutspec(0), alpha_cutspec(1))
        assert cert.zero_intervals == ()
        assert len(cert.zeros) == 1
        z = cert.zeros[0]
        assert z.point.t_fraction() == F(1, 2)
        assert z.odd_multiple % 2 == 1

    def test_identical_forms_no_zeros(self):
        cert = homotopy_certificate(alpha_cutspec(2), alpha_cutspec(2))
        assert cert.zeros == () and cert.zero_intervals == ()

    def test_endpoint_mismatch(self):
        other = minimal_valid_cutspec((0, 1), (0, 1))
        with pytest.raises(EndpointMismatch) as exc:
            homotopy_certificate(alpha_cutspec(0), other)
        assert exc.value.end == 1

    def test_domain_mismatch(self):
        other = alpha_form(1).reparametrized(0, 2)
        with pytest.raises(DomainMismatch, match="forms must share their parameter domain"):
            homotopy_certificate(alpha_form(1), other)

    def test_invalid_spec_rejected(self):
        # as every other query: an invalid cut datum raises, on either side
        bad = CutSpec(alpha_form(1), D(1, 0), D(1, 0))
        for a, b in ((bad, alpha_cutspec(2)), (alpha_cutspec(2), bad)):
            with pytest.raises(InvalidCutSpec):
                homotopy_certificate(a, b)

    def test_constant_difference_interval(self):
        # both profiles rise, and their difference is pi on [1/3, 2/3]
        a = piecewise((0, F(1, 3), F(2, 3), 1), [quarter(0), quarter(3), quarter(4), quarter(6)])
        b = piecewise((0, F(1, 3), F(2, 3), 1), [quarter(0), quarter(1), quarter(2), quarter(6)])
        cert = homotopy_certificate(a, b)
        assert cert.zeros == ()
        assert cert.zero_intervals == ((F(1, 3), F(2, 3)),)

    def test_adjacent_constant_segments_merge(self):
        a = piecewise(
            (0, F(1, 4), F(1, 2), F(3, 4), 1),
            [A(D(1, 0)), A(D(0, -1), 1), A(D(1, -1), 1), A(D(1, 0), 1), A(D(-1, 0), 1)],
        )
        b = piecewise(
            (0, F(1, 4), F(1, 2), F(3, 4), 1),
            [A(D(1, 0)), A(D(0, 1)), A(D(-1, 1)), A(D(-1, 0)), A(D(-1, 0), 1)],
        )
        cert = homotopy_certificate(a, b)
        assert cert.zeros == ()
        assert cert.zero_intervals == ((F(1, 4), F(3, 4)),)

    def test_merged_breakpoints_from_both_forms(self):
        a = piecewise(
            (0, F(1, 4), F(3, 4), 1),
            [A(D(1, 0)), A(D(0, -1), 1), A(D(1, 0), 1), A(D(-1, 0), 1)],
        )
        b = piecewise(
            (0, F(1, 4), F(1, 2), F(3, 4), 1),
            [A(D(1, 0)), A(D(0, 1)), A(D(-1, 1)), A(D(-1, 0)), A(D(-1, 0), 1)],
        )
        cert = homotopy_certificate(a, b)
        assert cert.zero_intervals == ((F(1, 4), F(3, 4)),)

    def test_breakpoint_crossing_counted_once(self):
        a = piecewise((0, F(1, 2), 1), [quarter(0), quarter(3), quarter(6)])
        b = piecewise((0, F(1, 2), 1), [quarter(0), quarter(1), quarter(6)])
        cert = homotopy_certificate(a, b)
        assert [(z.point.t_fraction(), z.odd_multiple) for z in cert.zeros] == [
            (F(1, 2), 1)
        ]

    @pytest.mark.parametrize("k,l", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    def test_interpolation_never_vanishes_on_grid(self, k, l):
        a, b = alpha_form(k), alpha_form(l)
        cert = homotopy_certificate(a, b)
        loci = [float(z.point.t_fraction()) for z in cert.zeros]
        n = 80
        min_h = 2.0
        min_h_at_loci = 2.0
        for i in range(n + 1):
            t = i / n
            va, vb = phi_float(a.phi, t), phi_float(b.phi, t)
            for jdx in range(n + 1):
                s = jdx / n
                x = (1 - s) * math.cos(va) + s * math.cos(vb)
                y = (1 - s) * math.sin(va) + s * math.sin(vb)
                h = math.hypot(math.hypot(x, y), s * (1 - s))
                min_h = min(min_h, h)
        for t in loci:
            va, vb = phi_float(a.phi, t), phi_float(b.phi, t)
            x = 0.5 * (math.cos(va) + math.cos(vb))
            y = 0.5 * (math.sin(va) + math.sin(vb))
            h = math.hypot(math.hypot(x, y), 0.25)
            min_h_at_loci = min(min_h_at_loci, h)
        assert min_h > 0
        assert min_h >= 0.25 - 1e-9
        if loci:
            assert min_h_at_loci == pytest.approx(0.25, abs=1e-9)

    def test_zero_count_matches_float_scan(self):
        # crossings of psi = phi_a - phi_b through odd multiples of pi,
        # counted by a dense sign scan of cos((psi - pi)/2)... simpler:
        # count sign changes of cos(psi/2 - pi/2) = sin(psi/2)? use
        # parity: planar part vanishes iff cos(psi) = -1; scan the dip
        # of 1 + cos(psi) below tolerance and cluster
        a, b = alpha_form(0), alpha_form(3)
        cert = homotopy_certificate(a, b)
        n = 200001
        hits = 0
        prev_sign = None
        for i in range(n):
            t = i / (n - 1)
            psi = phi_float(a.phi, t) - phi_float(b.phi, t)
            s = 1 if math.cos(psi / 2) > 0 else -1 if math.cos(psi / 2) < 0 else 0
            if prev_sign is not None and s != prev_sign:
                hits += 1
            prev_sign = s
        assert len(cert.zeros) == hits


# Three-breakpoint profiles 0 -> inner -> pi/2 + 2 pi with inner values at
# t = 1/p and t = 1/q: the inner directions of norm 5 and their turn
# offsets of the exact-ties benchmark workload.
LADDER_VARIANTS = (
    ((2, 1), (1, 2), 0, 1),
    ((1, 2), (2, 1), 1, 0),
    ((2, 1), (1, 2), 1, 0),
    ((1, 2), (2, 1), 0, 1),
)


def ladder_pair(p, q, variant):
    za, zb, ma, mb = variant
    first, last = A(D(1, 0)), A(D(0, 1), 1)
    a = piecewise((0, F(1, p), 1), [first, A(D(*za), ma), last])
    b = piecewise((0, F(1, q), 1), [first, A(D(*zb), mb), last])
    return a, b


def scan_crossings(a, b, breaks, per_segment=2000):
    """Grid brackets (t, t') where phi_a - phi_b crosses an odd multiple of
    pi: sign changes of cos(psi / 2) on a grid refined in every segment."""
    ts = sorted(
        {
            float(lo) + (float(hi) - float(lo)) * i / per_segment
            for lo, hi in zip(breaks, breaks[1:])
            for i in range(per_segment + 1)
        }
    )
    out, prev = [], None
    for t in ts:
        c = math.cos((phi_float(a.phi, t) - phi_float(b.phi, t)) / 2)
        s = (c > 0) - (c < 0)
        if prev is not None and s != prev[1]:
            out.append((prev[0], t))
        prev = (t, s)
    return out


def oracle_zeros(a, b):
    """(t, odd multiple) where phi_a - phi_b crosses an odd multiple of pi,
    in t order, from 200-digit values at the merged breakpoints; a hit on
    a shared breakpoint belongs to the earlier segment."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 200

    def mpq(x):
        return mpmath.mpf(x.numerator) / x.denominator

    def value(phi, u):
        i = max(j for j in range(len(phi.breaks) - 1) if phi.breaks[j] <= u)
        v0, v1 = (
            mpmath.atan2(v.dir.y, v.dir.x) + 2 * mpmath.pi * v.turns
            for v in phi.values[i : i + 2]
        )
        return v0 + (v1 - v0) * mpq((u - phi.breaks[i]) / (phi.breaks[i + 1] - phi.breaks[i]))

    merged = sorted(set(a.phi.breaks) | set(b.phi.breaks))
    psi = [value(a.phi, u) - value(b.phi, u) for u in merged]
    out = []
    for seg, (u0, u1) in enumerate(zip(merged, merged[1:])):
        d0, d1 = psi[seg], psi[seg + 1]
        lo, hi = (x / mpmath.pi for x in sorted((d0, d1)))
        ns = range(int(mpmath.ceil((lo - 1) / 2)), int(mpmath.floor((hi - 1) / 2)) + 1)
        for m in sorted((2 * n + 1 for n in ns), reverse=d1 < d0):
            lam = (m * mpmath.pi - d0) / (d1 - d0)
            if seg == 0 or abs(lam) > 1e-150:
                out.append((mpq(u0) + mpq(u1 - u0) * lam, m))
    return out


class TestHomotopyLadder:
    @pytest.mark.parametrize("variant", LADDER_VARIANTS)
    @pytest.mark.parametrize("p,q", [(41, 43), (101, 103), (997, 991)])
    def test_zeros_match_float_scan(self, p, q, variant):
        a, b = ladder_pair(p, q, variant)
        cert = homotopy_certificate(a, b)
        assert cert.zero_intervals == ()
        crossings = scan_crossings(a, b, sorted({F(0), F(1, p), F(1, q), F(1)}))
        assert len(cert.zeros) == len(crossings) > 0
        for z, (lo, hi) in zip(cert.zeros, crossings):
            assert lo - 1e-12 <= z.point.t_float() <= hi + 1e-12
            assert z.odd_multiple % 2 == 1

    def test_tiny_span_across_pi(self):
        # psi goes from pi - 2e-20 to pi + 1e-60 on [1/3, 2/3], whose float
        # sweep estimate is exactly 0, then back to 0 on [2/3, 1]
        a = piecewise(
            (0, F(1, 3), F(2, 3), 1),
            [A(D(1, 0)), A(D(-(10**20), 1)), A(D(-(10**20 - 1), -1), 1), A(D(0, -1), 1)],
        )
        b = piecewise(
            (0, F(1, 3), F(2, 3), 1),
            [A(D(1, 0)), A(D(10**20 + 1, 1)), A(D(10**20, 1)), A(D(0, -1), 1)],
        )
        cert = homotopy_certificate(a, b)
        assert [z.odd_multiple for z in cert.zeros] == [1, 1]
        assert [z.point.segment for z in cert.zeros] == [1, 2]
        for z in cert.zeros:
            assert float(z.point.t_lo) <= z.point.t_float() <= float(z.point.t_hi)
            assert z.point.t_fraction() is None
        want = oracle_zeros(a, b)
        assert [m for _, m in want] == [1, 1]
        for z, (t, _) in zip(cert.zeros, want):
            assert abs(z.point.t_float() - float(t)) <= 2.0**-40

    def test_cost_does_not_grow_with_denominators(self, monkeypatch):
        calls = Counter()
        real = angles.angle_add

        def counted(*args):
            calls["angle_add"] += 1
            return real(*args)

        monkeypatch.setattr(angles, "angle_add", counted)
        counts = []
        for p, q in ((3, 5), (101, 103)):
            a, b = ladder_pair(p, q, LADDER_VARIANTS[0])
            calls.clear()
            homotopy_certificate(a, b)
            counts.append(calls["angle_add"])
        assert counts[0] == counts[1]

    def test_irrational_zeros_render_their_forms(self):
        a, b = ladder_pair(3, 5, LADDER_VARIANTS[0])
        zeros = homotopy_certificate(a, b).zeros
        assert [z.point.t_fraction() for z in zeros] == [None, None]
        assert [str(z.point) for z in zeros] == [
            "0 + (1/5-0)*ratio[-1*pi / -1*Arg(1,2) + 3/5*Arg(2,1) + -2*pi]",
            "1/3 + (1-1/3)*ratio[1*Arg(1,2) + -5/6*Arg(2,1) + 1*pi"
            " / 1*Arg(1,2) + -5/6*Arg(2,1) + 2*pi]",
        ]
        assert [round(z.point.t_float(), 12) for z in zeros] == [0.088344443219, 0.700969908718]


# -- the sorting and filtering zero loop, kept as the reference ---------------

_PI_FORM = AngleForm((), F(1))


def reference_homotopy(a, b):
    """(zeros, intervals) by the earlier loop: zeros keyed by (segment,
    slope * n) and sorted, then each zero with an exact t inside a zero
    interval dropped."""
    pa, pb = invariants._form_of(a).phi, invariants._form_of(b).phi
    merged = sorted(set(pa.breaks) | set(pb.breaks))
    psi = [pa.form_at(u) - pb.form_at(u) for u in merged]
    zeros, intervals = [], []
    for seg, (u0, u1) in enumerate(zip(merged, merged[1:])):
        d0, d1 = psi[seg], psi[seg + 1]
        span = d1 - d0
        slope = span.sign()
        if slope == 0:
            m = d0.pi_multiple()
            if m is not None and m.denominator == 1 and m % 2 == 1:
                if intervals and intervals[-1][1] == u0:
                    intervals[-1] = (intervals[-1][0], u1)
                else:
                    intervals.append((u0, u1))
            continue
        v_lo, v_hi = (d0, d1) if slope > 0 else (d1, d0)
        n_lo = -((_PI_FORM - v_lo).floor_ceil()[0] // 2)
        n_hi = (v_hi - _PI_FORM).floor_ceil()[0] // 2
        for n in range(n_lo, n_hi + 1):
            offset = AngleForm((), F(2 * n + 1)) - d0
            if seg > 0 and offset.sign() == 0:
                continue
            pt = ProfilePoint(seg, u0, u1, offset, span)
            zeros.append(((seg, slope * n), PlanarZero(pt, odd_multiple=2 * n + 1)))
    kept = []
    for _, z in sorted(zeros, key=lambda x: x[0]):
        t = z.point.t_fraction()
        if t is not None and any(lo <= t <= hi for lo, hi in intervals):
            continue
        kept.append(z)
    return kept, tuple(intervals)


def zero_fields(z):
    p = z.point
    return (str(p), p.t_fraction(), p.segment, p.t_lo, p.t_hi, z.odd_multiple)


def assert_homotopy_matches_reference(a, b):
    cert = homotopy_certificate(a, b)
    zeros, intervals = reference_homotopy(a, b)
    assert cert.zero_intervals == intervals
    assert [zero_fields(z) for z in cert.zeros] == [zero_fields(z) for z in zeros]


def quarter_pair(breaks, psi, steps, split_a=(), split_b=(), base=0):
    """Two increasing profiles of multiples of pi/4 on one set of
    breakpoints, whose difference is psi (in units of pi/4) at them.  b
    advances by max(0, -dpsi) + steps[i] on segment i, so both rise.  A
    segment i in split_a (or split_b) of that profile gets one more
    breakpoint, where its value is the next multiple of pi/4, so the
    merged breakpoints differ from each profile's own."""
    b = [base]
    for i, step in enumerate(steps):
        b.append(b[-1] + max(0, psi[i] - psi[i + 1]) + step)
    a = [x + d for x, d in zip(b, psi)]

    def form(vals, split):
        ts, vs = [F(breaks[0])], [vals[0]]
        for i in range(len(vals) - 1):
            if i in split and vals[i + 1] - vals[i] > 1:
                ts.append(breaks[i] + (breaks[i + 1] - breaks[i]) / (vals[i + 1] - vals[i]))
                vs.append(vals[i] + 1)
            ts.append(F(breaks[i + 1]))
            vs.append(vals[i + 1])
        return piecewise(ts, [quarter_angle(v) for v in vs])

    return form(a, split_a), form(b, split_b)


@st.composite
def quarter_pairs(draw):
    """psi drawn segment by segment as a step, a jump onto an odd multiple
    of pi or a stay; a stay on an odd multiple is a zero interval, two in a
    row are adjacent ones.  The ends of the profiles agree in direction,
    so psi starts and ends on a multiple of 2 pi."""
    psi = [8 * draw(st.integers(-3, 3))]
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("step", "odd", "stay")))
        if kind == "step":
            psi.append(psi[-1] + draw(st.integers(-160, 160)))
        elif kind == "odd":
            psi.append(4 + 8 * draw(st.integers(-12, 12)))
        else:
            psi.append(psi[-1])
    if psi[-1] % 8:
        psi.append(8 * draw(st.integers(-12, 12)))
    n = len(psi) - 1
    gaps = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    den = draw(st.integers(1, 7))
    breaks = [F(sum(gaps[:i]), den) for i in range(n + 1)]
    steps = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    segs = st.sets(st.integers(0, n - 1), max_size=n)
    a, b = quarter_pair(
        breaks, psi, steps, draw(segs), draw(segs), 8 * draw(st.integers(-2, 2))
    )
    if draw(st.booleans()):
        a, b = a.reversed(), b.reversed()
    return (b, a) if draw(st.booleans()) else (a, b)


def golden_homotopy_pairs():
    """The two spec files of every golden homotopy case that exits 0."""
    from test_golden import CASES, GOLDEN

    return sorted({
        tuple(argv[1:3])
        for name, argv in CASES.items()
        if argv[:1] == ["homotopy"] and "--help" not in argv
        and (GOLDEN / f"{name}.out").read_bytes().startswith(b"exit 0\n")
    })


class TestHomotopyMatchesReference:
    @pytest.mark.parametrize("variant", LADDER_VARIANTS)
    def test_ladder_pairs(self, variant):
        for p, q in ((3, 5), (5, 7), (7, 11), (11, 13), (13, 17), (17, 19), (19, 23),
                     (23, 29), (29, 31), (31, 37), (41, 43), (101, 103), (997, 991)):
            assert_homotopy_matches_reference(*ladder_pair(p, q, variant))

    @pytest.mark.parametrize("pair", golden_homotopy_pairs())
    def test_golden_pairs(self, pair):
        root = Path(__file__).resolve().parent.parent
        a, b = (parse_spec_file(str(root / p), validate=False) for p in pair)
        assert_homotopy_matches_reference(a, b)

    @pytest.mark.parametrize(
        "psi,split_a",
        [
            # rise onto an interval, fall off it
            ([0, 20, 20, 0], ()),
            ([0, -20, -20, 0], ()),
            # rise onto an interval, keep rising; fall onto one, keep falling
            ([0, 12, 12, 40], ()),
            ([0, -12, -12, -40], ()),
            # adjacent intervals, and an interval cut by the other profile's
            # breakpoint
            ([0, 36, 36, 36, 0], ()),
            ([0, 36, 36, 8], (1,)),
            # a zero on a breakpoint between two rising, then two falling segments
            ([0, 4, 16, 4, 0], ()),
            # an interval right after the first segment and just before the last
            ([0, 4, 4, 0], ()),
        ],
    )
    def test_drawn_shapes(self, psi, split_a):
        n = len(psi) - 1
        a, b = quarter_pair([F(i) for i in range(n + 1)], psi, [3] * n, split_a)
        for pair in ((a, b), (b, a), (a.reversed(), b.reversed())):
            assert_homotopy_matches_reference(*pair)

    @settings(max_examples=300)
    @given(quarter_pairs())
    def test_quarter_profiles(self, pair):
        assert_homotopy_matches_reference(*pair)


# -- the rule before floors and ceilings, kept as the reference --------------


def slope_rule_ranges(x, floor, ceil, slopes):
    """The earlier `_lattice_ranges`: per segment the integers in (x[k],
    x[k + 1]] ascending where slopes[k] > 0, in [x[k + 1], x[k]) descending
    where it is < 0, none where it is 0, the first segment also closed at
    x[0]; x[k] read once along a run of one slope."""
    out, start, prev = [], 0, 0
    for k, s in enumerate(slopes):
        if s and s != prev:
            first, last = (ceil, floor) if s > 0 else (floor, ceil)
            start = first(x[0]) if k == 0 else last(x[k]) + s
        stop = last(x[k + 1]) + s if s else start
        out.append(range(start, stop, s or 1))
        start, prev = stop, s
    return out


def slope_rule_homotopy(a, b):
    """(zeros, intervals) by the earlier certificate: every span's sign, a
    zero interval where the span is 0 and psi an odd multiple of pi
    (`pi_multiple`), and x = (psi - pi) / 2pi floored in half turns.  A zero
    is (str(point), odd multiple, segment, t_lo, t_hi)."""
    pa, pb = invariants._form_of(a).phi, invariants._form_of(b).phi
    merged = sorted(set(pa.breaks) | set(pb.breaks))
    psi = [pa.form_at(u) - pb.form_at(u) for u in merged]
    spans = [d1 - d0 for d0, d1 in zip(psi, psi[1:])]
    slopes = [span.sign() for span in spans]
    interval = [
        not s and (m := d.pi_multiple()) is not None and m % 2 == 1
        for s, d in zip(slopes, psi)
    ] + [False]
    ranges = slope_rule_ranges(
        psi,
        lambda d: (d - _PI_FORM).floor_ceil()[0] // 2,
        lambda d: -((_PI_FORM - d).floor_ceil()[0] // 2),
        slopes,
    )
    zeros, intervals = [], []
    for k, (u0, u1, d0, span, ns) in enumerate(zip(merged, merged[1:], psi, spans, ranges)):
        if interval[k]:
            if interval[k - 1]:
                intervals[-1] = (intervals[-1][0], u1)
            else:
                intervals.append((u0, u1))
            continue
        if interval[k + 1]:
            ns = ns[:-1]
        for n in ns:
            point = ProfilePoint(k, u0, u1, _PI_FORM * (2 * n + 1) - d0, span)
            zeros.append((str(point), 2 * n + 1, k, u0, u1))
    return zeros, tuple(intervals)


def _inner_breaks(n):
    fracs = st.builds(F, st.integers(1, 11), st.just(12))
    return st.sets(fracs, min_size=n, max_size=n).map(sorted)


def _with_ends(inner, first_dir, last_dir, rising):
    """inner (sorted, distinct) between two angles on first_dir and
    last_dir whose turns put them beyond every inner value, in the
    profile's orientation."""
    t = [v.turns for v in inner] or [0]
    lo, hi = min(t) - 1, max(t) + 1
    vals = [A(first_dir, lo), *inner, A(last_dir, hi)]
    if not rising:
        vals = [A(first_dir, hi), *inner[::-1], A(last_dir, lo)]
    return vals


@st.composite
def parent_rule_pairs(draw):
    """Pairs whose end directions agree, each profile rising or falling.

    free: inner values from pi/4 and other directions, each profile on
    its own breakpoints or both on a's.  odd: b = a + j pi at a's
    breakpoints, j even at the ends and monotone with a, so psi stays on
    odd multiples of pi over some segments (zero intervals, adjacent ones
    among them).  even: b = a + 2 pi m with b's inner directions nudged by
    about 10^-1 to 10^-30, so psi sits on or near even multiples of pi.  A zero
    interval on the first segment cannot occur: psi starts on an even
    multiple of pi."""
    angle = st.builds(A, dirs(3), st.integers(-2, 2))
    kind = draw(st.sampled_from(("free", "odd", "odd", "even")))
    inner_a = sorted(set(draw(st.lists(angle, min_size=1 + (kind != "free"), max_size=5))))
    a_rises = draw(st.booleans())
    a_vals = _with_ends(inner_a, draw(dirs(3)), draw(dirs(3)), a_rises)
    a_breaks = [F(0), *draw(_inner_breaks(len(a_vals) - 2)), F(1)]
    a = piecewise(a_breaks, a_vals)
    if kind == "free":
        inner_b = sorted(set(draw(st.lists(angle, max_size=4))))
        b_vals = _with_ends(inner_b, a_vals[0].dir, a_vals[-1].dir, draw(st.booleans()))
        if len(b_vals) == len(a_vals) and draw(st.booleans()):
            b_breaks = a_breaks
        else:
            b_breaks = [F(0), *draw(_inner_breaks(len(b_vals) - 2)), F(1)]
        return a, piecewise(b_breaks, b_vals)
    # j in 0..3 at the inner breakpoints, odd ones first, sorted with a's orientation
    odd_first = st.sampled_from((1, 3, 2, 0))
    inner_j = sorted(draw(st.lists(odd_first, min_size=len(inner_a), max_size=len(inner_a))))
    j = [n if a_rises else -n for n in (0, *inner_j, 4)]
    if kind == "odd":
        return a, piecewise(a_breaks, [angles.add_half_turns(v, n) for v, n in zip(a_vals, j)])
    scale = 10 ** draw(st.integers(1, 30))
    b_vals = [add_turns(v, n // 2) for v, n in zip(a_vals, j)]
    nudged = [
        A(D.reduced(v.dir.x * scale + draw(st.integers(-1, 1)), v.dir.y * scale), v.turns)
        for v in b_vals[1:-1]
    ]
    try:
        return a, piecewise(a_breaks, [b_vals[0], *nudged, b_vals[-1]])
    except NonMonotone:  # a nudge across the branch cut at pi
        return a, piecewise(a_breaks, b_vals)


@st.composite
def broken_lines(draw):
    """Values x[k] of a piecewise-affine function with no constant segment:
    integers and thirds, so breakpoints fall on the lattice and off it."""
    x = [F(draw(st.integers(-12, 12)), draw(st.sampled_from((1, 3))))]
    for _ in range(draw(st.integers(1, 6))):
        x.append(x[-1] + F(draw(st.integers(-9, 9).filter(bool)), draw(st.sampled_from((1, 3)))))
    return x


class TestHomotopyMatchesParentRule:
    """The certificate from floors and ceilings in whole turns, against the
    earlier rule from span signs, half-turn floors and a run rule."""

    @settings(derandomize=True, max_examples=200)
    @given(parent_rule_pairs())
    def test_same_zeros_and_intervals(self, pair):
        cert = homotopy_certificate(*pair)
        zeros, intervals = slope_rule_homotopy(*pair)
        got = [
            (str(z.point), z.odd_multiple, z.point.segment, z.point.t_lo, z.point.t_hi)
            for z in cert.zeros
        ]
        assert got == zeros
        assert cert.zero_intervals == intervals

    @settings(derandomize=True, max_examples=300)
    @given(broken_lines())
    def test_ranges_match_slope_rule(self, x):
        # x[0] on the lattice reaches the first segment's closed end, which
        # the certificate never does: there psi starts on an even multiple
        f = [math.floor(v) for v in x]
        c = [math.ceil(v) for v in x]
        slopes = [(y > v) - (y < v) for v, y in zip(x, x[1:])]
        assert forms._lattice_ranges(f, c) == slope_rule_ranges(x, math.floor, math.ceil, slopes)

    def test_near_tie_b_pair_asks_no_fixed_point(self, monkeypatch):
        # psi stays near 0 at the 200-digit breakpoint, so only a question
        # about an even multiple of pi would reach the fixed point
        golden = Path(__file__).resolve().parent / "golden"
        a, b, c = (
            parse_spec_file(str(golden / f"near_tie_{name}.cut"), validate=False)
            for name in ("a", "b200", "c200")
        )
        calls = []
        real = angles._fixed_sum

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(angles, "_fixed_sum", counted)
        assert homotopy_certificate(a, b).zeros == ()
        assert calls == []
        # at the C pair psi is within a hair of -pi: the answer needs it
        assert len(homotopy_certificate(a, c).zeros) == 1
        assert len(calls) >= 1

    def test_near_tie_is_asked_once(self, monkeypatch):
        # psi a hair above -pi (C20-above, 308 digits): the bisection's last
        # step up asks the floor, and its sign gives the ceiling, so the
        # fixed point runs once, not twice.  Below -pi (309 digits) the
        # numerators are beyond float range, but not over their den: a
        # bisection form over den 1 sends its far question there too
        golden = Path(__file__).resolve().parent / "golden"
        a, *others = (
            parse_spec_file(str(golden / f"near_tie_{name}.cut"), validate=False)
            for name in ("a", "c20_above", "c308_above", "c309")
        )
        calls = []
        real = angles._fixed_sum

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(angles, "_fixed_sum", counted)
        counts = []
        for b in others:
            calls.clear()
            assert len(homotopy_certificate(a, b).zeros) == 1
            counts.append(len(calls))
        assert counts[:2] == [3, 7] and counts[2] <= 7

    def test_zero_position_asks_no_fixed_point(self, monkeypatch):
        # the certificate places psi(u1) on -pi with its own fixed point; the
        # zero's exact t then asks the offset's tie test and the span's, and
        # its ratio decides the span is not 0 by the tie test, not by a sign
        golden = Path(__file__).resolve().parent / "golden"
        a, *others = (
            parse_spec_file(str(golden / f"{name}.cut"), validate=False)
            for name in ("near_tie_a", "near_tie_c20", "near_tie_c200", "near_tie_c309")
        )
        calls = []
        real = angles._fixed_sum

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(angles, "_fixed_sum", counted)
        for b in others:
            (zero,) = homotopy_certificate(a, b).zeros
            calls.clear()
            str(zero.point)
            zero.point.t_float()
            assert calls == []

    def test_tiny_span_ratio_asks_no_sign(self, monkeypatch):
        # with the exact t decided (None), the float t is the ratio; a span
        # whose float estimate is 0 is found irrational, hence not 0, by the
        # tie test, and the ratio loop alone runs in fixed point
        golden = Path(__file__).resolve().parent / "golden"
        a, b = (
            parse_spec_file(str(golden / f"{name}.cut"), validate=False)
            for name in ("tiny_span", "tiny_span_partner")
        )
        signs = []
        real = AngleForm.sign

        def counted(self):
            signs.append(self)
            return real(self)

        zeros = homotopy_certificate(a, b).zeros
        assert len(zeros) == 2
        assert [z.point.t_fraction() for z in zeros] == [None, None]
        monkeypatch.setattr(AngleForm, "sign", counted)
        for z in zeros:
            assert z.point.t_float() is not None
        assert signs == []
