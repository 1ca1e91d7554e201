"""Ray counts, distinguishing witnesses, and the two certificate families."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from toruscut import cuts
from toruscut import (
    Angle,
    AngleProfile,
    CutSpec,
    Direction,
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
    cc_count,
    cc_profile,
    detect_overtwisted,
    distinguish,
    homotopy_certificate,
    minimal_valid_cutspec,
    rescale,
    rotating_line_form,
    slice_by_ray,
    validate_cutspec,
)

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
        for name in ("contact_check", "_boundary_checks"):

            def counted(*args, name=name, original=getattr(cuts, name)):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(cuts, name, counted)
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
            assert ca.point == cb.point and ca.j == cb.j and ca.side == cb.side

    def test_rescaled_spec_not_distinguished_from_itself(self):
        spec = alpha_cutspec(2)
        assert distinguish(spec, self.scaled(spec)) is None
        assert distinguish(spec, self.scaled(spec), MODE_GL2Z) is None


class TestOvertwisted:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_alpha_certificates(self, k):
        cert = detect_overtwisted(alpha_cutspec(k))
        assert cert is not None
        assert cert.side == 0 and cert.j == 1
        assert cert.point.t_fraction() == F(2, 4 * k + 1)
        assert angle_compare(cert.target, A(D(-1, 0))) == 0
        assert cert.fixed_coordinate == 0.0

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
        assert z.s == 0.5
        assert z.third_component == F(1, 4)
        assert z.odd_multiple % 2 == 1

    def test_identical_forms_no_zeros(self):
        cert = homotopy_certificate(alpha_cutspec(2), alpha_cutspec(2))
        assert cert.zeros == () and cert.zero_intervals == ()

    def test_endpoint_mismatch(self):
        other = minimal_valid_cutspec((0, 1), (0, 1))
        with pytest.raises(EndpointMismatch) as exc:
            homotopy_certificate(alpha_cutspec(0), other)
        assert exc.value.end == 1

    def test_constant_difference_interval(self):
        a = piecewise((0, F(1, 3), F(2, 3), 1), [quarter(0), quarter(2), quarter(4), quarter(6)])
        b = piecewise((0, F(1, 3), F(2, 3), 1), [quarter(0), quarter(0), quarter(2), quarter(6)])
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
            va, vb = a.phi.eval_float(t), b.phi.eval_float(t)
            for jdx in range(n + 1):
                s = jdx / n
                x = (1 - s) * math.cos(va) + s * math.cos(vb)
                y = (1 - s) * math.sin(va) + s * math.sin(vb)
                h = math.hypot(math.hypot(x, y), s * (1 - s))
                min_h = min(min_h, h)
        for t in loci:
            va, vb = a.phi.eval_float(t), b.phi.eval_float(t)
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
            psi = a.phi.eval_float(t) - b.phi.eval_float(t)
            s = 1 if math.cos(psi / 2) > 0 else -1 if math.cos(psi / 2) < 0 else 0
            if prev_sign is not None and s != prev_sign:
                hits += 1
            prev_sign = s
        assert len(cert.zeros) == hits
