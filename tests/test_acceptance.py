"""End-to-end acceptance checks, one printed verdict line per criterion.

Run with -s to see the lines; every check recomputes its expected values
from scratch (dense float sampling, independent trigonometry) rather
than trusting the code under test.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

import numpy as np

from toruscut import (
    Angle,
    AngleProfile,
    CutSpec,
    Direction,
    InvariantContactForm,
    LensKind,
    MODE_FIXED,
    MODE_GL2Z,
    RadialProfile,
    alpha_cutspec,
    alpha_form,
    cc_count,
    cc_profile,
    classify_lens,
    contact_check,
    contact_reduce,
    detect_overtwisted,
    distinguish,
    homotopy_certificate,
    lens_cutspec,
    minimal_valid_cutspec,
    moment_eval,
    moment_sign,
    rescale,
    rotating_line_form,
    slice_by_ray,
    sympl_moment_eval,
    sympl_moment_sign,
    validate_cutspec,
)
from toruscut.cli import main

from float_reference import phi_float

A = Angle
D = Direction

SPECS = Path(__file__).resolve().parent.parent / "specs"


@contextmanager
def verdict(n, title):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"criterion {n:2d}: FAIL  {title}", flush=True)
        raise
    extra = f"  [{info['detail']}]" if "detail" in info else ""
    print(f"criterion {n:2d}: PASS  {title}{extra}", flush=True)


def rand_dir(rng, max_coord=6):
    while True:
        x, y = rng.randint(-max_coord, max_coord), rng.randint(-max_coord, max_coord)
        if (x, y) != (0, 0):
            return D(*D.reduced(x, y).as_tuple())


def assert_verified_witness(a, b, w):
    """Recompute every count a witness claims."""
    assert w.counts_plus[0] != w.counts_plus[1]
    assert cc_count(a, w.xi_plus) == w.counts_plus[0]
    assert cc_count(b, w.xi_plus) == w.counts_plus[1]
    if w.mode == MODE_FIXED:
        assert w.xi_minus is not None
        assert w.counts_minus[0] != w.counts_minus[1]
        assert cc_count(a, w.xi_minus) == w.counts_minus[0]
        assert cc_count(b, -w.xi_minus) == w.counts_minus[1]
    pa, pb = cc_profile(a), cc_profile(b)
    assert w.summary_a == (pa.min_count, pa.max_count)
    assert w.summary_b == (pb.min_count, pb.max_count)


def test_criterion_1_diagonal_counts():
    with verdict(1, "cc(alpha_k, +-(-1,1)) = k exactly for k = 1..10") as info:
        start = time.perf_counter()
        for k in range(1, 11):
            spec = alpha_cutspec(k)
            assert cc_count(spec, (-1, 1)) == k
            assert cc_count(spec, (1, -1)) == k
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        info["detail"] = f"{elapsed:.3f}s"


def test_criterion_2_pairwise_distinguish():
    with verdict(2, "verified witnesses for alpha_k vs alpha_l, 1 <= k < l <= 5"):
        specs = {k: alpha_cutspec(k) for k in range(1, 6)}
        for k in range(1, 6):
            for l in range(k + 1, 6):
                w = distinguish(specs[k], specs[l], MODE_FIXED)
                assert w is not None and w.mode == MODE_FIXED
                assert_verified_witness(specs[k], specs[l], w)
                g = distinguish(specs[k], specs[l], MODE_GL2Z)
                assert g is not None and g.mode == MODE_GL2Z
                assert g.summary_a != g.summary_b
                assert_verified_witness(specs[k], specs[l], g)


def test_criterion_3_quarter_sweep_is_standard_tight(capsys):
    with verdict(3, "quarter sweep: Sphere3, slope 0, no disk, tagged standard-tight"):
        spec = alpha_cutspec(0)
        desc = classify_lens(spec)
        assert desc.kind is LensKind.SPHERE
        assert desc.slope == F(0, 1)
        assert detect_overtwisted(spec) is None
        assert main(["cut", str(SPECS / "alpha0.cut")]) == 0
        out = capsys.readouterr().out
        assert "tag = standard-tight" in out


def test_criterion_4_disk_certificates():
    with verdict(4, "disk certificates: side 0, j = 1, phi(t*) = pi, t* = 2/(4k+1)"):
        for k in range(1, 6):
            spec = alpha_cutspec(k)
            cert = detect_overtwisted(spec)
            assert cert is not None
            assert cert.side == 0 and cert.j == 1
            t_star = cert.point.t_fraction()
            assert t_star is not None
            # the angle equation is exact, not a float residual
            assert spec.form.phi.compare_at(t_star, cert.target) == 0
            assert cert.target == A(D(-1, 0))
            assert abs(cert.point.t_float() - 2 / (4 * k + 1)) <= 1e-12
            assert t_star == F(2, 4 * k + 1)


def test_criterion_5_line_slices():
    with verdict(5, "slicing the line form over [-3pi, 3pi]: 3 pieces, S1xS2, no disk"):
        window = (A(D(-1, 0), -2), A(D(-1, 0), 1))
        pieces = slice_by_ray(rotating_line_form(3), (0, 1), window)
        assert len(pieces) == 3
        for piece in pieces:
            assert validate_cutspec(piece) == []
            assert classify_lens(piece).kind is LensKind.S1XS2
            assert detect_overtwisted(piece) is None


def test_criterion_6_lens_table():
    with verdict(6, "lens table: normal forms, minima increasing in j, witnesses"):
        for k, l in ((1, 1), (2, 1), (1, 2), (2, 3)):
            specs = {j: lens_cutspec(k, l, j) for j in (1, 2, 3)}
            minima = []
            for j in (1, 2, 3):
                desc = classify_lens(specs[j])
                assert desc.slope == F(-k, l)
                if l == 1:
                    assert desc.kind is LensKind.SPHERE
                    assert desc.normal_form == (1, 0)
                else:
                    assert desc.kind is LensKind.LENS
                    assert desc.normal_form == (l, (-k) % l)
                minima.append(cc_profile(specs[j]).min_count)
            assert minima[0] < minima[1] < minima[2]
            for j in (1, 2, 3):
                for jj in (1, 2, 3):
                    if j >= jj:
                        continue
                    w = distinguish(specs[j], specs[jj], MODE_FIXED)
                    assert w is not None
                    assert_verified_witness(specs[j], specs[jj], w)


def _random_valid_spec(rng):
    v0, v1 = rand_dir(rng), rand_dir(rng)
    base = minimal_valid_cutspec(v0, v1)
    start = base.form.phi.values[0]
    end_min = base.form.phi.values[-1]
    end = A(end_min.dir, end_min.turns + rng.randint(0, 2))
    interior = set()
    for _ in range(rng.randint(0, 3)):
        a = A(rand_dir(rng), rng.randint(start.turns - 1, end.turns + 1))
        if start < a < end:
            interior.add(a)
    values = [start] + sorted(interior) + [end]
    cuts = sorted(rng.sample(range(1, 40), len(values) - 2))
    breaks = [F(0)] + [F(c, 40) for c in cuts] + [F(1)]
    return CutSpec(
        InvariantContactForm.unit(AngleProfile(breaks, values)), v0, v1
    )


def _random_radial(rng):
    n = rng.randint(2, 4)
    cuts = sorted(rng.sample(range(1, 40), n - 2))
    breaks = [F(0)] + [F(c, 40) for c in cuts] + [F(1)]
    values = [F(rng.randint(1, 12), rng.randint(1, 3)) for _ in breaks]
    return RadialProfile.from_values(breaks, values)


def test_criterion_7_radial_rescaling_invariance():
    title = "100 random specs x random radial: invariants fixed, moments scale"
    with verdict(7, title):
        rng = random.Random(20260818)
        for _ in range(100):
            spec = _random_valid_spec(rng)
            radial2 = _random_radial(rng)
            scaled = CutSpec(rescale(spec.form, radial2), spec.v0, spec.v1)
            assert contact_check(scaled.form) == contact_check(spec.form)
            assert validate_cutspec(spec) == []
            assert validate_cutspec(scaled) == []
            assert cc_profile(scaled) == cc_profile(spec)
            assert detect_overtwisted(scaled) == detect_overtwisted(spec)
            for _ in range(10):
                t = F(rng.randint(0, 40), 40)
                eta = rand_dir(rng).as_tuple()
                m1 = moment_eval(spec.form, eta, t)
                m2 = moment_eval(scaled.form, eta, t)
                assert m2.sign == m1.sign
                expected = m1.value * float(radial2.evaluate(t))
                assert abs(m2.value - expected) < 1e-12


def _random_monotone_form(rng):
    n0 = rng.randint(-2, 2)
    start = A(D(3, 1), n0)
    end = A(D(2, 1), n0 + rng.randint(0, 9))
    interior = set()
    for _ in range(rng.randint(0, 4)):
        a = A(rand_dir(rng), rng.randint(start.turns, end.turns))
        if start < a < end:
            interior.add(a)
    values = [start] + sorted(interior) + [end]
    cuts = sorted(rng.sample(range(1, 40), len(values) - 2))
    breaks = [F(0)] + [F(c, 40) for c in cuts] + [F(1)]
    return InvariantContactForm.unit(AngleProfile(breaks, values))


STANDARD_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def _sampled_ray_count(phis, xi):
    """Count ray hits by sign changes of sin(phi - theta), gated by cos > 0.

    Independent of the exact machinery: the profile is sampled densely as
    plain floats and the ray test is ordinary trigonometry.
    """
    theta = math.atan2(xi[1], xi[0])
    psi = phis - theta
    s = np.sign(np.sin(psi))
    nz = np.nonzero(s)[0]
    sv = s[nz]
    flips = np.nonzero(sv[1:] != sv[:-1])[0]
    count = 0
    for f in flips:
        i, j = nz[f], nz[f + 1]
        if math.cos(0.5 * (psi[i] + psi[j])) > 0:
            count += 1
    return count


def test_criterion_8_counts_match_dense_sampling():
    title = "cc counts match a 1e5-sample float oracle on 50 random profiles"
    with verdict(8, title) as info:
        rng = random.Random(481516)
        checked = 0
        for _ in range(50):
            form = _random_monotone_form(rng)
            phi = form.phi
            xp = np.array([float(b) for b in phi.breaks])
            fp = np.array([v.value() for v in phi.values])
            assert fp[-1] - fp[0] <= 20 * math.pi + 1e-9
            ts = np.linspace(xp[0], xp[-1], 100001)
            phis = np.interp(ts, xp, fp)
            for xi in STANDARD_RAYS:
                assert cc_count(form, xi) == _sampled_ray_count(phis, xi)
                checked += 1
        info["detail"] = f"{checked} form/ray pairs, 0 mismatches"


def test_criterion_9_homotopy_grid():
    title = "homotopies for alpha pairs k,l <= 4: |H| >= 1/4 - 1e-9 on a 200x200 grid"
    with verdict(9, title):
        ss = np.linspace(0.0, 1.0, 200)[:, None]
        ts = np.linspace(0.0, 1.0, 200)
        for k in range(5):
            for l in range(k + 1, 5):
                fa, fb = alpha_form(k), alpha_form(l)
                cert = homotopy_certificate(fa, fb)
                assert cert.zeros  # the profiles differ by an odd pi somewhere
                a = np.interp(
                    ts,
                    [float(b) for b in fa.phi.breaks],
                    [v.value() for v in fa.phi.values],
                )
                b = np.interp(
                    ts,
                    [float(b) for b in fb.phi.breaks],
                    [v.value() for v in fb.phi.values],
                )
                hx = (1 - ss) * np.cos(a) + ss * np.cos(b)
                hy = (1 - ss) * np.sin(a) + ss * np.sin(b)
                hz = ss * (1 - ss)
                norms = np.sqrt(hx * hx + hy * hy + hz * hz)
                assert norms.min() > 0.0
                assert norms.min() >= 0.25 - 1e-9
                for z in cert.zeros:
                    t = z.point.t_float()
                    av, bv = phi_float(fa.phi, t), phi_float(fb.phi, t)
                    hx0 = 0.5 * (math.cos(av) + math.cos(bv))
                    hy0 = 0.5 * (math.sin(av) + math.sin(bv))
                    h = math.sqrt(hx0 * hx0 + hy0 * hy0 + 0.25 * 0.25)
                    assert abs(h - 0.25) <= 1e-9


def test_criterion_10_symplectization_identity():
    title = "Psi = -e^s Phi at 1e4 random (t, s); zero loci coincide"
    with verdict(10, title) as info:
        rng = random.Random(910)
        forms = [
            alpha_form(2),
            lens_cutspec(2, 3, 2).form,
            rescale(
                alpha_form(1), RadialProfile.from_values([0, 1], [F(1, 2), F(2)])
            ),
            rotating_line_form(2),
        ]
        total = 0
        for i in range(10000):
            form = forms[i % len(forms)]
            t0, t1 = form.domain
            t = t0 + (t1 - t0) * F(rng.randint(0, 9999), 9999)
            s = rng.uniform(-2.0, 2.0)
            eta = rand_dir(rng, 3).as_tuple()
            psi = sympl_moment_eval(form, eta, t, s)
            r = float(form.radial.evaluate(t))
            a = phi_float(form.phi, float(t))
            phi_indep = r * (eta[0] * math.cos(a) + eta[1] * math.sin(a))
            assert abs(psi + math.exp(s) * phi_indep) < 1e-12
            assert sympl_moment_sign(form, eta, t) == -moment_sign(form, eta, t)
            total += 1
        assert total == 10000
        # exact zero loci: every reduced-circle parameter stays an exact
        # zero of the symplectized moment for every s, and nowhere else
        for form in forms[:3]:
            for eta in ((0, 1), (1, 0), (-1, 1)):
                zeros = {
                    c.point.t_fraction()
                    for c in contact_reduce(form, eta)
                    if c.point.t_fraction() is not None
                }
                for t in sorted(zeros):
                    for s in (-1.0, 0.0, 2.0):
                        assert sympl_moment_eval(form, eta, t, s) == 0.0
                    assert sympl_moment_sign(form, eta, t) == 0
                t0, t1 = form.domain
                for i in range(1, 50):
                    t = t0 + (t1 - t0) * F(i, 50)
                    if t in zeros:
                        continue
                    assert (moment_sign(form, eta, t) == 0) == (t in zeros)
                    assert sympl_moment_sign(form, eta, t) != 0
        info["detail"] = "10000 identity points"
