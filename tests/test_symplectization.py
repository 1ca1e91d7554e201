"""The symplectized moment rule Psi = -e^s Phi and the commutation report."""

import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toruscut import (
    AngleProfile,
    CutSpec,
    Direction,
    InvalidCutSpec,
    OutsideDomain,
    alpha_cutspec,
    alpha_form,
    contact_reduce,
    lens_cutspec,
    moment_eval,
    parse_spec_file,
    rotating_line_form,
)
from toruscut.cli import _LENS_TABLE
from toruscut.symplectization import (
    CommutationReport,
    check_cut_symplectization_commute,
    sympl_moment_eval,
    sympl_moment_sign,
)

D = Direction
SPECS = Path(__file__).resolve().parent.parent / "specs"


def dirs(max_coord=5):
    return (
        st.tuples(
            st.integers(-max_coord, max_coord), st.integers(-max_coord, max_coord)
        )
        .filter(lambda v: v != (0, 0))
        .map(lambda v: D(*D.reduced(*v).as_tuple()))
    )


class TestEval:
    def test_unit_moment_at_quarter_turn(self):
        # phi = pi/2 halfway through the first positive interval, where the
        # (0,1)-moment of the unit-radius line form is exactly 1
        line = rotating_line_form(3)
        assert sympl_moment_eval(line, (0, 1), F(1, 2), 0.0) == -1.0
        assert sympl_moment_eval(line, (0, 1), F(1, 2), math.log(2)) == pytest.approx(
            -2.0, rel=1e-15
        )

    def test_exact_zero_for_any_s(self):
        line = rotating_line_form(3)
        for s in (-3.0, 0.0, 0.25, 10.0):
            assert sympl_moment_eval(line, (0, 1), F(0), s) == 0.0
            assert sympl_moment_eval(line, (0, 1), F(2), s) == 0.0

    def test_outside_domain(self):
        with pytest.raises(OutsideDomain):
            sympl_moment_eval(alpha_form(1), (0, 1), F(3, 2), 0.0)

    @given(
        dirs(),
        st.fractions(min_value=0, max_value=1, max_denominator=200),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.integers(0, 4),
    )
    def test_identity_and_sign(self, eta, t, s, k):
        form = alpha_form(k)
        value, sign = moment_eval(form, eta, t)
        psi = sympl_moment_eval(form, eta, t, s)
        assert abs(psi + math.exp(s) * value) < 1e-12 * max(1.0, math.exp(s))
        assert sympl_moment_sign(form, eta, t) == -sign
        assert (psi == 0.0) == (sign == 0)


class TestCommutationReport:
    def test_alpha0_all_rows_pass(self):
        rep = check_cut_symplectization_commute(alpha_cutspec(0))
        assert rep.passed
        assert [r.name for r in rep.rows] == [
            "side 0 zero locus",
            "side 0 reduced coefficients",
            "side 1 zero locus",
            "side 1 reduced coefficients",
            "pointwise identity",
        ]

    def test_alpha2_passes_with_five_loci_per_side(self):
        rep = check_cut_symplectization_commute(alpha_cutspec(2))
        assert rep.passed
        assert "5 reduced circles" in rep.rows[1].detail
        assert "5 reduced circles" in rep.rows[3].detail

    @pytest.mark.parametrize("kl", [(1, 2), (2, 3)])
    def test_lens_spec_passes(self, kl):
        assert check_cut_symplectization_commute(lens_cutspec(*kl)).passed

    def test_validation_raises_by_default(self):
        bad = CutSpec(alpha_form(0), D(1, 1), D(1, 0))
        with pytest.raises(InvalidCutSpec):
            check_cut_symplectization_commute(bad)

    def test_report_is_deterministic(self):
        a = check_cut_symplectization_commute(alpha_cutspec(3))
        b = check_cut_symplectization_commute(alpha_cutspec(3))
        assert a == b


def _enumerated(spec: CutSpec) -> list[tuple[bool, int, int]]:
    """(collapse circle found, circles, positive circles) per side, from
    every reduced circle that contact_reduce builds."""
    out = []
    for side, v in ((0, spec.v0), (1, spec.v1)):
        circles = contact_reduce(spec.form, v)
        collapsed = any(c.point.t_fraction() == side for c in circles)
        out.append((collapsed, len(circles), sum(c.sign > 0 for c in circles)))
    return out


def _sample_specs():
    for k in range(201):
        yield pytest.param(alpha_cutspec(k), id=f"alpha{k}")
    for k, l in _LENS_TABLE:
        for j in (1, 2, 3):
            yield pytest.param(lens_cutspec(k, l, j), id=f"lens{k}-{l}-{j}")
    for path in sorted(SPECS.glob("*.cut")):
        spec = parse_spec_file(path)
        if isinstance(spec, CutSpec):
            yield pytest.param(spec, id=path.name)


class TestCountedRows:
    @pytest.mark.parametrize("spec", _sample_specs())
    def test_rows_match_the_enumerated_circles(self, spec):
        rows = check_cut_symplectization_commute(spec).rows
        for side, (collapsed, n, positive) in enumerate(_enumerated(spec)):
            locus, coefficients = rows[2 * side], rows[2 * side + 1]
            assert locus.passed == collapsed
            assert locus.detail.endswith(f"the zero set of Psi is {n} reduced circles x R")
            assert coefficients.detail.startswith(
                f"{n} reduced circles; each coefficient c becomes -e^s c, so the "
                f"{positive} with c > 0 and the {n - positive} with c < 0 swap"
            )

    def test_no_circle_is_solved_for(self, monkeypatch):
        calls = []
        solve = AngleProfile.solve

        def counting(self, target):
            calls.append(target)
            return solve(self, target)

        monkeypatch.setattr(AngleProfile, "solve", counting)
        for spec in (alpha_cutspec(7), lens_cutspec(2, 3, 2)):
            assert check_cut_symplectization_commute(spec).passed
        assert calls == []
