"""Spec file parsing, report rendering, and the command line surface."""

import argparse
import contextlib
import io
import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden import CASES as GOLDEN_CASES

from toruscut import (
    Angle,
    AngleForm,
    CutSpec,
    Direction,
    InvariantContactForm,
    Item,
    MODE_FIXED,
    MODE_GL2Z,
    Record,
    Report,
    SpecSemanticError,
    SpecSyntaxError,
    alpha_cutspec,
    distinguish,
    homotopy_certificate,
    parse_spec,
    parse_spec_file,
    render_json,
    render_text,
    validate_cutspec,
)
from toruscut import cli
from toruscut.cli import main
from toruscut.report import fmt_float
from toruscut.specfile import _fraction

A = Angle
D = Direction
SPECS = Path(__file__).resolve().parent.parent / "specs"
GOLDEN = SPECS.parent / "tests" / "golden"

ALPHA1 = """\
form.phi.breaks = 0:1,0 1:0,1;1
form.radial = 1
collapse0 = 0,1
collapse1 = 1,0
"""

LINE = """\
form.phi.breaks = -3:-1,0;-2 3:-1,0;1
form.domain = -3,3
"""


# every integer and rational field of the spec grammar is set, each key on its own line
FIELDS = """\
form.phi.breaks = 0:1,0 1:0,1;1
form.radial = 0:1 1:1
collapse0 = 0,1
collapse1 = 1,0
form.domain = 0,1
"""


def _empty_field_cases():
    """(spec text, command, line) with one integer or rational field left
    empty: in a spec line, whose key's line the error names, or in an option
    value, where line is None."""
    edits = {
        "literal-x": ("0:1,0 ", "0:,0 ", 1),
        "literal-y": ("0:1,0 ", "0:1, ", 1),
        "literal-n": ("0,1;1", "0,1;", 1),
        "breakpoint-t": ("0:1,0", ":1,0", 1),
        "breakpoint-value": ("0:1,0 ", "0: ", 1),
        "radial-t": ("radial = 0:1", "radial = :1", 2),
        "radial-value": ("1:1\n", "1:\n", 2),
        "collapse0-x": ("collapse0 = 0,1", "collapse0 = ,1", 3),
        "collapse0-y": ("collapse0 = 0,1", "collapse0 = 0,", 3),
        "collapse1-x": ("collapse1 = 1,0", "collapse1 = ,0", 4),
        "collapse1-y": ("collapse1 = 1,0", "collapse1 = 1,", 4),
        "domain-t0": ("domain = 0,1", "domain = ,1", 5),
        "domain-t1": ("domain = 0,1", "domain = 0,", 5),
    }
    cases = []
    for name, (old, new, line) in edits.items():
        assert FIELDS.count(old) == 1, name
        cases.append(pytest.param(FIELDS.replace(old, new), ["check"], line, id=name))
    for name, value in (("x", ",1"), ("y", "-1,")):
        argv = ["invariants", "--direction", value]
        cases.append(pytest.param(ALPHA1, argv, None, id=f"direction-{name}"))
    for name, value in (("x", ",1"), ("y", "0,")):
        argv = ["slice", "--eta", value, "--window", "-1,0;-2", "-1,0;1"]
        cases.append(pytest.param(LINE, argv, None, id=f"eta-{name}"))
    return cases


def int_digit_limit():
    """Python's int <-> str digit limit, None before it existed (3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def spec_path(tmp_path, text, name="spec.cut"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseSpec:
    def test_cut_spec(self):
        spec = parse_spec(ALPHA1)
        assert isinstance(spec, CutSpec)
        assert spec.v0 == D(0, 1)
        assert spec.v1 == D(1, 0)
        assert spec.form.phi.values[-1] == A(D(0, 1), 1)
        assert validate_cutspec(spec) == []

    def test_bare_form(self):
        form = parse_spec(LINE)
        assert isinstance(form, InvariantContactForm)
        assert form.domain == (F(-3), F(3))

    def test_comments_and_blank_lines(self):
        text = "# header\n\n" + ALPHA1.replace(
            "form.radial = 1", "form.radial = 1  # unit radius"
        )
        assert parse_spec(text) == parse_spec(ALPHA1)

    def test_radial_defaults_to_one(self):
        with_radial = parse_spec(ALPHA1)
        without = parse_spec(ALPHA1.replace("form.radial = 1\n", ""))
        assert with_radial == without

    def test_piecewise_radial(self):
        text = ALPHA1.replace("form.radial = 1", "form.radial = 0:3/2 1/2:1 1:2")
        spec = parse_spec(text)
        assert spec.form.radial.evaluate(F(1, 2)) == F(1)
        assert spec.form.radial.evaluate(F(3, 4)) == F(3, 2)

    def test_missing_phi(self):
        with pytest.raises(SpecSyntaxError) as e:
            parse_spec("collapse0 = 0,1\ncollapse1 = 1,0\n")
        assert "form.phi.breaks" in str(e.value)

    def test_line_without_equals(self):
        with pytest.raises(SpecSyntaxError, match="^line 2: expected key = value"):
            parse_spec("form.phi.breaks = 0:1,0 1:0,1;1\ncollapse0 0,1\n")

    def test_unknown_key(self):
        with pytest.raises(SpecSyntaxError) as e:
            parse_spec("form.phiz = 1\n")
        assert e.value.line == 1

    def test_duplicate_key(self):
        text = "form.phi.breaks = 0:1,0 1:0,1\nform.phi.breaks = 0:1,0 1:0,1\n"
        with pytest.raises(SpecSyntaxError) as e:
            parse_spec(text)
        assert e.value.line == 2
        assert "duplicate" in str(e.value)

    def test_bad_rational(self):
        with pytest.raises(SpecSyntaxError) as e:
            parse_spec("form.phi.breaks = x:1,0 1:0,1\n")
        assert e.value.line == 1

    def test_single_breakpoint_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("form.phi.breaks = 0:1,0\n")

    def test_nonmonotone_profile(self):
        text = "form.phi.breaks = 0:1,0 1/2:0,1 1:1,1\n"
        with pytest.raises(SpecSemanticError) as e:
            parse_spec(text)
        assert e.value.line == 1
        assert "slope changes sign" in str(e.value)

    @pytest.mark.parametrize(
        "breaks", ["0:1,0 0:0,1", "0:1,0 1/2:0,1 1/4:1,1", "0:1,0 1/2:0,1 2/4:-1,1 1:-1,0"]
    )
    def test_unordered_breakpoints(self, breaks):
        with pytest.raises(SpecSemanticError) as e:
            parse_spec(f"form.phi.breaks = {breaks}\n")
        assert e.value.line == 1
        assert "strictly ascending" in str(e.value)

    @pytest.mark.parametrize(
        "radial, message",
        [
            ("0:1 0:2 1:1", "strictly ascending"),
            ("0:1", "at least two"),
            ("0:1 2:1", "share their domain"),
        ],
    )
    def test_bad_radial_breakpoints(self, radial, message):
        text = ALPHA1.replace("form.radial = 1", f"form.radial = {radial}")
        with pytest.raises(SpecSemanticError) as e:
            parse_spec(text)
        assert e.value.line == 2
        assert message in str(e.value)

    def test_nonpositive_radial(self):
        text = LINE + "form.radial = -3:1 3:-2\n"
        with pytest.raises(SpecSemanticError) as e:
            parse_spec(text)
        assert e.value.line == 3
        assert "positive" in str(e.value)

    def test_domain_mismatch(self):
        text = ALPHA1 + "form.domain = 0,2\n"
        with pytest.raises(SpecSemanticError) as e:
            parse_spec(text)
        assert e.value.line == 5

    def test_nonprimitive_collapse(self):
        text = ALPHA1.replace("collapse0 = 0,1", "collapse0 = 2,4")
        with pytest.raises(SpecSemanticError) as e:
            parse_spec(text)
        assert e.value.line == 3
        assert "primitive" in str(e.value)

    def test_single_collapse_key(self):
        text = ALPHA1.replace("collapse1 = 1,0\n", "")
        with pytest.raises(SpecSemanticError) as e:
            parse_spec(text)
        assert "collapse1" in str(e.value)

    def test_invalid_cut_points_at_collapse_line(self):
        text = ALPHA1.replace("collapse0 = 0,1", "collapse0 = 0,-1")
        with pytest.raises(SpecSemanticError) as e:
            parse_spec(text)
        assert e.value.line == 3

    def test_invalid_cut_at_end_1_points_at_collapse1_line(self):
        with pytest.raises(SpecSemanticError, match="negative just inside t=1") as e:
            parse_spec(ALPHA1.replace("collapse1 = 1,0", "collapse1 = -1,0"))
        assert e.value.line == 4

    def test_validate_false_defers_boundary_checks(self):
        text = ALPHA1.replace("collapse0 = 0,1", "collapse0 = 0,-1")
        spec = parse_spec(text, validate=False)
        assert [v.code for v in validate_cutspec(spec)] == ["wrong-sign"]

    def test_parse_spec_file(self, tmp_path):
        spec = parse_spec_file(spec_path(tmp_path, ALPHA1))
        assert spec == parse_spec(ALPHA1)


def reference_rational(text):
    """The rational reader the spec parser had before: ASCII digits, signs,
    '.' and '/' only, then `fractions.Fraction`; None where it failed."""
    if not set(text) <= set("0123456789+-./"):
        return None
    try:
        return F(text)
    except (ValueError, ZeroDivisionError):
        return None


class TestRationalReader:
    def check(self, text):
        want = reference_rational(text)
        if want is None:
            with pytest.raises(SpecSyntaxError, match="^line 7: bad rational"):
                _fraction(text, 7)
        else:
            got = _fraction(text, 7)
            assert type(got) is F and got == want

    @given(
        st.text("0123456789+-./", max_size=10)
        | st.text("0123456789+-./e_ \u00b2\u0663", max_size=10)
    )
    def test_matches_fraction(self, text):
        self.check(text)

    @pytest.mark.parametrize(
        "text, value",
        [
            ("1/0", None), ("1.", F(1)), (".5", F(1, 2)), ("+.5", F(1, 2)),
            ("1/-2", None), ("-6/4", F(-3, 2)), ("007.250", F(29, 4)), ("-0", F(0)),
            (".", None), ("+", None), ("", None), ("1/2/3", None), ("1.5/2", None),
            ("1e5", None), ("1_0", None), (" 1", None), ("1 / 2", None),
        ],
    )
    def test_cases(self, text, value):
        assert reference_rational(text) == value
        self.check(text)

    @pytest.mark.parametrize("text", ["1/0", "1/-2", "1e5"])
    def test_spec_error_names_the_line(self, text):
        with pytest.raises(SpecSyntaxError, match="^line 3: bad rational"):
            parse_spec(ALPHA1.replace("collapse0 = 0,1", f"form.domain = 0,{text}"))


class TestReport:
    def sample(self):
        return Report(
            command="profile spec.cut",
            input_digest="00" * 32,
            records=(
                Record("r", (Item("k", "2/5", 0.4), Item("plain", "yes"))),
            ),
        )

    def test_json_round_trip(self):
        r = self.sample()
        assert report_from_json(render_json(r)) == r

    def test_empty_report_is_valid_json_with_echo(self):
        r = Report("check nothing", "ab" * 32, ())
        payload = json.loads(render_json(r))
        assert payload == {
            "command": "check nothing",
            "input_digest": "ab" * 32,
            "records": [],
        }

    def test_text_carries_exact_and_float(self):
        text = render_text(self.sample())
        assert "k = 2/5 (~0.4)" in text
        assert "plain = yes" in text

    def test_text_and_json_agree_on_records(self):
        r = self.sample()
        payload = json.loads(render_json(r))
        text = render_text(r)
        for rec in payload["records"]:
            for item in rec["items"]:
                assert f"{item['key']} = {item['exact']}" in text


def reference_render_json(report):
    """The stdlib rendering that `render_json` writes out by hand."""
    payload = {
        "command": report.command,
        "input_digest": report.input_digest,
        "records": [
            {
                "title": rec.title,
                "items": [
                    {"key": it.key, "exact": it.exact, "approx": it.approx}
                    for it in rec.items
                ],
            }
            for rec in report.records
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def golden_json_stdouts():
    for path in sorted(GOLDEN.glob("*-json.out")):
        text = path.read_text(encoding="utf-8")
        out = text.split("--- stdout\n", 1)[1].split("--- stderr\n", 1)[0]
        if out:
            yield path.name, out


# arbitrary text, with the characters JSON escapes drawn often
TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001f600'))
)
APPROX = st.one_of(
    st.none(),
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -1.5e-300, math.inf, -math.inf, math.nan]),
)
REPORTS = st.builds(
    Report,
    TEXT,
    TEXT,
    st.lists(
        st.builds(
            Record,
            TEXT,
            st.lists(st.builds(Item, TEXT, TEXT, APPROX), max_size=4).map(tuple),
        ),
        max_size=4,
    ).map(tuple),
)


class TestRenderJsonMatchesStdlib:
    @given(REPORTS)
    def test_arbitrary_reports(self, report):
        assert render_json(report) == reference_render_json(report)

    def test_golden_json_reports(self):
        outs = dict(golden_json_stdouts())
        assert len(outs) > 50
        for name, out in outs.items():
            report = report_from_json(out)
            assert render_json(report) == reference_render_json(report) == out, name

    def test_reproduce_paper_report(self, capsys):
        assert main(["reproduce-paper", "--kmax", "20", "--format", "json"]) == 0
        out = capsys.readouterr().out
        report = report_from_json(out)
        assert render_json(report) == reference_render_json(report) == out


class TestCliExitCodes:
    def test_valid_check(self, tmp_path, capsys):
        assert main(["check", spec_path(tmp_path, ALPHA1)]) == 0
        out = capsys.readouterr().out
        assert "valid = yes" in out

    def test_invalid_cut_reports_and_fails(self, tmp_path, capsys):
        text = ALPHA1.replace("collapse1 = 1,0", "collapse1 = -1,0")
        assert main(["check", spec_path(tmp_path, text)]) == 3
        out = capsys.readouterr().out
        assert "valid = no" in out
        assert "wrong-sign" in out

    def test_syntax_error_is_2(self, tmp_path, capsys):
        path = spec_path(tmp_path, "form.phi.breaks = 0:1,0 nope\n")
        assert main(["check", path]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_semantic_error_is_3(self, tmp_path, capsys):
        text = ALPHA1.replace("collapse0 = 0,1", "collapse0 = 2,4")
        assert main(["cut", spec_path(tmp_path, text)]) == 3
        assert "primitive" in capsys.readouterr().err

    def test_missing_file_is_2(self, capsys):
        assert main(["check", "/nonexistent/path.cut"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_usage_is_2(self, tmp_path, capsys):
        assert main(["invariants", spec_path(tmp_path, ALPHA1)]) == 2
        capsys.readouterr()

    def test_bare_form_rejected_where_cut_needed(self, tmp_path, capsys):
        path = spec_path(tmp_path, LINE)
        assert main(["cut", path]) == 3
        assert "collapse" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ["1e999999999", "1e5", "2E-3", "1.5e3", "1_0"])
    def test_rational_outside_the_grammar_is_a_syntax_error(self, tmp_path, capsys, t):
        # integers, p/q and plain decimals only: 1e999999999 would otherwise
        # build a billion-digit integer before any check ran
        path = spec_path(tmp_path, f"form.phi.breaks = 0:1,0 {t}:0,1\n")
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and repr(t) in err

    @pytest.mark.parametrize("text, command, line", _empty_field_cases())
    def test_empty_field_is_a_grammar_error(self, tmp_path, capsys, text, command, line):
        # every integer and rational has one or more digits; a ';' needs its turn count
        assert main(["check", spec_path(tmp_path, FIELDS, "fields.cut")]) == 0
        capsys.readouterr()
        assert main([command[0], spec_path(tmp_path, text), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert f": line {line}: " in err if line else f"error: argument {command[1]}" in err

    @pytest.mark.parametrize("t", ["1/2", "0.5", "3"])
    def test_plain_rationals_parse(self, tmp_path, capsys, t):
        text = ALPHA1.replace("1:0,1;1", f"{t}:0,1;1")
        assert main(["check", spec_path(tmp_path, text)]) == 0
        assert "valid = yes" in capsys.readouterr().out


class TestCliCommands:
    def test_symplectization_check_counts_without_enumerating(self, tmp_path, capsys):
        # a valid sphere cut sweeping 10^20 turns: 2*10^20 + 1 reduced
        # circles per side, counted, never built
        text = ALPHA1.replace("1:0,1;1", f"1:0,1;{10**20}")
        assert main(["symplectization-check", spec_path(tmp_path, text)]) == 0
        out = capsys.readouterr().out
        many, fewer = 10**20 + 1, 10**20
        assert out.count(f"{2 * 10**20 + 1} reduced circles x R") == 2
        side0, side1 = (line for line in out.splitlines() if "reduced coefficients" in line)
        assert f"the {many} with c > 0 and the {fewer} with c < 0" in side0
        assert f"the {fewer} with c > 0 and the {many} with c < 0" in side1
        assert "verdict = commute" in out

    def test_boundary_moment_drops_whole_turns(self, tmp_path, capsys):
        # phi(1) = pi/2 + 2 pi 10^12, where the (0,1)-moment is exactly 1
        text = ALPHA1.replace("1:0,1;1", f"1:0,1;{10**12}")
        text = text.replace("collapse1 = 1,0", "collapse1 = 0,1")
        assert main(["check", spec_path(tmp_path, text)]) == 3
        assert "moment of (0,1) at t=1 is 1, not zero" in capsys.readouterr().out

    def test_cut_classifies_sphere(self, tmp_path, capsys):
        assert main(["cut", spec_path(tmp_path, ALPHA1)]) == 0
        out = capsys.readouterr().out
        assert "kind = Sphere3" in out
        assert "slope = 0" in out
        # the disk family is nonempty for k = 1, so no tightness tag
        assert "standard-tight" not in out

    def test_cut_tags_quarter_sweep_standard_tight(self, tmp_path, capsys):
        text = ALPHA1.replace("0:1,0 1:0,1;1", "0:1,0 1:0,1")
        assert main(["cut", spec_path(tmp_path, text)]) == 0
        assert "tag = standard-tight" in capsys.readouterr().out

    def test_invariants_counts_ray(self, tmp_path, capsys):
        assert main(
            ["invariants", spec_path(tmp_path, ALPHA1), "--direction", "-1,1"]
        ) == 0
        assert "cc(-1,1) = 1" in capsys.readouterr().out

    def test_profile_lists_arcs(self, tmp_path, capsys):
        assert main(["profile", spec_path(tmp_path, ALPHA1)]) == 0
        out = capsys.readouterr().out
        assert "min = 1" in out
        assert "max = 2" in out
        assert "arc0" in out and "arc1" in out

    def test_distinguish_modes(self, tmp_path, capsys):
        a = spec_path(tmp_path, ALPHA1, "a.cut")
        b = spec_path(
            tmp_path, ALPHA1.replace("1:0,1;1", "1:0,1;2"), "b.cut"
        )
        assert main(["distinguish", a, b]) == 0
        out = capsys.readouterr().out
        assert "result = distinguished" in out
        assert "mode = fixed-action" in out
        assert main(["distinguish", a, b, "--mod-gl2z"]) == 0
        out = capsys.readouterr().out
        assert "mode = modulo-GL2Z" in out
        assert "summary-a = min 1 max 2" in out
        assert "summary-b = min 2 max 3" in out

    def test_distinguish_same_spec_is_indistinguishable(self, tmp_path, capsys):
        a = spec_path(tmp_path, ALPHA1, "a.cut")
        b = spec_path(tmp_path, ALPHA1, "b.cut")
        assert main(["distinguish", a, b]) == 0
        assert "indistinguishable" in capsys.readouterr().out

    def test_rescaled_spec_agrees(self, tmp_path, capsys):
        a = spec_path(tmp_path, ALPHA1, "a.cut")
        b = spec_path(
            tmp_path,
            ALPHA1.replace("form.radial = 1", "form.radial = 0:3/2 1/2:1 1:2"),
            "b.cut",
        )
        assert main(["distinguish", a, b]) == 0
        assert "indistinguishable" in capsys.readouterr().out

    def test_overtwisted_certificate(self, tmp_path, capsys):
        assert main(["overtwisted", spec_path(tmp_path, ALPHA1)]) == 0
        out = capsys.readouterr().out
        assert "overtwisted = disk-found" in out
        assert "disk-t* = 2/5" in out

    def test_overtwisted_none(self, tmp_path, capsys):
        text = ALPHA1.replace("0:1,0 1:0,1;1", "0:1,0 1:0,1")
        assert main(["overtwisted", spec_path(tmp_path, text)]) == 0
        assert "overtwisted = none-found" in capsys.readouterr().out

    def test_homotopy_zero_listing(self, tmp_path, capsys):
        a = spec_path(tmp_path, ALPHA1.replace("1:0,1;1", "1:0,1"), "a.cut")
        b = spec_path(tmp_path, ALPHA1, "b.cut")
        assert main(["homotopy", a, b]) == 0
        out = capsys.readouterr().out
        assert "planar-zeros = 1" in out
        assert "zero0 = t = 1/2" in out

    def test_homotopy_endpoint_mismatch_is_3(self, tmp_path, capsys):
        # bare forms: collapse validity must not mask the endpoint check
        a = spec_path(tmp_path, "form.phi.breaks = 0:1,0 1:0,1\n", "a.cut")
        b = spec_path(tmp_path, "form.phi.breaks = 0:1,0 1:2,1;1\n", "b.cut")
        assert main(["homotopy", a, b]) == 3
        assert "differ at t=1" in capsys.readouterr().err

    def test_slice_line(self, tmp_path, capsys):
        path = spec_path(tmp_path, LINE)
        rc = main(
            ["slice", path, "--eta", "0,1", "--window", "-1,0;-2", "-1,0;1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "count = 3" in out
        assert out.count("kind = S1xS2") == 3
        assert out.count("overtwisted = none-found") == 3

    def test_slice_decreasing_window_is_2(self, tmp_path, capsys):
        # an inverted window is a bad option value: a usage error
        path = spec_path(tmp_path, LINE)
        rc = main(
            ["slice", path, "--eta", "0,1", "--window", "-1,0;1", "-1,0;-2"]
        )
        assert rc == 2
        assert "--window must be an increasing pair" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["cut"], ["profile"], ["overtwisted"], ["invariants", "--direction", "1,0"]],
    )
    def test_400_digit_collapse_direction(self, tmp_path, capsys, argv):
        # collapse0 beyond float range: phi(0) = Arg(collapse0) - pi/2
        x = 10**400
        text = (
            f"form.phi.breaks = 0:{x - 1},{-x} 1:0,1;1\n"
            f"form.radial = 1\ncollapse0 = {x},{x - 1}\ncollapse1 = 1,0\n"
        )
        path = spec_path(tmp_path, text)
        assert main([argv[0], path, *argv[1:]]) == 0
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err and err == ""

    def test_coordinate_beyond_the_int_str_digit_limit(self, tmp_path, capsys):
        # 5,000 digits: past Python's default 4,300-digit int <-> str limit
        x, x_1 = "1" + "0" * 4999, "9" * 4999
        text = (
            f"form.phi.breaks = 0:{x_1},-{x} 1:0,1;1\n"
            f"form.radial = 1\ncollapse0 = {x},{x_1}\ncollapse1 = 1,0\n"
        )
        limit = int_digit_limit()
        assert main(["check", spec_path(tmp_path, text)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and f"collapse0 = {x},{x_1}\n" in out and "valid = yes" in out
        assert int_digit_limit() == limit

    def test_homotopy_result_beyond_the_int_str_digit_limit(self, tmp_path, capsys):
        # 4,000-digit breakpoint denominators; the zero between the two
        # breakpoints has about 8,000 digits in its denominator
        d, e = "1" + "0" * 3998 + "9", "1" + "0" * 3998 + "7"
        a = spec_path(tmp_path, f"form.phi.breaks = 0:1,0 1/{d}:0,-1;1 1:0,1;1\n", "a.cut")
        b = spec_path(tmp_path, f"form.phi.breaks = 0:1,0 1/{e}:1,1 1:0,1;1\n", "b.cut")
        assert main(["homotopy", a, b]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "planar-zeros = 2" in out
        assert max(len(line) for line in out.splitlines()) > 16000
        assert main(["homotopy", a, b, "--format", "json"]) == 0
        items = json.loads(capsys.readouterr().out)["records"][0]["items"]
        assert {"zero0", "zero1", "planar-zeros"} <= {item["key"] for item in items}

    def test_homotopy_with_a_tiny_span_across_pi(self, tmp_path, capsys):
        # phi_a - phi_b sweeps about 2e-20 across pi on [1/3, 2/3]; the
        # float estimate of that sweep cancels to exactly 0
        x = 10**20
        tail = "1:0,-1;1\nform.radial = 1\ncollapse0 = 0,1\ncollapse1 = -1,0\n"
        a = spec_path(tmp_path, f"form.phi.breaks = 0:1,0 1/3:{-x},1 2/3:{-(x - 1)},-1;1 {tail}", "a")
        b = spec_path(tmp_path, f"form.phi.breaks = 0:1,0 1/3:{x + 1},1 2/3:{x},1 {tail}", "b")
        assert main(["homotopy", a, b]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "planar-zeros = 2" in out
        assert out.count("(~0.666666666667)") == 2

    def test_symplectization_check(self, tmp_path, capsys):
        assert main(["symplectization-check", spec_path(tmp_path, ALPHA1)]) == 0
        out = capsys.readouterr().out
        assert "verdict = commute" in out
        assert out.count("pass:") == 5


class TestReproduce:
    def test_text_contains_worked_count(self, capsys):
        assert main(["reproduce-paper", "--kmax", "1"]) == 0
        out = capsys.readouterr().out
        assert "cc(-1,1) = 1" in out
        assert "tag = standard-tight" in out

    def test_sections_present(self, capsys):
        assert main(["reproduce-paper", "--kmax", "2"]) == 0
        out = capsys.readouterr().out
        assert "[alpha[k=0]]" in out and "[alpha[k=2]]" in out
        assert "[distinguish[k=1,l=2]]" in out
        assert "[lens[k=2,l=3,j=3]]" in out
        assert "[line-slices]" in out

    def test_byte_identical_runs(self, capsys):
        assert main(["reproduce-paper", "--kmax", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["reproduce-paper", "--kmax", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_json_round_trips(self, capsys):
        assert main(["reproduce-paper", "--kmax", "1", "--format", "json"]) == 0
        out = capsys.readouterr().out
        r = report_from_json(out)
        assert render_json(r) == out
        assert r.records[0].title == "alpha[k=0]"

    def test_text_and_json_carry_the_same_records(self, capsys):
        assert main(["reproduce-paper", "--kmax", "20"]) == 0
        text = capsys.readouterr().out
        assert main(["reproduce-paper", "--kmax", "20", "--format", "json"]) == 0
        report = report_from_json(capsys.readouterr().out)
        header = [f"# command: {report.command}", f"# input: sha256:{report.input_digest}"]
        assert text.splitlines()[:2] == header
        rows = [
            (rec.title, it.key, it.exact, None if it.approx is None else fmt_float(it.approx))
            for rec in report.records
            for it in rec.items
        ]
        assert text_records(text) == rows
        titles = [rec.title for rec in report.records]
        assert len(titles) == len(set(titles)) == 21 + 190 + 12 + 1
        assert sum(line.startswith("[") for line in text.splitlines()) == len(titles)

    def test_pair_records_match_one_library_call_per_mode(self, capsys):
        # the pair table built the long way, one distinguish call per mode
        kmax = 30
        assert main(["reproduce-paper", "--kmax", str(kmax), "--format", "json"]) == 0
        report = report_from_json(capsys.readouterr().out)
        got = {r.title: r.items for r in report.records if r.title.startswith("distinguish[")}
        specs = [alpha_cutspec(k) for k in range(kmax + 1)]
        want = {}
        for k in range(1, kmax + 1):
            for l in range(k + 1, kmax + 1):
                w = distinguish(specs[k], specs[l], MODE_FIXED)
                g = distinguish(specs[k], specs[l], MODE_GL2Z)
                items = [Item("fixed-action", "indistinguishable" if w is None else "distinguished")]
                items += [] if w is None else cli._counts_items(w)
                items.append(Item("modulo-GL2Z", "indistinguishable" if g is None else "distinguished"))
                items += [] if g is None else cli._summary_items(g)
                want[f"distinguish[k={k},l={l}]"] = tuple(items)
        assert len(got) == kmax * (kmax - 1) // 2
        assert got == want


def report_from_json(text):
    """The `Report` that `render_json` rendered as text."""
    payload = json.loads(text)
    return Report(
        command=payload["command"],
        input_digest=payload["input_digest"],
        records=tuple(
            Record(
                title=rec["title"],
                items=tuple(
                    Item(key=it["key"], exact=it["exact"], approx=it["approx"])
                    for it in rec["items"]
                ),
            )
            for rec in payload["records"]
        ),
    )


def text_records(text):
    """(title, key, exact, approx) rows parsed back from a text report."""
    rows, title = [], None
    for line in text.splitlines()[2:]:
        if line.startswith("["):
            title = line[1:-1]
        elif line:
            key, value = line.split(" = ", 1)
            exact, sep, approx = value.partition(" (~")
            rows.append((title, key, exact, approx[:-1] if sep else None))
    return rows


class TestCliCost:
    def test_parser_is_built_once_per_process(self, monkeypatch):
        # the table reader reads every success path; the parser is built on
        # the first argv the reader declines, and reused after it
        built, parsed = [], []
        init, parse_args = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_args

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        def counting_parse_args(self, *args, **kwargs):
            parsed.append(args)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counting_parse_args)
        cli._parser.cache_clear()
        spec, partner = str(SPECS / "alpha1.cut"), str(SPECS / "alpha0.cut")
        success = [
            ["check", spec],
            ["cut", spec],
            ["invariants", spec, "--direction", "-1,1"],
            ["profile", spec],
            ["distinguish", spec, partner, "--mod-gl2z"],
            ["overtwisted", spec],
            ["homotopy", spec, partner, "--format", "json"],
            ["slice", str(SPECS / "line.cut"), "--eta", "0,1", "--window", "-1,0;-2", "-1,0;1"],
            ["symplectization-check", spec],
            ["reproduce-paper", "--kmax", "0"],
        ]
        assert sorted(argv[0] for argv in success) == sorted(c.name for c in cli._COMMANDS)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in success:
                assert main(argv) == 0
            assert built == parsed == []
            assert main(["cut", spec, "--format=json"]) == 0
            assert built[0] == "toruscut" and len(built) == 1 + len(cli._COMMANDS)
            built.clear()
            assert main(["invariants", spec, "--dir", "-1,1"]) == 0
            assert main(["cut", spec, "--format", "json", "--format", "text"]) == 0
        assert built == [] and len(parsed) == 3

    def test_homotopy_zero_positions_are_computed_once(self, monkeypatch):
        # the certificate computes no exact t; the CLI renders each zero with
        # str(point) and t_float(), which share the t cached in the point
        calls = []
        pi_multiple = AngleForm.pi_multiple

        def counting(self):
            calls.append(self)
            return pi_multiple(self)

        monkeypatch.setattr(AngleForm, "pi_multiple", counting)
        a, b = (str(SPECS / name) for name in ("alpha0.cut", "alpha2.cut"))
        cert = homotopy_certificate(parse_spec_file(a), parse_spec_file(b))
        assert len(cert.zeros) == 2 and calls == []
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["homotopy", a, b]) == 0
        assert "planar-zeros = 2" in out.getvalue()
        # offset and span once per zero
        assert len(calls) <= 2 * len(cert.zeros)


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit:
            return None


_SMALL = st.integers(-3, 3)
_PRIMITIVE = st.tuples(_SMALL, _SMALL).filter(lambda v: math.gcd(*v) == 1)
# values argparse accepts, keyed by the option's type (None: --format);
# pairs and angle literals may be negative
_PLAIN_VALUES = {
    cli._pair_arg: st.tuples(_SMALL, _SMALL).map("{0[0]},{0[1]}".format),
    cli._angle_arg: st.tuples(_PRIMITIVE, _SMALL).map("{0[0][0]},{0[0][1]};{0[1]}".format),
    cli._int_arg: st.integers(0, 5).map(str),
    None: st.sampled_from(("text", "json")),
}
_ODD_VALUES = st.sampled_from(
    ("xml", "-1", "-1_0", "-1,1", "-1,0;1", "-1,0;x", "-x", "x", "", "1,", "0,0", " 1", "-1 ")
)


@st.composite
def plain_argvs(draw):
    """A command and its words in the table's plain shape, as groups: one
    per file and one per option with its values, in any order."""
    cmd = draw(st.sampled_from(cli._COMMANDS))
    groups = [[path] for path in ("a.cut", "b.cut")[: len(cmd.files)]]
    for flag, kw in cmd.flags:
        if kw.get("required") or draw(st.booleans()):
            n = 0 if kw.get("action") == "store_true" else kw.get("nargs", 1)
            values = _PLAIN_VALUES[kw.get("type")]
            groups.append([flag, *(draw(values) for _ in range(n))])
    return cmd, draw(st.permutations(groups))


def _words(groups) -> list[str]:
    return [word for group in groups for word in group]


# mutations after which the reader must decline, then those after which it
# may read the argv as argparse does
_DECLINED = (
    "repeat", "abbreviate", "attach", "insert-dash", "extra-file", "drop-file", "dash-value",
)
_MUTATIONS = _DECLINED + ("odd-value", "drop-word", "random-token")


def _mutate(draw, kind, cmd, groups) -> list[str] | None:
    """The words after the subcommand, mutated by kind; None where the kind
    does not apply to them."""
    groups = [list(g) for g in groups]
    options = [g for g in groups if g[0].startswith("--")]
    valued = [g for g in options if len(g) > 1]
    # values that argparse reads as options: all but pairs and angle literals
    undashed = [g for g in valued if g[0] in ("--format", "--kmax")]
    pick = {
        "repeat": options, "abbreviate": options, "attach": valued,
        "odd-value": valued, "dash-value": undashed, "drop-file": [g for g in groups if g not in options],
    }.get(kind, [None])
    if not pick:
        return None
    g = draw(st.sampled_from(pick))
    at = draw(st.integers(0, len(groups)))
    if kind == "repeat":
        groups.insert(at, list(g))
    elif kind == "abbreviate":
        g[0] = g[0][: draw(st.integers(3, len(g[0]) - 1))]
    elif kind == "attach":
        g[:2] = [f"{g[0]}={g[1]}"]
    elif kind == "insert-dash":
        groups.insert(at, [draw(st.sampled_from(("-h", "--help", "--")))])
    elif kind == "extra-file":
        groups.insert(at, ["c.cut"])
    elif kind == "drop-file":
        groups.remove(g)
    elif kind in ("odd-value", "dash-value"):
        values = _ODD_VALUES if kind == "odd-value" else st.sampled_from(("-1", "-0", "-1_0"))
        g[draw(st.integers(1, len(g) - 1))] = draw(values)
    words = _words(groups)
    if kind == "drop-word" and words:
        del words[draw(st.integers(0, len(words) - 1))]
    elif kind == "random-token":
        words.insert(draw(st.integers(0, len(words))), draw(st.text(max_size=4)))
    return words


class TestTableArgs:
    """`cli._table_args` gives argparse's namespace, or declines."""

    @given(plain_argvs())
    @settings(derandomize=True, max_examples=150)
    def test_reads_the_plain_shape_as_argparse_does(self, drawn):
        cmd, groups = drawn
        argv = [cmd.name, *_words(groups)]
        got = cli._table_args(argv)
        assert got is not None and vars(got) == _argparse_vars(argv)

    @given(plain_argvs(), st.data())
    @settings(derandomize=True, max_examples=100)
    def test_declines_or_agrees_on_every_other_shape(self, drawn, data):
        cmd, groups = drawn
        for kind in _MUTATIONS:
            words = _mutate(data.draw, kind, cmd, groups)
            if words is None:
                continue
            argv = [cmd.name, *words]
            got = cli._table_args(argv)
            if kind in _DECLINED:
                assert got is None, kind
            elif got is not None:
                assert vars(got) == _argparse_vars(argv), kind

    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate", "a.cut"],
        ["--format", "json", "cut", "a.cut"],
        # a value that starts with '-' where argparse reads no such value
        ["reproduce-paper", "--kmax", "-1"],
        ["reproduce-paper", "--kmax", "-1_0"],
        ["cut", "a.cut", "--format", "-1"],
        ["cut", "-1.cut"],
        # a missing value or required option
        ["invariants", "a.cut", "--direction"],
        ["slice", "a.cut", "--eta", "0,1", "--window", "-1,0;1"],
        ["slice", "a.cut", "--eta", "0,1"],
        ["cut", "a.cut", "--format", "xml"],
    ])
    def test_declines(self, argv):
        assert cli._table_args(argv) is None

    def test_reads_every_golden_argv_that_runs(self):
        # help, and the argv- cases but the one with its option before the
        # file, are shapes that only argparse reads
        for name, argv in GOLDEN_CASES.items():
            code = (GOLDEN / f"{name}.out").read_text(encoding="utf-8").split("\n", 1)[0]
            if "--help" in argv or name.startswith("argv-") and name != "argv-option-first":
                assert cli._table_args(argv) is None, name
            elif code in ("exit 0", "exit 3"):
                got = cli._table_args(argv)
                assert got is not None and vars(got) == _argparse_vars(argv), name
