"""Golden CLI corpus: every subcommand on every sample spec, byte for byte.

Each case runs the command line in-process from the repository root, so
the paths echoed in reports are stable, and compares its exit code,
stdout and stderr with tests/golden/<case>.out.  The corpus pins the
output of the code as it stands; a deliberate output change edits the
affected files by hand.  Besides the reports it pins the bytes argparse
prints: usage errors, and the help of the program and of every
subcommand, at a fixed terminal width (COLUMNS=80).
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from toruscut.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
# the sample specs plus one invalid cut, which pins check's violation report
SPECS = [p.relative_to(ROOT).as_posix() for p in sorted((ROOT / "specs").glob("*.cut"))]
SPECS.append("tests/golden/wrong_sign.cut")
PARTNER = "specs/alpha1.cut"
SUBCOMMANDS = (
    "check", "cut", "invariants", "profile", "distinguish", "overtwisted",
    "homotopy", "slice", "symplectization-check", "reproduce-paper",
)


def _cases() -> dict[str, list[str]]:
    cases = {}
    for spec in SPECS:
        stem = Path(spec).stem
        for label, argv in (
            ("check", ["check", spec]),
            ("cut", ["cut", spec]),
            ("invariants", ["invariants", spec, "--direction", "-1,1"]),
            ("profile", ["profile", spec]),
            ("distinguish", ["distinguish", spec, PARTNER]),
            ("distinguish-mod-gl2z", ["distinguish", spec, PARTNER, "--mod-gl2z"]),
            ("overtwisted", ["overtwisted", spec]),
            ("homotopy", ["homotopy", spec, PARTNER]),
            ("slice", ["slice", spec, "--eta", "0,1", "--window", "-1,0;-2", "-1,0;1"]),
            ("symplectization-check", ["symplectization-check", spec]),
        ):
            for fmt in ("text", "json"):
                cases[f"{label}-{stem}-{fmt}"] = argv + ["--format", fmt]
    for kmax in ("0", "3"):
        for fmt in ("text", "json"):
            cases[f"reproduce-paper-kmax{kmax}-{fmt}"] = [
                "reproduce-paper", "--kmax", kmax, "--format", fmt
            ]
    cases["reproduce-paper-kmax-negative"] = ["reproduce-paper", "--kmax", "-1"]
    # argparse's own message for a --kmax that is not an integer; a digit
    # separator is no ASCII digit, in an option as in a spec file
    cases["reproduce-paper-kmax-not-int"] = ["reproduce-paper", "--kmax", "x"]
    cases["reproduce-paper-kmax-separator"] = ["reproduce-paper", "--kmax", "1_0"]
    cases["usage-invariants-direction-separator"] = [
        "invariants", PARTNER, "--direction", "1_0,1"
    ]
    # an option value is stripped as a whole, as an angle literal is; a
    # blank inside it is a grammar error
    cases["invariants-direction-outer-blank"] = ["invariants", PARTNER, "--direction", " -1,1"]
    cases["reproduce-paper-kmax-outer-blank"] = ["reproduce-paper", "--kmax", " 1"]
    cases["usage-invariants-direction-inner-blank"] = [
        "invariants", PARTNER, "--direction", "-1, 1"
    ]
    cases["check-unreadable"] = ["check", "specs/missing.cut"]
    cases["usage-no-subcommand"] = []
    cases["usage-unknown-subcommand"] = ["frobnicate", PARTNER]
    cases["usage-invariants-no-direction"] = ["invariants", PARTNER]
    cases["usage-invariants-direction-1"] = ["invariants", PARTNER, "--direction", "1"]
    cases["usage-slice-bad-window"] = [
        "slice", "specs/line.cut", "--eta", "0,1", "--window", "1,x", "-1,0;1"
    ]
    # a malformed literal that starts with '-' is still a value, and is named
    cases["usage-slice-dash-word"] = [
        "slice", "specs/line.cut", "--eta", "0,1", "--window", "-1,0;x", "-1,0;1"
    ]
    cases["usage-slice-window-order"] = [
        "slice", "specs/line.cut", "--eta", "0,1", "--window", "1,0;1", "1,0;0"
    ]
    # a ';' needs its turn count, in an option as in a spec file
    cases["usage-slice-window-empty-turns"] = [
        "slice", "specs/line.cut", "--eta", "0,1", "--window", "-1,0;", "-1,0;1"
    ]
    # equal breakpoints and no radial line: the error names the phi line
    cases["check-equal-breaks"] = ["check", "tests/golden/equal_breaks.cut"]
    # and with a radial line: the phi line is named, before the radial is read
    cases["check-equal-breaks-radial"] = ["check", "tests/golden/equal_breaks_radial.cut"]
    # a spec that is not UTF-8 (a Latin-1 byte in a comment) is unreadable input
    cases["check-not-utf8"] = ["check", "tests/golden/not_utf8.cut"]
    # grammar errors of the spec reader, each naming the line of its key: a
    # collapse that is not a pair or not integers, an empty radial, a bad and
    # a non-primitive angle literal, a radial token without t:, a domain
    # that is not a pair, angle integers with digit separators or non-ASCII
    # digits, a file without form.phi.breaks, named after its last line, and
    # an angle literal whose ';' has no turn count
    for stem in (
        "bad_pair", "bad_ints", "empty_radial", "bad_angle", "nonprimitive_angle",
        "radial_token", "domain_pair", "digit_separators", "non_ascii_digits", "no_phi",
        "empty_turns",
    ):
        cases[f"check-{stem.replace('_', '-')}"] = ["check", f"tests/golden/{stem}.cut"]
    # a 401-digit collapse coordinate and a 401-digit radial value: the
    # boundary moment is beyond float range, reported without a float
    for stem in ("huge_collapse", "huge_radial"):
        for sub in ("check", "cut"):
            cases[f"{sub}-{stem.replace('_', '-')}"] = [sub, f"tests/golden/{stem}.cut"]
    # a radial value of 10^-400: the boundary moment is below float range,
    # reported without a float too, not as 0
    cases["check-tiny-radial"] = ["check", "tests/golden/tiny_radial.cut"]
    # an affine radial that reaches 0 inside the domain: a semantic error
    # naming the radial line and the first breakpoint where it is not positive
    cases["check-nonpositive-radial"] = ["check", "tests/golden/nonpositive_radial.cut"]
    # a phi that turns back and a phi constant on a segment: the form is not
    # contact, a semantic error naming the phi line
    cases["check-nonmonotone"] = ["check", "tests/golden/nonmonotone.cut"]
    cases["cut-zero-slope"] = ["cut", "tests/golden/zero_slope.cut"]
    # and with a second bad line, a radial 1/0 (a grammar error) or a domain
    # other than the breakpoints': the phi line is named, before the other
    for stem in ("nonmonotone_bad_radial", "nonmonotone_bad_domain"):
        cases[f"check-{stem.replace('_', '-')}"] = ["check", f"tests/golden/{stem}.cut"]
    # a 401-digit breakpoint: the exact t of a disk or a planar zero is
    # beyond float range and is reported without a float
    cases["overtwisted-huge-breaks"] = ["overtwisted", "tests/golden/huge_breaks.cut"]
    cases["homotopy-huge-breaks"] = [
        "homotopy", "tests/golden/huge_breaks.cut", "tests/golden/huge_breaks_partner.cut"
    ]
    # the difference of the profiles rises across odd multiples of pi, stays
    # at 5 pi over a segment (a zero interval) and falls back across them
    for fmt in ("text", "json"):
        cases[f"homotopy-interval-{fmt}"] = [
            "homotopy", "tests/golden/interval.cut", "tests/golden/interval_partner.cut",
            "--format", fmt,
        ]
    # the difference is constant at -pi over a segment whose ends are written
    # with two different pairs of opposite directions that are not pi/4, so
    # the exact tie test decides the segment's slope and its pi multiple
    for fmt in ("text", "json"):
        cases[f"homotopy-opposite-dirs-{fmt}"] = [
            "homotopy", "tests/golden/opposite_dirs.cut",
            "tests/golden/opposite_dirs_partner.cut", "--format", fmt,
        ]
    # the ray count at the arc ends of lens21_j1 and at their negatives, on
    # a non-primitive direction, and on the zero vector (exit 3)
    for direction in ("1,0", "-1,0", "2,1", "-2,-1", "4,-2"):
        label = direction.replace("-", "m").replace(",", "_")
        for fmt in ("text", "json"):
            cases[f"invariants-lens21_j1-along-{label}-{fmt}"] = [
                "invariants", "specs/lens21_j1.cut", "--direction", direction, "--format", fmt
            ]
    cases["invariants-lens21_j1-along-zero"] = [
        "invariants", "specs/lens21_j1.cut", "--direction", "0,0"
    ]
    # a sphere cut sweeping 10^20 whole turns, and a bare form whose profile
    # starts and ends on one direction (a single arc of a full turn)
    for fmt in ("text", "json"):
        cases[f"profile-turns-{fmt}"] = ["profile", "tests/golden/turns.cut", "--format", fmt]
        cases[f"invariants-turns-{fmt}"] = [
            "invariants", "tests/golden/turns.cut", "--direction", "-1,1", "--format", fmt
        ]
        cases[f"profile-one-direction-{fmt}"] = [
            "profile", "tests/golden/one_direction.cut", "--format", fmt
        ]
    # on the 10^20-turn cut, the two argv shapes that argparse reads (an
    # attached value, an abbreviation) and the symplectization check
    cases["argv-attached-value-turns"] = [
        "invariants", "tests/golden/turns.cut", "--direction=-1,1"
    ]
    cases["argv-abbreviation-turns"] = ["invariants", "tests/golden/turns.cut", "--dir", "-1,1"]
    cases["symplectization-check-turns"] = ["symplectization-check", "tests/golden/turns.cut"]
    # a sphere cut sweeping 10^400 whole turns, its bare form, and one of
    # 10^308 turns: 2 pi times the turns is beyond float range, so the swept
    # angle and the window are shown without a float (null in json)
    huge = 10**400
    for fmt in ("text", "json"):
        cases[f"profile-huge-turns-{fmt}"] = [
            "profile", "tests/golden/huge_turns.cut", "--format", fmt
        ]
    cases["check-huge-turns-bare"] = ["check", "tests/golden/huge_turns_bare.cut"]
    cases["slice-huge-turns"] = [
        "slice", "tests/golden/huge_turns.cut", "--eta", "0,1",
        "--window", f"-1,0;{huge - 2}", f"-1,0;{huge}",
    ]
    cases["profile-turns-e308-json"] = [
        "profile", "tests/golden/turns_e308.cut", "--format", "json"
    ]
    # argv shapes outside the command table's plain form, which argparse reads:
    # an attached value, an abbreviation, a repeat (the last one wins), an
    # option before the file, and a missing value
    cases["argv-attached-value"] = ["invariants", PARTNER, "--direction=-1,1"]
    cases["argv-abbreviation"] = ["invariants", PARTNER, "--dir", "-1,1"]
    cases["argv-repeated-format"] = ["cut", PARTNER, "--format", "json", "--format", "text"]
    cases["argv-option-first"] = ["invariants", "--direction", "-1,1", PARTNER]
    cases["argv-missing-value"] = ["invariants", PARTNER, "--direction"]
    cases["help"] = ["--help"]
    for name in SUBCOMMANDS:
        cases[f"help-{name}"] = [name, "--help"]
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> bytes:
    """Exit code, stdout and stderr of one in-process CLI run, as bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return text.encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to it
    assert run_case(CASES[name]) == (GOLDEN / f"{name}.out").read_bytes()


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.endswith("-json")))
def test_json_is_strict(name, monkeypatch):
    """Every json report parses as strict JSON: no NaN and no Infinity."""
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(CASES[name])
    if out.getvalue():  # a json case that fails prints nothing on stdout
        json.loads(out.getvalue(), parse_constant=_not_json)


# a Python repr in a message: a dataclass, a Fraction, or a tuple of ints
_REPR = re.compile(r"Direction\(|Angle\(|Fraction\(|\(-?\d+, -?\d+\)")


def test_messages_are_in_the_input_grammar():
    # errors print vectors as x,y and angles as x,y;n, as a spec file writes them
    outs = sorted(GOLDEN.glob("*.out"))
    assert len(outs) == len(CASES)
    for path in outs:
        stderr = path.read_text(encoding="utf-8").partition("--- stderr\n")[2]
        assert not _REPR.search(stderr), path.name
