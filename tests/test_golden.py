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
    # equal breakpoints and no radial line: the error names the phi line
    cases["check-equal-breaks"] = ["check", "tests/golden/equal_breaks.cut"]
    # a 401-digit collapse coordinate and a 401-digit radial value: the
    # boundary moment is beyond float range, reported without a float
    for stem in ("huge_collapse", "huge_radial"):
        for sub in ("check", "cut"):
            cases[f"{sub}-{stem.replace('_', '-')}"] = [sub, f"tests/golden/{stem}.cut"]
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
