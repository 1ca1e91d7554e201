"""Golden CLI corpus: every subcommand on every sample spec, byte for byte.

Each case runs the command line in-process from the repository root, so
the paths echoed in reports are stable, and compares its exit code,
stdout and stderr with tests/golden/<case>.out.  The corpus pins the
output of the code as it stands; a deliberate output change edits the
affected files by hand.
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


def _cases() -> dict[str, list[str]]:
    cases = {}
    for spec in SPECS:
        stem = Path(spec).stem
        for argv in (
            ["check", spec],
            ["cut", spec],
            ["invariants", spec, "--direction", "-1,1"],
            ["profile", spec],
            ["distinguish", spec, PARTNER],
            ["overtwisted", spec],
            ["homotopy", spec, PARTNER],
            ["slice", spec, "--eta", "0,1", "--window", "-1,0;-2", "-1,0;1"],
            ["symplectization-check", spec],
        ):
            for fmt in ("text", "json"):
                cases[f"{argv[0]}-{stem}-{fmt}"] = argv + ["--format", fmt]
    for fmt in ("text", "json"):
        cases[f"reproduce-paper-kmax3-{fmt}"] = [
            "reproduce-paper", "--kmax", "3", "--format", fmt
        ]
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
    assert run_case(CASES[name]) == (GOLDEN / f"{name}.out").read_bytes()
