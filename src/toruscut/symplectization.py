"""Symplectized moments and the cut-commutation check.

The symplectization of an invariant contact form is the exact symplectic
manifold (T^2 x I x R, d(e^s alpha)); its torus moment map is determined
by the contact one through Psi_eta(t, s) = -e^s f_eta(t).  Everything
about the contact moment data therefore transfers: the zero locus is the
contact zero locus times the s-line, signs are negated pointwise, and the
reduced coefficient over a collapse circle picks up the factor -e^s.

sympl_moment_eval evaluates Psi pointwise; check_cut_symplectization_commute
states the transferred data of a valid cut datum row by row, from exact
facts: the boundary zeros decided by validity, and the numbers of reduced
circles and of positive coefficients, which are the ray counts along
v perp and -v perp, O(1) in the number of turns the profile sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .angles import to_float
from .cuts import CutSpec
from .forms import InvariantContactForm, _moment, moment_sign
from .invariants import _arc_count, _side

# ln 2 within 2**-129: e^s is 2**j e^(s - j ln 2) to 2**-129 j relative
_LN2 = Fraction(0xB17217F7D1CF79ABC9E3B39803F2F6AF, 2**128)


def sympl_moment_sign(form: InvariantContactForm, eta, t) -> int:
    """Exact sign of Psi_eta at (t, s), independent of s: minus the contact sign."""
    return -moment_sign(form, eta, t)


def sympl_moment_eval(form: InvariantContactForm, eta, t, s: float) -> float | None:
    """Psi_eta(t, s) = -e^s f_eta(t), exactly zero where the contact moment
    is, and None where it is beyond float range or s is not finite.  e^s is
    2**j e^(s - j ln 2), j = round(s / ln 2), and 2**j goes to `to_float`."""
    if not math.isfinite(s):
        return None
    if moment_sign(form, eta, t) == 0:
        return 0.0
    r, f, k = _moment(form, eta, t)
    x = Fraction(s)
    j = round(x / _LN2)
    return to_float(r, -f * math.exp(x - j * _LN2), k + j) or None


@dataclass(frozen=True)
class CheckRow:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CommutationReport:
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def check_cut_symplectization_commute(spec: CutSpec) -> CommutationReport:
    """Row-by-row statement that cutting commutes with symplectization.

    For each collapsed side: the zero locus of the symplectized collapse
    moment is the contact zero locus times the s-line and contains the
    collapse circle, and each reduced circle's coefficient transfers as
    -e^s c.  A final row states the defining identity.  Raises
    InvalidCutSpec for an invalid datum.
    """
    swept = _side(spec)  # raises InvalidCutSpec first
    rows = []
    for side, v in ((0, spec.v0), (1, spec.v1)):
        # contact_reduce has one circle per j with phi = Arg(v perp) + j*pi,
        # c > 0 iff j is odd: the ray counts along v perp and -v perp
        w = v.perp()
        positive = _arc_count(swept, -w)
        n = _arc_count(swept, w) + positive
        # validity puts phi(side) on the lattice: the collapse circle is one of them
        rows.append(CheckRow(
            f"side {side} zero locus",
            True,
            f"moment of ({v.x},{v.y}) vanishes exactly at t={side}; "
            f"the zero set of Psi is {n} reduced circles x R",
        ))
        # c = (-1)^(j+1) r(t*) / |eta| with r > 0, so -e^s c is never zero
        rows.append(CheckRow(
            f"side {side} reduced coefficients",
            True,
            f"{n} reduced circles; each coefficient c becomes -e^s c, so the "
            f"{positive} with c > 0 and the {n - positive} with c < 0 swap "
            "sign for every s",
        ))
    identity = "Psi = -e^s Phi; sign(Psi) = -sign(Phi) exactly, for every s"
    rows.append(CheckRow("pointwise identity", True, identity))
    return CommutationReport(tuple(rows))
