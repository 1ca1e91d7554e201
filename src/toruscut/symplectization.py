"""Symplectized moments and the cut-commutation check.

The symplectization of an invariant contact form is the exact symplectic
manifold (T^2 x I x R, d(e^s alpha)); its torus moment map is determined
by the contact one through Psi_eta(t, s) = -e^s f_eta(t).  Everything
about the contact moment data therefore transfers: the zero locus is the
contact zero locus times the s-line, signs are negated pointwise, and the
reduced coefficient over a collapse circle picks up the factor -e^s.

sympl_moment_eval evaluates Psi pointwise; check_cut_symplectization_commute
states the transferred data of a valid cut datum row by row, from exact
facts: the boundary zeros decided by validity, the reduced circles of
contact_reduce, and the signs of their coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .angles import Direction
from .cuts import CutSpec, contact_reduce, require_valid
from .forms import InvariantContactForm, moment_eval, moment_sign


def _pair(eta) -> tuple[int, int]:
    return eta.as_tuple() if isinstance(eta, Direction) else tuple(eta)


def sympl_moment_sign(form: InvariantContactForm, eta, t) -> int:
    """Exact sign of Psi_eta at (t, s), independent of s: minus the contact sign."""
    return -moment_sign(form, _pair(eta), t)


def sympl_moment_eval(form: InvariantContactForm, eta, t, s: float) -> float:
    """Psi_eta(t, s) = -e^s f_eta(t), exactly zero where the contact moment is."""
    value, sign = moment_eval(form, _pair(eta), t)
    if sign == 0:
        return 0.0
    return -math.exp(s) * value


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
    require_valid(spec)
    rows = []
    for side, v in ((0, spec.v0), (1, spec.v1)):
        circles = contact_reduce(spec.form, v)
        n, positive = len(circles), sum(c.sign > 0 for c in circles)
        # the collapse circle is the reduced circle at the boundary parameter
        collapsed = any(c.point.t_fraction() == side for c in circles)
        rows.append(CheckRow(
            f"side {side} zero locus",
            collapsed,
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
