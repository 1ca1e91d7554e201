"""Equivariant invariants of cut spaces and their certificates.

The central invariant counts connected components of the preimage of an
open ray under the torus moment map.  The ray through xi meets the moment
image once for every angle congruent to Arg(xi) mod 2 pi inside the swept
interval [lo, hi] of phi, and each hit is one component (a torus at
interior parameters, a circle at a collapsed boundary).  No invariant
therefore depends on the radial profile, and the count is q plus one arc
test: q is the number of whole turns swept (the difference of the end
turn counts, less one if the principal arguments wrap), and the count is
q + 1 exactly when the ray lies on the closed counterclockwise arc from
lo's direction to hi's, decided by signs of integer cross products.  Each
datum is read once for q and the two directions (`_side`), so no count
costs more for more turns.

cc_count is one such count and cc_profile the whole function xi -> count,
constant q + 1 and q on the two arcs cut out by the endpoint directions.
distinguish reads both data once and searches the candidate rays for
directions witnessing that two cut data cannot be matched by an
equivariant contactomorphism (in either orientation of the ray), or
compares the relabeling-invariant summary (min, max) when torus
automorphisms are allowed.  The candidate rays are a constant when every
arc end is a pi/4 direction and are generated lazily otherwise.  The
modulo-GL2Z answer is a function of the fixed-action witness, so a
caller that wants both searches once.

detect_overtwisted locates the standard disk family: as soon as the sweep
strictly exceeds pi, the parameter t* where phi has advanced by exactly pi
from a collapsed end bounds a disk whose boundary is tangent to the
contact planes.  homotopy_certificate connects two cut forms with the
same boundary directions through the straight-line interpolation of unit
covectors pushed off zero by the bump s(1 - s) in a third coordinate;
its planar zeros are enumerated exactly, in t order: they are the n
where (phi_a - phi_b - pi) / 2pi crosses the integers, one range per
merged segment by the lattice rule of the profile layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import pairwise

from .angles import (
    FULL_TURN,
    Angle,
    AngleForm,
    Direction,
    ZERO_ANGLE,
    _QUARTER_DIRS,
    _QUARTERS,
    _arg_compare,
    add_half_turns,
    add_turns,
    angle_sub,
    cross,
)
from .cuts import CutSpec, require_valid
from .errors import DomainMismatch, EndpointMismatch
from .forms import AngleProfile, InvariantContactForm, ProfilePoint, _lattice_ranges

MODE_FIXED = "fixed-action"
MODE_GL2Z = "modulo-GL2Z"

_BY_ARG = cmp_to_key(_arg_compare)  # directions by principal argument
# the eight pi/4 directions in increasing principal argument, k = -3..4
_STANDARD_DIRECTIONS = tuple(sorted(_QUARTER_DIRS, key=_BY_ARG))


def _form_of(obj) -> InvariantContactForm:
    # a cut datum must be valid; bare forms are taken as-is
    if isinstance(obj, CutSpec):
        require_valid(obj)
        return obj.form
    return obj


def _phi_of(obj) -> AngleProfile:
    # a bare profile is taken as-is
    return obj if isinstance(obj, AngleProfile) else _form_of(obj).phi


@dataclass(frozen=True, slots=True)
class Arc:
    """One arc of directions with a constant ray-component count.

    start/end are direction angles in the standard branch; the first arc
    of a profile is closed (count attained at both endpoints), the second
    open.  span is exact; sum over arcs of span x count telescopes to the
    sweep.
    """

    start: Angle
    end: Angle
    span: Angle
    count: int


@dataclass(frozen=True)
class CCProfile:
    """The full ray-count function of a cut datum.

    q whole turns plus a partial arc rho are swept, so the count is q + 1
    for rays meeting the partial arc (a single closed arc of length rho)
    and q elsewhere.  max_count is q + 1 even when rho = 0: the single
    endpoint direction then still collects both interval endpoints.
    """

    arcs: tuple[Arc, ...]
    min_count: int
    max_count: int
    swept: Angle


def _side(spec) -> tuple[int, Direction, Direction]:
    """(q, lo.dir, hi.dir): the whole turns q swept over [lo, hi], and the
    ends of the closed counterclockwise arc of rays whose count is q + 1.

    The principal parts of lo and hi differ by less than a full turn, so
    q = floor((hi - lo) / 2pi) is the difference of the turn counts, less
    one when Arg(hi.dir) < Arg(lo.dir).
    """
    lo, hi = _phi_of(spec).value_bounds()
    q = hi.turns - lo.turns - (_arg_compare(hi.dir, lo.dir) < 0)
    return q, lo.dir, hi.dir


def _arc_count(side, xi: Direction) -> int:
    """cc_count along xi, read from a side: q plus one if xi is on the arc."""
    q, a, b = side
    if a == b:
        return q + 1 if xi == a else q
    ax, xb = cross(a, xi) >= 0, cross(xi, b) >= 0
    # an arc of at most pi is the intersection of two closed half-planes,
    # a longer one their union
    on = (ax and xb) if cross(a, b) >= 0 else (ax or xb)
    return q + 1 if on else q


def cc_count(spec, xi) -> int:
    """Components of the preimage of the open ray through xi (a Direction
    or an integer pair, reduced to primitive form): the whole turns q, plus
    one when xi lies on the closed arc between the endpoint directions."""
    side = _side(spec)  # first: an invalid CutSpec raises before a zero xi
    return _arc_count(side, xi if isinstance(xi, Direction) else Direction.reduced(*xi))


def cc_profile(spec) -> CCProfile:
    """The count as a function of the ray, as exact arcs: q + 1 on the
    closed counterclockwise arc from a to b, q on the rest, with (q, a, b)
    the side of the datum.  When a == b the partial arc is the single
    direction a, and the one arc listed is the full turn at count q."""
    q, a, b = _side(spec)
    start, end = Angle(a), Angle(b)
    rho = angle_sub(end, start)  # the partial arc, in [0, 2pi)
    if rho < ZERO_ANGLE:
        rho = add_turns(rho, 1)
    if a == b:
        arcs = (Arc(start, start, FULL_TURN, q),)
    else:
        arcs = (Arc(start, end, rho, q + 1), Arc(end, start, angle_sub(FULL_TURN, rho), q))
    return CCProfile(arcs=arcs, min_count=q, max_count=q + 1, swept=add_turns(rho, q))


@dataclass(frozen=True)
class DistinguishWitness:
    """Directions certifying two cut data carry different invariants.

    In fixed-action mode both fields are set: counts differ along xi_plus,
    and along xi_minus with the second datum's ray negated (the two
    orientation cases an equivariant map could induce).  In
    modulo-GL2Z mode the comparison is between the relabeling-invariant
    summaries (min, max); xi_plus records one direction realizing the
    difference and xi_minus is None.
    """

    mode: str
    xi_plus: Direction
    counts_plus: tuple[int, int]
    xi_minus: Direction | None
    counts_minus: tuple[int, int] | None
    summary_a: tuple[int, int]
    summary_b: tuple[int, int]


def _candidates(ring):
    """(xi, -xi) for the candidate rays of a sorted ring that holds the
    standard eight, in increasing argument: each gap's representative, the
    vector sum of its ends (a gap is at most pi/4, so the sum lies strictly
    inside it), then the gap's upper end, the wrap-around gap first.  Lazy:
    a search stops at the first candidate that decides it."""
    for prev, d in pairwise((ring[-1], *ring)):
        rep = Direction.reduced(prev.x + d.x, prev.y + d.y)
        yield rep, -rep
        yield d, -d


_STANDARD_CANDIDATES = tuple(_candidates(_STANDARD_DIRECTIONS))  # all arc ends pi/4


def _critical_directions(*sides):
    """The `_candidates` of the standard eight (the pi/4 directions, keys of
    `_QUARTERS`) and each arc end with its negative: `_STANDARD_CANDIDATES`
    when all ends are standard, else all of them sorted by Arg; the set drops
    repeats, since primitive directions with one Arg are equal."""
    ends = [d for _, a, b in sides for d in (a, b) if (d.x, d.y) not in _QUARTERS]
    if not ends:
        return _STANDARD_CANDIDATES
    return _candidates(sorted({*_STANDARD_DIRECTIONS, *ends, *(-d for d in ends)}, key=_BY_ARG))


def distinguish(a, b, mode: str = MODE_FIXED) -> DistinguishWitness | None:
    """A witness that the two cut data differ, or None if this invariant
    cannot tell them apart.

    fixed-action mode requires both orientation cases to be witnessed;
    modulo-GL2Z mode compares the (min, max) summaries, which relabelings
    of the torus by GL(2, Z) cannot change since they permute rays.

    Each datum is read once: its whole turns q and the ends of the arc
    where the count is q + 1.  A count along a candidate ray is then an
    arc test by integer cross products, so the cost does not depend on
    turn counts, and on pi/4 data the candidates are a constant.  One
    search serves both modes: the plus witness is the first ray xi where
    the counts differ; fixed-action mode also needs the minus witness, the
    first xi where a's count differs from b's along -xi.

    modulo-GL2Z mode is None exactly when the fixed-action witness w is
    None or has equal summaries, and otherwise has w's summaries.  If a
    sweeps more whole turns, its count along an arc end e of a exceeds b's
    along every ray, so xi = e witnesses both cases; if b does, xi = e and
    xi = -e for an arc end e of b.  Either way w is not None.
    """
    if mode not in (MODE_FIXED, MODE_GL2Z):
        raise ValueError(f"unknown mode: {mode!r}")
    sa, sb = _side(a), _side(b)
    summary_a, summary_b = (sa[0], sa[0] + 1), (sb[0], sb[0] + 1)
    fixed = mode == MODE_FIXED
    if not fixed and summary_a == summary_b:
        return None
    plus = minus = None
    for xi, neg in _critical_directions(sa, sb):
        ca = _arc_count(sa, xi)
        if plus is None and ca != (cb := _arc_count(sb, xi)):
            plus = (xi, (ca, cb))
        if fixed and minus is None and ca != (cbn := _arc_count(sb, neg)):
            minus = (xi, (ca, cbn))
        if plus and (minus or not fixed):
            return DistinguishWitness(mode, *plus, *(minus or (None, None)), summary_a, summary_b)
    return None


@dataclass(frozen=True)
class OvertwistedCertificate:
    """One disk of the standard overtwisted family: the parameter t* where
    the profile has advanced by pi from the collapsed end t = 0, and the
    angle phi(t*) it reaches there."""

    point: ProfilePoint
    target: Angle


def detect_overtwisted(spec) -> OvertwistedCertificate | None:
    """The smallest disk certificate of the standard family, or None.

    A disk exists as soon as the total sweep strictly exceeds pi: the
    parameter t* where phi has advanced by pi (j = 1 half turn) from the
    t = 0 boundary (side 0) is then interior.  The disk over t in [0, t*],
    at any fixed value of the complementary invariant circle coordinate,
    has boundary tangent to the contact planes.  Ties at exactly pi put t*
    on the far boundary, which is collapsed, so no certificate.  None is
    not a tightness proof, only the absence of this family.
    """
    phi = _phi_of(spec)
    target = add_half_turns(phi.values[0], phi.orientation)
    # solve finds no t* beyond the sweep; at its end t* = t1 is collapsed
    if target == phi.values[-1] or (point := phi.solve(target)) is None:
        return None
    return OvertwistedCertificate(point, target)


@dataclass(frozen=True, slots=True)
class PlanarZero:
    """A parameter where the interpolated planar covectors cancel.

    The profiles differ there by odd_multiple pi, so at s = 1/2 the
    straight-line interpolation of the two unit covectors vanishes exactly;
    the third component of the homotopy is then 1/4.
    """

    point: ProfilePoint
    odd_multiple: int


@dataclass(frozen=True)
class HomotopyCertificate:
    """An explicit nowhere-zero homotopy between two cut covector fields.

    H(s, t) = ((1-s) cos a(t) + s cos b(t), (1-s) sin a(t) + s sin b(t),
    s(1-s)) with a, b the two angle profiles.  The third component
    vanishes only at s in {0, 1}, where the planar part is a unit vector,
    so H is never zero; the planar part vanishes only at s = 1/2 over the
    zeros and the zero intervals, where |H| = 1/4.
    """

    zeros: tuple[PlanarZero, ...]
    zero_intervals: tuple[tuple[Fraction, Fraction], ...]


_PI, _HALF = AngleForm((), 1), Fraction(1, 2)


def homotopy_certificate(a, b) -> HomotopyCertificate:
    """Nowhere-zero interpolation between the unit covector fields.

    Requires both boundary directions to agree (turn counts are free); the
    planar zeros, where the profiles differ by an odd multiple of pi, are
    enumerated exactly in one pass over the merged segments: the
    difference psi is an `AngleForm` at each merged breakpoint u_k and
    affine in between, so segment k's zeros are one range of n, the
    (2n + 1) pi that psi takes for t in (u_k, u_{k+1}]: `_lattice_ranges`
    of the floor and ceiling of x = (psi - pi) / 2pi at each u_k, less its
    last element when segment k + 1 is a zero interval, where x is one
    integer at both ends.  The only exact questions compare psi with odd
    multiples of pi: per breakpoint one `floor_ceil` of x, whose one
    bisection gives both integers, and no span sign.  No zero needs its
    exact t.  One merge walk over both breakpoint tuples gives the u_k and
    each profile's segment: at its own breakpoint a profile's value is its
    `Angle`, at the other's it is read on that segment in integers.
    """
    fa, fb = _form_of(a), _form_of(b)
    if fa.domain != fb.domain:
        raise DomainMismatch()
    pa, pb = fa.phi, fb.phi
    for end, (va, vb) in enumerate(
        ((pa.values[0], pb.values[0]), (pa.values[-1], pb.values[-1]))
    ):
        if va.dir != vb.dir:
            raise EndpointMismatch(end, va.dir, vb.dir)

    # psi = phi_a - phi_b, affine per merged segment; u is on segments i - 1 and j - 1
    A, B = pa.breaks, pb.breaks
    merged, psi, i, j = [], [], 0, 0
    while i < len(A):
        merged.append(u := min(A[i], B[j]))
        psi.append(pa._form_on(u, max(i - 1, 0)) - pb._form_on(u, max(j - 1, 0)))
        i, j = i + (A[i] == u), j + (B[j] == u)
    # psi = (2n + 1) pi where x = (psi - pi) / 2pi = n; one bisection gives x's floor and ceiling
    f, c = zip(*(((d - _PI) * _HALF).floor_ceil() for d in psi))
    # segment k is a zero interval: psi is constant there, at an odd multiple of pi
    interval = [f[k] == c[k] == f[k + 1] == c[k + 1] for k in range(len(f) - 1)] + [False]
    zeros: list[PlanarZero] = []
    intervals: list[tuple[Fraction, Fraction]] = []
    for k, (u0, u1, d0, ns) in enumerate(zip(merged, merged[1:], psi, _lattice_ranges(f, c))):
        if interval[k]:
            if interval[k - 1]:  # extend the interval that ends at u0
                intervals[-1] = (intervals[-1][0], u1)
            else:
                intervals.append((u0, u1))
            continue
        if interval[k + 1]:
            ns = ns[:-1]  # psi(u1) is odd: the zero at u1 starts the interval
        span = psi[k + 1] - d0 if ns else None
        for n in ns:
            point = ProfilePoint(k, u0, u1, _PI * (2 * n + 1) - d0, span)
            zeros.append(PlanarZero(point, 2 * n + 1))
    return HomotopyCertificate(tuple(zeros), tuple(intervals))
