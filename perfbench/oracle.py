"""Independent answers for the benchmark's checks.

Nothing here imports toruscut.  Angles are kept as a primitive integer
vector plus a whole number of turns, the same data the spec files carry,
but every decision is recomputed from scratch:

* a vector on an axis or a diagonal has an argument that is an exact
  multiple of pi/4, so values built only from those are exact Fractions
  (in units of pi) and every count, zero location and sign is exact;
* any other vector is evaluated with atan2 after shifting both
  coordinates into float range, and the workloads only ask questions
  whose answer is not within float error of a tie.

Values are in units of pi throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

# principal argument / pi of the eight directions that are rational
# multiples of pi (axes and diagonals)
_EXACT = {
    (1, 0): Fraction(0),
    (1, 1): Fraction(1, 4),
    (0, 1): Fraction(1, 2),
    (-1, 1): Fraction(3, 4),
    (-1, 0): Fraction(1),
    (-1, -1): Fraction(-3, 4),
    (0, -1): Fraction(-1, 2),
    (1, -1): Fraction(-1, 4),
}
_EXACT_DIR = {v: k for k, v in _EXACT.items()}


def reduce_vec(x: int, y: int) -> tuple[int, int]:
    g = math.gcd(x, y)
    return x // g, y // g


def principal(v: tuple[int, int]):
    """Arg(v) / pi in (-1, 1]: a Fraction on the eight exact directions,
    otherwise a float."""
    v = reduce_vec(*v)
    exact = _EXACT.get(v)
    if exact is not None:
        return exact
    x, y = v
    shift = max(abs(x).bit_length(), abs(y).bit_length()) - 60
    if shift > 0:
        x, y = x >> shift, y >> shift
    return math.atan2(y, x) / math.pi


class OAngle:
    """Arg(vec) + 2 pi turns, with vec reduced to primitive form."""

    __slots__ = ("vec", "turns", "p")

    def __init__(self, vec, turns: int = 0):
        self.vec = reduce_vec(*vec)
        self.turns = turns
        self.p = principal(self.vec)

    @staticmethod
    def of_pi(r: Fraction) -> "OAngle":
        """The exact angle r*pi, r a multiple of 1/4."""
        r = Fraction(r)
        n = math.ceil((r - 1) / 2)
        return OAngle(_EXACT_DIR[r - 2 * n], n)

    def literal(self) -> str:
        return f"{self.vec[0]},{self.vec[1]};{self.turns}"

    def value(self):
        return self.p + 2 * self.turns

    def neg_vec(self) -> tuple[int, int]:
        return (-self.vec[0], -self.vec[1])


def _half_plane(v: tuple[int, int]) -> int:
    """Rank of the part of (-pi, pi] holding Arg(v): lower half-plane,
    positive x-axis, upper half-plane, negative x-axis."""
    x, y = v
    if y < 0:
        return 0
    if y == 0:
        return 1 if x > 0 else 3
    return 2


def arg_sign(u: tuple[int, int], v: tuple[int, int]) -> int:
    """Exact sign of Arg(u) - Arg(v), from integer cross products.

    Floats cannot order two directions of 64 or more bits that differ by
    less than their rounding error; this can.
    """
    hu, hv = _half_plane(u), _half_plane(v)
    if hu != hv:
        return 1 if hu > hv else -1
    if hu in (1, 3):
        return 0
    cross = u[0] * v[1] - u[1] * v[0]
    return (cross < 0) - (cross > 0)


def diff(a: OAngle, b: OAngle) -> tuple[int, object, int]:
    """(a - b)/pi as (n, f, s) meaning 2n + f, f in (-2, 2), s the exact
    sign of f.

    f is exact (a Fraction) when both arguments are exact multiples of pi
    or when the vectors are equal or opposite; otherwise a float.  Keeping
    the turn difference as an integer keeps huge turn counts exact.
    """
    n = a.turns - b.turns
    if a.vec == b.vec:
        return n, Fraction(0), 0
    if a.vec == b.neg_vec():
        s = 1 if a.p > b.p else -1
        return n, Fraction(s), s
    return n, a.p - b.p, arg_sign(a.vec, b.vec)


def total(d) -> object:
    n, f, _ = d
    return 2 * n + f


def floor_half(d) -> int:
    """floor(value / 2) of a diff."""
    n, _, s = d
    return n - (s < 0)


def ceil_half(d) -> int:
    n, _, s = d
    return n + (s > 0)


def sign_of(d) -> int:
    n, _, s = d
    if n:
        return 1 if n > 0 else -1  # |f| < 2
    return s


def ray_count(theta: OAngle, lo: OAngle, hi: OAngle) -> int:
    """Number of theta + 2 pi k inside the closed interval [lo, hi]."""
    base = OAngle(theta.vec, 0)
    k_max = floor_half(diff(hi, base))
    k_min = ceil_half(diff(lo, base))
    return max(0, k_max - k_min + 1)


def ordered(values: list[OAngle]) -> tuple[OAngle, OAngle]:
    lo, hi = values[0], values[-1]
    return (lo, hi) if sign_of(diff(hi, lo)) >= 0 else (hi, lo)


def swept(values: list[OAngle]):
    """|phi(end) - phi(start)| / pi."""
    lo, hi = ordered(values)
    return total(diff(hi, lo))


def count_summary(values: list[OAngle]) -> tuple[int, int]:
    """(min, max) of the ray count over all directions: q and q + 1 for q
    whole turns swept."""
    lo, hi = ordered(values)
    q = floor_half(diff(hi, lo))
    return q, q + 1


def _candidate_dirs(value_lists) -> list:
    """Principal arguments at which a count function can change, plus one
    point strictly inside every gap between them."""
    ps = []
    for values in value_lists:
        for a in (values[0], values[-1]):
            ps.append(OAngle(a.vec))
            ps.append(OAngle(a.neg_vec()))
    ps.sort(key=lambda o: float(o.p))
    cands = list(ps)
    floats = sorted({float(o.p) for o in ps})
    for x, y in zip(floats, floats[1:] + [floats[0] + 2]):
        mid = (x + y) / 2
        if mid > 1:
            mid -= 2
        cands.append(mid)
    return cands


def _count_at(cand, lo: OAngle, hi: OAngle, negate: bool = False) -> int:
    if isinstance(cand, OAngle):
        theta = OAngle(cand.neg_vec()) if negate else cand
        return ray_count(theta, lo, hi)
    p = cand + (1 if negate else 0)
    if p > 1:
        p -= 2
    k_max = math.floor((float(total(diff(hi, OAngle((1, 0))))) - p) / 2)
    k_min = math.ceil((float(total(diff(lo, OAngle((1, 0))))) - p) / 2)
    return max(0, k_max - k_min + 1)


def distinguishable(a_vals, b_vals, fixed: bool) -> bool:
    """Whether some ray count tells the two profiles apart.

    Fixed-action mode needs a direction where the counts differ and one
    where a's count differs from b's count on the opposite ray; modulo
    GL(2,Z) compares the (min, max) summaries.
    """
    if not fixed:
        return count_summary(a_vals) != count_summary(b_vals)
    la, ha = ordered(a_vals)
    lb, hb = ordered(b_vals)
    plus = minus = False
    for c in _candidate_dirs([a_vals, b_vals]):
        ca = _count_at(c, la, ha)
        plus = plus or ca != _count_at(c, lb, hb)
        minus = minus or ca != _count_at(c, lb, hb, negate=True)
    return plus and minus


def interpolate(t_lo, t_hi, v_lo: OAngle, v_hi: OAngle, target: OAngle):
    """Parameter in [t_lo, t_hi] where the affine piece from v_lo to v_hi
    takes the value target (exact when the values are exact)."""
    num = total(diff(target, v_lo))
    den = total(diff(v_hi, v_lo))
    if isinstance(num, Fraction) and isinstance(den, Fraction):
        return t_lo + (t_hi - t_lo) * num / den
    return float(t_lo) + float(t_hi - t_lo) * float(num) / float(den)


def solve(breaks, values: list[OAngle], target: OAngle):
    """The parameter where a monotone profile takes the value target, or
    None when target is out of range.  A hit on a breakpoint is reported
    as that breakpoint."""
    for i in range(len(breaks) - 1):
        s0 = sign_of(diff(target, values[i]))
        s1 = sign_of(diff(target, values[i + 1]))
        if s0 == 0:
            return breaks[i]
        if s1 == 0:
            return breaks[i + 1]
        if s0 != s1:
            return interpolate(breaks[i], breaks[i + 1], values[i], values[i + 1], target)
    return None


def value_at(breaks, values: list[OAngle], t, ref: OAngle):
    """(phi(t) - ref) / pi at rational t, exact for exact data."""
    for i in range(len(breaks) - 1):
        if breaks[i] <= t <= breaks[i + 1]:
            lam = Fraction(t - breaks[i]) / (breaks[i + 1] - breaks[i])
            d0 = total(diff(values[i], ref))
            d1 = total(diff(values[i + 1], ref))
            if isinstance(d0, Fraction) and isinstance(d1, Fraction):
                return d0 + lam * (d1 - d0)
            return float(d0) + float(lam) * (float(d1) - float(d0))
    raise ValueError("t outside the profile's domain")


def moment_sign(breaks, values: list[OAngle], eta: tuple[int, int], t) -> int:
    """Sign of m cos phi(t) + n sin phi(t) = |eta| cos(phi(t) - Arg(eta))."""
    x = value_at(breaks, values, t, OAngle(eta))
    if isinstance(x, Fraction):
        x = x % 2
        if x in (Fraction(1, 2), Fraction(3, 2)):
            return 0
        return 1 if (x < Fraction(1, 2) or x > Fraction(3, 2)) else -1
    c = math.cos(math.pi * math.fmod(x, 2.0))
    return 1 if c > 0 else -1


def planar_zeros(breaks_a, vals_a, breaks_b, vals_b) -> list:
    """Parameters where two profiles differ by an odd multiple of pi.

    The difference is affine between consecutive merged breakpoints, so
    scanning that grid finds every crossing; each is located by linear
    interpolation (exact on exact data).
    """
    ref = OAngle((1, 0))
    grid = sorted(set(breaks_a) | set(breaks_b))
    d = [value_at(breaks_a, vals_a, u, ref) - value_at(breaks_b, vals_b, u, ref) for u in grid]
    zeros = []
    for i in range(len(grid) - 1):
        d0, d1 = d[i], d[i + 1]
        lo, hi = min(d0, d1), max(d0, d1)
        k = math.ceil((lo - 1) / 2)
        while 2 * k + 1 <= hi:
            odd = 2 * k + 1
            k += 1
            if odd == d0 and i > 0:
                continue  # counted as the previous piece's right end
            if d1 == d0:
                continue  # constant difference: an interval, not a point
            u = grid[i] + (grid[i + 1] - grid[i]) * ((odd - d0) / (d1 - d0))
            zeros.append(u)
    return sorted(zeros, key=float)


def lattice_hits(breaks, values: list[OAngle], base: OAngle) -> list:
    """All (j, t) with phi(t) = base + j*pi, walking the segments once.

    The positions are kept as integer turn differences plus a small
    remainder, so they stay accurate for profiles sitting 10^12 turns up.
    """
    ds = [diff(v, base) for v in values]
    hits = []
    for i in range(len(values) - 1):
        (n0, f0, _), (n1, f1, _) = ds[i], ds[i + 1]
        lo, hi = (ds[i], ds[i + 1]) if sign_of(diff(values[i + 1], values[i])) > 0 else (ds[i + 1], ds[i])
        j_lo = 2 * lo[0] + math.ceil(lo[1])
        j_hi = 2 * hi[0] + math.floor(hi[1])
        span = 2 * (n1 - n0) + (f1 - f0)
        for j in range(j_lo, j_hi + 1):
            off = (j - 2 * n0) - f0
            if i > 0 and off == 0:
                continue  # reported as the previous segment's end
            t_lo, t_hi = breaks[i], breaks[i + 1]
            if isinstance(off, Fraction) and isinstance(span, Fraction):
                hits.append((j, t_lo + (t_hi - t_lo) * off / span))
            else:
                hits.append((j, float(t_lo) + float(t_hi - t_lo) * float(off) / float(span)))
    hits.sort(key=lambda h: float(h[1]))
    return hits


def half_lattice_count(lo: OAngle, hi: OAngle, base: OAngle) -> int:
    """Number of j with base + j*pi in [lo, hi]."""
    a, b = diff(lo, base), diff(hi, base)
    return max(0, 2 * b[0] + math.floor(b[1]) - (2 * a[0] + math.ceil(a[1])) + 1)


def gl2z_lens(v0: tuple[int, int], v1: tuple[int, int]) -> tuple[str, int, int]:
    """(kind, x, y mod x) of the cut space with collapse vectors v0, v1.

    x = det(v1, v0) up to the orientation fixed by mapping v0 to (0, 1);
    y is v1 paired with any integer row r with r . v0 = 1, defined modulo x.
    """
    a, b = v0
    c, d = v1
    x = b * c - a * d
    g, r, s = _egcd(a, b)
    y = r * c + s * d
    if x == 0:
        return "S1xS2", 0, y
    kind = "Sphere3" if abs(x) == 1 else ("Sphere3" if y % x == 0 else "Lens")
    return kind, x, y % x


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, r, s) with r a + s b = g = gcd(a, b) >= 0, iteratively."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))
