"""Float references for the profiles: plain float evaluation, which the
tests use to cross-check exact decisions and the float coefficients of
reduced circles.  The package itself evaluates no profile in floats."""

from bisect import bisect_right


def phi_float(phi, t: float) -> float:
    """phi(t) by linear interpolation of the breakpoint values' floats."""
    i = max(0, min(len(phi.breaks) - 2, bisect_right(phi.breaks, t) - 1))
    t_lo, t_hi = float(phi.breaks[i]), float(phi.breaks[i + 1])
    v_lo, v_hi = phi.values[i].value(), phi.values[i + 1].value()
    if t_hi == t_lo:
        return v_lo
    lam = (t - t_lo) / (t_hi - t_lo)
    return v_lo + lam * (v_hi - v_lo)


def radial_float(r, t: float) -> float:
    """r(t) by a float Horner sum on the piece holding t: at an irrational
    point, what `RadialProfile.floats_along` must give to rounding."""
    i = max(0, min(len(r.pieces) - 1, bisect_right(r.breaks, t) - 1))
    u = t - float(r.breaks[i])
    acc = 0.0
    for c in reversed(r.pieces[i]):
        acc = acc * u + float(c)
    return acc
