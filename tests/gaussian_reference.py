"""The exact tie test in Gaussian integers, for the tests: whether
sum(n * Arg(d)) is a multiple of pi/4, decided over a coprime base of the
directions and their conjugates in Z[i] by Euclid with rounded quotients.
It is apart from the package's own test (`angles._in_quarter_turns`,
which works with norms in Z), so each can check the other."""

import math

# Gaussian integers are pairs (x, y) <-> x + iy.


def _norm(a) -> int:
    return a[0] * a[0] + a[1] * a[1]


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gdiv(a, b):
    """a / b when b divides a in Z[i], else None."""
    n = _norm(b)
    re, im = a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]
    if re % n or im % n:
        return None
    return (re // n, im // n)


def _ggcd(a, b):
    """A greatest common divisor in Z[i]: Euclid with rounded quotients."""
    while b[0] or b[1]:
        n = _norm(b)
        re, im = a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]
        qb = _gmul(((2 * re + n) // (2 * n), (2 * im + n) // (2 * n)), b)
        a, b = b, (a[0] - qb[0], a[1] - qb[1])
    return a


def _coprime_base(elems) -> list:
    """Pairwise coprime non-units of Z[i] such that every element of elems
    is a unit times a product of their powers.

    Two elements a, b with a nontrivial gcd g are replaced by g and by a
    and b with every factor g divided out, until no pair shares a factor;
    each split lowers the product of all norms, so this ends.  Coprime
    norms skip the Gaussian gcd.
    """
    base, todo = [], [z for z in elems if _norm(z) > 1]
    while todo:
        a = todo.pop()
        na = _norm(a)
        for k, (b, nb) in enumerate(base):
            if math.gcd(na, nb) == 1:
                continue
            g = _ggcd(a, b)
            if _norm(g) > 1:
                del base[k]
                todo += [z for z in (g, _strip(a, g)[1], _strip(b, g)[1]) if _norm(z) > 1]
                break
        else:
            base.append((a, na))
    return [b for b, _ in base]


def _strip(z, b) -> tuple[int, tuple[int, int]]:
    """(e, z / b**e) for the largest e with b**e dividing z, by repeated
    squaring of b: O(log e) divisions."""
    q = _gdiv(z, b)
    if q is None:
        return 0, z
    e, q = _strip(q, _gmul(b, b))
    r = _gdiv(q, b)
    return (2 * e + 2, r) if r is not None else (2 * e + 1, q)


def in_quarter_turns(terms) -> bool:
    """Whether sum(n * Arg(d)) over integer n is a multiple of pi/4, exactly.

    It is iff w = prod d**n has w / conj(w) in {1, i, -1, -i}.  Over a
    coprime base of the d and their conjugates (conjugation permutes it),
    that holds iff every base element occurs in w and in conj(w) to the
    same exponent; the exponents are valuations, never powers of d.
    """
    zs = [(d.x, d.y) for d, _ in terms]
    conj = [(x, -y) for x, y in zs]
    for b in _coprime_base(zs + conj):
        if sum(n * (_strip(z, b)[0] - _strip(c, b)[0]) for (_, n), z, c in zip(terms, zs, conj)):
            return False
    return True
