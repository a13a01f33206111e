"""Freely reduced words over a ranked alphabet.

A word is a tuple of nonzero ints: letter ``k > 0`` is the k-th generator,
``-k`` its inverse.  All functions keep words freely reduced, so tuples can
be compared directly for equality in the ambient free group.
"""

from .errors import MalformedWordError


def letter_key(letter):
    """Sort key putting letters in the order 1 < -1 < 2 < -2 < ..."""
    return (abs(letter), 0 if letter > 0 else 1)


def shortlex_key(word):
    return (len(word), tuple(letter_key(l) for l in word))


def free_reduce(letters, rank=None):
    """Cancel adjacent inverse pairs; returns the unique reduced word."""
    out = []
    for l in letters:
        if not isinstance(l, int) or l == 0:
            raise MalformedWordError(f"bad letter {l!r}")
        if rank is not None and abs(l) > rank:
            raise MalformedWordError(f"letter {l} outside rank {rank}")
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def check_radius(radius):
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")


def inverse(w):
    return tuple(-l for l in reversed(w))


def shift_word(word, offset):
    """word with each letter l moved to l + offset (l - offset for l < 0)."""
    return tuple(l + offset if l > 0 else l - offset for l in word)


def concat(*ws):
    """Product of already-reduced words (result reduced)."""
    out = []
    for w in ws:
        for l in w:
            if out and out[-1] == -l:
                out.pop()
            else:
                out.append(l)
    return tuple(out)


def power(w, n):
    """w^n, freely reduced: p c^n p^-1 from w = p c p^-1 with c
    cyclically reduced, so the cost is linear in the output."""
    if n < 0:
        return power(inverse(w), -n)
    c, p = cyclic_reduce(w)
    if n == 0 or not c:
        return ()
    return p + c * n + inverse(p)


def conjugate(w, g):
    """g^-1 w g."""
    return concat(inverse(g), w, g)


def commutator(u, v):
    """[u, v] = u^-1 v^-1 u v."""
    return concat(inverse(u), inverse(v), u, v)


def cyclic_reduce(w):
    """Return (c, conjugator) with w = conjugator * c * conjugator^-1
    and c cyclically reduced."""
    w = free_reduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j], w[:i]


def primitive_root(c):
    """Smallest word u with c = u^k (c must be cyclically reduced).
    Returns (u, k); for the empty word returns ((), 0)."""
    n = len(c)
    if n == 0:
        return (), 0
    for d in range(1, n + 1):
        if n % d:
            continue
        if all(c[i] == c[(i + d) % n] for i in range(n)):
            return c[:d], n // d
    raise AssertionError("unreachable")


def is_proper_power(c):
    """True iff the cyclically reduced word c is u^k for some k >= 2."""
    if not c:
        return False
    _, k = primitive_root(c)
    return k >= 2


def is_maximal_abelian_in_free(w):
    """True iff <w> is maximal abelian in the ambient free group.

    Equivalent to the cyclic reduction of w not being a proper power.
    """
    w = free_reduce(w)
    if not w:
        raise ValueError("identity generates the trivial subgroup")
    c, _ = cyclic_reduce(w)
    return not is_proper_power(c)


def conjugating_element(u, v):
    """Return s with s^-1 u s = v, or None if u and v are not conjugate."""
    cu, pu = cyclic_reduce(u)
    cv, pv = cyclic_reduce(v)
    if len(cu) != len(cv):
        return None
    if not cu:
        return ()
    n = len(cu)
    for r in range(n):
        if cv == cu[r:] + cu[:r]:
            # cv = w^-1 cu w with w = cu[:r]
            return concat(pu, cu[:r], inverse(pv))
    return None
