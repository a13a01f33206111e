"""Seeded homomorphisms from an HNN extension of a free group into
finite symmetric groups.

A homomorphism rho with rho([a, b]) != 1 proves [a, b] != 1, so the
falsifiers in ``csa`` run Britton reduction only on the pairs that no
such quotient separates (Sims, *Computation with Finitely Presented
Groups*, CUP 1994).  ``letter_tables`` gives the images of a search's
letters, which a spec keeps as its ``quotient``, and ``BallIndex`` the
pair tests and candidate columns read off the images of its ball.

Permutations of {0, ..., d-1} are ``bytes`` of length d, acting on the
right: the point x goes to p[x], and the product p q is "p, then q",
which ``p.translate(table(q))`` computes in C.
"""

import random
from collections import Counter
from functools import cache
from itertools import chain, permutations, product
from math import factorial, gcd

from .wpengine import TRIVIAL

DEGREE = 10
QUOTIENTS = 3
SEED = 1996
# draws tried per presentation before it gives up on more quotients
MAX_DRAWS = 300

_BYTES = bytes(range(256))
IDENTITY = _BYTES[:DEGREE]


def table(p):
    """The 256-byte translation table of p, for bytes.translate."""
    return p + _BYTES[len(p):]


def mul(p, q):
    return p.translate(table(q))


def inv(p):
    # the table that sends p[x] to x is the table of p^-1
    return bytes.maketrans(p, _BYTES[:len(p)])[:len(p)]


def evaluate(word, images, identity):
    """The image of a word under the letter images (both signs)."""
    out = identity
    for l in word:
        out = out.translate(table(images[l]))
    return out


def permutation_quotients(P):
    """One homomorphism from the HNN extension P into a product of up to
    QUOTIENTS copies of Sym(DEGREE), acting on disjoint blocks of
    points: a dict from each base letter +-1..+-rank and the stable
    letter +-(rank + 1) to its image.  Every relation t^-1 a t = b of
    P holds in the image.  None when no draw out of MAX_DRAWS found a
    quotient, and with no draw when _plan finds none possible."""
    plan = _plan(P)
    if plan is None:
        return None
    rng = random.Random(SEED)
    found = []
    for _ in range(MAX_DRAWS):
        rho = _draw(plan, rng)
        if rho is not None:
            found.append(rho)
            if len(found) == QUOTIENTS:
                break
    if not found:
        return None
    images = {}
    for g in range(1, P.base_rank + 2):
        p = b"".join(bytes(x + DEGREE * k for x in rho[g])
                     for k, rho in enumerate(found))
        images[g] = p
        images[-g] = inv(p)
    return images


def letter_tables(spec):
    """(identity, tables): the identity permutation and, for each letter
    of spec's displayed generators, both signs, the translation table
    of its image under permutation_quotients(spec.ext); TRIVIAL when
    there is no quotient.  Seeded, so they depend on the spec alone:
    spec.quotient computes them once."""
    P = spec.ext
    rho = permutation_quotients(P)
    if rho is None:
        return TRIVIAL
    t = P.base_rank + 1
    identity = bytes(range(len(rho[1])))
    return identity, {l: table(evaluate(spec.tword((l,)).flatten(t), rho,
                                        identity))
                      for g in range(1, spec.rank + 1) for l in (g, -g)}


def _plan(P):
    """The steps of a random homomorphism from P into Sym(DEGREE), the
    same for every draw, or None when a generator has no image allowed
    (_power_cycle_lengths), so that no draw can succeed:
    ("draw", g, lengths) draws the image of g (_random_perm),
    ("solve", l, left, conj, right) gives the letter l from the
    relation left l right = conj, ("match", t, a, b) draws T with
    T^-1 A T = B, and ("check", relations) keeps the draw only when
    every relation holds.

    The relations t^-1 a_i t = b_i are solved one at a time.  A relation
    with one side known and one unknown generator, occurring once, on
    the other side gives that generator once T is drawn (EX1: X2 =
    T^-1 X1 T, then X3 = X1^-1 T^-1 X2 T).  A relation with both sides
    known gives T by matching their cycles, which fails unless they
    have the same cycle type.  Otherwise an unknown generator that
    occurs in a relation is drawn at random (_pick).  The generators
    that occur in no relation are drawn last, once every relation
    holds, so a failed draw spends nothing on them."""
    t = P.base_rank + 1
    edges = list(zip(P.a_gens, P.b_gens))
    related = {abs(l) for a, b in edges for l in a + b}
    known = set()   # the letters, of both signs, that an earlier step gives
    steps = []

    def add(step, g):
        steps.append(step)
        known.update((g, -g))

    while True:
        base = [g for g in range(1, t) if g not in known and g in related]
        if t in known:
            if not base:
                break
            step = _solve_step(edges, known, t)
            if step is not None:
                add(step, abs(step[1]))
                continue
        else:
            full = [(a, b) for a, b in edges if _known(a + b, known)]
            if full:
                add(("match", t) + full[0], t)
                continue
            if not base or any(_solvable(a, b, known) or
                               _solvable(b, a, known) for a, b in edges):
                add(("draw", t, None), t)
                continue
        g = _pick(base, edges, known)
        lengths = _power_cycle_lengths(g, edges)
        if lengths == set():
            return None
        add(("draw", g, lengths), g)
    steps.append(("check", [((-t,) + a + (t,), b) for a, b in edges]))
    return steps + [("draw", g, None) for g in range(1, t) if g not in known]


def _draw(plan, rng):
    """The images of the generators, of both signs, under one random
    homomorphism from P into Sym(DEGREE), drawn by the steps of
    plan = _plan(P); None when the draw does not satisfy every
    relation."""
    X = {}

    def value(word):
        return evaluate(word, X, IDENTITY)

    for kind, *args in plan:
        if kind == "draw":
            g, lengths = args
            _assign(X, g, _random_perm(rng, lengths))
        elif kind == "solve":
            # left l right equals conj, so l = left^-1 conj right^-1
            l, left, conj, right = args
            x = mul(mul(inv(value(left)), value(conj)), inv(value(right)))
            _assign(X, abs(l), x if l > 0 else inv(x))
        elif kind == "match":
            t, a, b = args
            T = _conjugator(value(a), value(b), rng)
            if T is None:
                return None
            _assign(X, t, T)
        # "check"
        elif any(value(lhs) != value(rhs) for lhs, rhs in args[0]):
            return None
    return X


def _power_cycle_lengths(g, edges):
    """The lengths 2..DEGREE allowed for the cycles of the image X of g,
    or None for every length.  A relation t^-1 g^p t = g^q with |p| !=
    |q| needs X^p and X^q to have one cycle type, and they have when
    every cycle length of X is prime to p q: X^k then has X's cycle
    type.  So X is drawn among those permutations, leaving out X = 1,
    which separates nothing; with no length allowed there is no draw."""
    k = 1
    for a, b in edges:
        if len(a) != len(b) and all(abs(l) == g for l in a + b):
            k *= sum(l // g for l in a) * sum(l // g for l in b)
    if k == 1:
        return None
    return {n for n in range(2, DEGREE + 1) if gcd(n, k) == 1}


def _pick(base, edges, known):
    """The least generator of base whose image would leave a relation
    solvable for its one unknown generator, which is then solved
    instead of drawn (a ~ c^2: draw C, then A = T C^2 T^-1, where
    drawing A first would need A to have the cycle type of C^2); the
    least of base when there is none."""
    for g in base:
        then = known | {g, -g}
        if any(_solvable(a, b, then) or _solvable(b, a, then)
               for a, b in edges):
            return g
    return base[0]


def _assign(X, g, p):
    X[g] = p
    X[-g] = inv(p)


def _known(word, known):
    return all(l in known for l in word)


def _unknown_at(word, known):
    """The index of the one letter of word outside known, or None when
    there is not exactly one."""
    unknown = [k for k, l in enumerate(word) if l not in known]
    return unknown[0] if len(unknown) == 1 else None


def _solvable(side, other, known):
    return _known(side, known) and _unknown_at(other, known) is not None


def _solve_step(edges, known, t):
    """The step that solves the first relation t^-1 a t = b with one
    side known for the one unknown letter of the other; None when no
    relation has that shape."""
    for a, b in edges:
        for side, other, conj in ((a, b, (-t,) + a + (t,)),
                                  (b, a, (t,) + b + (-t,))):
            if _solvable(side, other, known):
                k = _unknown_at(other, known)
                # other = L x R equals conj
                return ("solve", other[k], other[:k], conj, other[k + 1:])
    return None


def _cycles(p):
    """The cycles of p, fixed points too, each from its least point."""
    seen = bytearray(len(p))
    out = []
    for x in range(len(p)):
        if not seen[x]:
            cycle = [x]
            seen[x] = 1
            y = p[x]
            while y != x:
                cycle.append(y)
                seen[y] = 1
                y = p[y]
            out.append(cycle)
    return out


def _conjugator(A, B, rng):
    """A random T with T^-1 A T = B, or None when A and B have different
    cycle types, read off the cycles it matches before any random
    choice.  Each cycle of A goes onto a cycle of B of the same length,
    picked at random, at a random rotation."""
    cycles_a, cycles_b = _cycles(A), _cycles(B)
    if _shape(cycles_a) != _shape(cycles_b):
        return None
    pools = {}
    for cycle in cycles_b:
        pools.setdefault(len(cycle), []).append(cycle)
    for pool in pools.values():
        rng.shuffle(pool)
    T = [0] * len(A)
    for cycle in cycles_a:
        target = pools[len(cycle)].pop()
        r = rng.randrange(len(cycle))
        for m, x in enumerate(cycle):
            T[x] = target[(m + r) % len(cycle)]
    return bytes(T)


def _random_perm(rng, lengths=None):
    """A uniform random permutation; with lengths, uniform among those
    other than 1 whose cycles longer than 1 all have a length in
    lengths, drawn by rejection on the lengths of its cycles (with 7
    alone, about 1 draw in 42 is kept)."""
    p = list(range(DEGREE))
    while True:
        rng.shuffle(p)
        q = bytes(p)
        if lengths is None:
            return q
        moved = [len(c) for c in _cycles(q) if len(c) > 1]
        if moved and all(n in lengths for n in moved):
            return q


# -- centralizers in Sym(DEGREE) ----------------------------------------------
#
# A permutation g with m_L cycles of length L is conjugate to the canonical
# element of its cycle type, whose cycles are runs of consecutive points,
# the lengths in increasing order.  Its centralizer C(g) sends each cycle
# onto a cycle of the same length at some rotation, so it is the product
# of the wreath products C_L wr Sym(m_L), of order prod L^m_L m_L!.  Its
# transporter T(g) = {h : [g, h^-1 g h] = 1} is the set of h with h^-1 g h
# in C(g): the union of the cosets C(g) h_s over the s in C(g) conjugate
# to g, h_s a conjugator from g to s.  C and the h_s are listed once per
# cycle type, for the canonical element, and carried to g by its
# relabelling (Holt, Eick and O'Brien, *Handbook of Computational Group
# Theory*, ch. 4).


def relabelling(g):
    """(shape, pi) of g, as _relabel reads them off its cycles."""
    return _relabel(_cycles(g))


def _shape(cycles):
    return tuple(sorted(map(len, cycles)))


def _relabel(cycles):
    """(shape, pi): the cycle type of g with these cycles, and pi sending
    the runs of its canonical element g0 onto them: g = pi^-1 g0 pi."""
    cycles = sorted(cycles, key=len)
    return tuple(map(len, cycles)), bytes(chain.from_iterable(cycles))


@cache
def centralizer_order(shape):
    out = 1
    for length, m in Counter(shape).items():
        out *= length ** m * factorial(m)
    return out


@cache
def transporter_order(shape):
    """|T(g)| for g of cycle type shape; lists C(g0) once."""
    return centralizer_order(shape) * len(conjugators(shape))


@cache
def centralizer(shape):
    """The translation tables of C(g0), g0 the canonical element of
    shape."""
    return [table(h) for h in _centralizer(shape)]


@cache
def conjugators(shape):
    """A conjugator pi from g0 to s, pi^-1 g0 pi = s, for each s in C(g0)
    of g0's cycle type: T(g0) is the union of the cosets C(g0) pi."""
    return [pi for s_shape, pi in map(relabelling, _centralizer(shape))
            if s_shape == shape]


def _centralizer(shape):
    """The elements of C(g0) as bytes, one at a time."""
    runs = {}       # length -> the first points of its runs
    start = 0
    for length in shape:
        runs.setdefault(length, []).append(start)
        start += length
    # per length, each way to send its runs onto its runs, as pairs
    # (point, image)
    choices = [[[(s + x, u + (x + r) % length)
                 for s, u, r in zip(starts, targets, turns)
                 for x in range(length)]
                for targets in permutations(starts)
                for turns in product(range(length), repeat=len(starts))]
               for length, starts in runs.items()]
    for parts in product(*choices):
        h = bytearray(start)
        for part in parts:
            for x, y in part:
                h[x] = y
        yield bytes(h)


# -- the ball index -----------------------------------------------------------

# _SHIFTS[k] moves the points of block k, DEGREE k .. DEGREE k + DEGREE - 1,
# down to 0 .. DEGREE - 1
_SHIFTS = tuple(bytes((x - DEGREE * k) % 256 for x in range(256))
                for k in range(QUOTIENTS))


class BallIndex:
    """The quotient images of a ball, images[i] that of element a_i, and
    what they decide about its pairs.  commute(i, j) is False when
    rho([a_i, a_j]) != 1, and columns(i, transport) yields the j of row
    i with rho([a_i, a_j]) = 1, or rho([a_i, a_j^-1 a_i a_j]) = 1: exact
    filters, since a homomorphism sends a trivial commutator to 1.  The
    images in each Sym(DEGREE) block are read when a row is reached, and
    a block's index of the columns by their image there is built when a
    row first picks that block."""

    def __init__(self, images):
        self._images = images
        self._tables = [table(p) for p in images]
        self._identity = _BYTES[:len(images[0])] if images else b""
        self._blocks = [None] * (len(self._identity) // DEGREE)
        self._every = range(len(images))

    def commute(self, i, j):
        images, tables = self._images, self._tables
        return images[i].translate(tables[j]) == \
            images[j].translate(tables[i])

    def _block(self, k):
        """Image in block k -> the columns with it, increasing."""
        r = self._blocks[k]
        if r is None:
            r = self._blocks[k] = {}
            lo, shift = DEGREE * k, _SHIFTS[k]
            for j, p in enumerate(self._images):
                r.setdefault(p[lo:lo + DEGREE].translate(shift), []).append(j)
        return r

    def _size(self, shape, transport):
        """|C(g)| for g of cycle type shape, or |T(g)| when transport is
        True unless |C(g)| is already larger than the ball."""
        c = centralizer_order(shape)
        if not transport or c > len(self._every):
            return c
        return transporter_order(shape)

    def _candidates(self, a, transport):
        """The columns, increasing, whose images lie in C(g), or T(g), for
        the image g of a in the block where that set is smallest (one walk
        per block image); every column when it is larger than the ball."""
        cycles = [_cycles(a[DEGREE * k:DEGREE * (k + 1)].translate(_SHIFTS[k]))
                  for k in range(len(self._blocks))]
        s, k = min((self._size(_shape(c), transport), k)
                   for k, c in enumerate(cycles))
        if s > len(self._every):
            return self._every
        shape, pi = _relabel(cycles[k])
        pi_inv, pi_table = inv(pi), table(pi)
        # C(g) = pi^-1 C(g0) pi, and T(g) the cosets C(g) pi^-1 h pi
        keys = [pi_inv.translate(c).translate(pi_table)
                for c in centralizer(shape)]
        if transport:
            cosets = [table(pi_inv.translate(table(h)).translate(pi_table))
                      for h in conjugators(shape)]
            keys = [c.translate(h) for h in cosets for c in keys]
        found = self._block(k)
        out = []
        for key in keys:
            hit = found.get(key)
            if hit is not None:
                out += hit
        out.sort()
        return out

    def columns(self, i, transport):
        """Exactly the j with commute(i, j), or with rho([a_i, a_j^-1
        a_i a_j]) = 1 when transport is True, increasing, each tested
        when it is asked for: a scan that stops at its first hit tests
        no later column.  Only the j with rho_k(a_j) in C(rho_k(a_i)),
        or T(rho_k(a_i)), for every block k can pass, so the row tests
        the members of its smallest such set (_candidates).  A row whose
        image is the identity gives every column, as a range, untested."""
        images, tables = self._images, self._tables
        a, ta = images[i], tables[i]
        if a == self._identity:
            return self._every
        candidates = self._candidates(a, transport)
        if not transport:
            return (j for j in candidates
                    if a.translate(tables[j]) == images[j].translate(ta))
        # a_j^-1 a_i a_j sends g_j[x] to (a_i g_j)[x], g_j the image of a_j
        d, maketrans = len(a), bytes.maketrans
        return (j for j in candidates
                if a.translate(c := maketrans(images[j],
                                              a.translate(tables[j])))
                == c[:d].translate(ta))
