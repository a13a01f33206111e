"""Bounded falsifiers for the CSA and commutative-transitivity properties,
obstacle-witness verification, Baumslag-Solitar groups as HNN extensions,
and the residually-p obstruction.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import gcd
from typing import Optional

from .errors import BALL_LETTER_LIMIT, BALL_WORD_LIMIT, check_budget
from .hnn import HnnPresentation
from .wpengine import (TRIVIAL, HnnSpec, canonical_key, commutes,
                       is_trivial, num_generators)
from .words import (check_radius, commutator, concat, conjugate, free_reduce,
                    inverse, power)

# the radius of a falsifier ball or an obstacle ball when none is given
DEFAULT_RADIUS = 3


# -- ball enumeration -------------------------------------------------------


@lru_cache(maxsize=16)
def _skeleton(rank, radius):
    """(words, parent, last, searched): the freely reduced words of
    length <= radius over rank generators in shortlex order, the
    identity first, the index of each word's prefix w[:-1] and its last
    letter (0 and 0 for the identity), and the indices, increasing, of
    the words that come before their literal inverse.  Shared by every
    ball of that size, as it holds no group data."""
    letters = [l for g in range(1, rank + 1) for l in (g, -g)]
    words, parent, last, inverses = [()], [0], [0], [()]
    for p, w in enumerate(words):   # read while it grows, length by length
        if len(w) == radius:
            break
        v, back = inverses[p], -last[p]
        for l in letters:
            if l != back:
                words.append(w + (l,))
                inverses.append((-l,) + v)
                parent.append(p)
                last.append(l)
    at = {w: k for k, w in enumerate(words)}
    searched = [k for k, v in enumerate(inverses) if at[v] > k]
    return tuple(words), tuple(parent), tuple(last), tuple(searched)


def _walk(spec, radius, quotient):
    """(skeleton, images, kept): the _skeleton of the ball of spec and
    radius, the image of each word under quotient, and kept(k), True iff
    no earlier word of the ball is word k's element.  Raises
    BudgetExceededError before enumerating (_check_ball_size).

    quotient is (identity, tables) with tables[l] the translation table
    of letter l's image under a homomorphism, so each image is its
    prefix's image moved by one table; under TRIVIAL, known by its empty
    identity, each image is b"".  Words of one element
    have one image, so keys are compared only within a group of words
    of one image, the identity word heading the identity's group.
    No key is computed here: kept settles a word when it is first asked
    about.  The first word of a group is kept.  A later one is kept iff
    its canonical_key differs from those of the earlier words of its
    group, each keyed once, in order, when a later word of the group is
    first asked about.  A word whose prefix w[:-1] is known to be a
    duplicate is one too, with no key: if u' comes before u and equals
    it, the reduced u'l comes before ul and equals it."""
    rank = num_generators(spec)
    _check_ball_size(rank, radius)
    skeleton = _skeleton(rank, radius)
    words, parent, last, _ = skeleton
    identity, tables = quotient
    if not identity:
        images = [b""] * len(words)
    else:
        images = [identity]
        append = images.append
        for p, l in islice(zip(parent, last), 1, None):
            append(images[p].translate(tables[l]))
    heads = {}      # image -> its first word
    after = [0] * len(words)    # the next word of k's image, or 0
    for k in range(len(words) - 1, -1, -1):
        c = images[k]
        after[k] = heads.get(c, 0)
        heads[c] = k
    # 1 once word k is known to be kept, 2 once it is known to be a
    # duplicate, 0 before; the first words of the groups are known at once
    known = bytearray(len(words))
    for k in heads.values():
        known[k] = 1
    resolved = {}   # image -> [the keys of its words walked, the last]

    def kept(k):
        if known[k]:
            return known[k] == 1
        if known[parent[k]] == 2:
            known[k] = 2
            return False
        c = images[k]
        state = resolved.get(c)
        if state is None:
            m = heads[c]
            state = resolved[c] = [{canonical_key(words[m], spec)}, m]
        keys, m = state
        while not known[k]:
            m = after[m]
            if known[m]:
                continue
            if known[parent[m]] == 2:
                known[m] = 2
                continue
            key = canonical_key(words[m], spec)
            known[m] = 2 if key in keys else 1
            keys.add(key)
        state[1] = m
        return known[k] == 1

    return skeleton, images, kept


def ball(spec, radius):
    """Freely reduced words of length <= radius over the displayed
    generators, in shortlex order, one per element through the group's
    canonical form: _walk's kept, asked about every word in order, under
    the trivial quotient, so every word shares one group.  The identity is
    omitted.  Raises BudgetExceededError before enumerating when the
    reduced words are more than BALL_WORD_LIMIT or their letters more
    than BALL_LETTER_LIMIT."""
    (words, *_), _, kept = _walk(spec, radius, TRIVIAL)
    return [words[k] for k in range(1, len(words)) if kept(k)]


def _check_ball_size(rank, radius):
    """Count the reduced words of length <= radius over rank generators
    and their letters in closed form, against BALL_WORD_LIMIT and
    BALL_LETTER_LIMIT.  With q = 2r - 1 there are 2r q^(k-1) words of
    length k: 1 + 2r(q^R - 1)/(q - 1) words and 2r(R q^(R+1) - (R+1) q^R
    + 1)/(q - 1)^2 letters, or 1 + 2R words and R(R + 1) letters for
    r = 1."""
    check_radius(radius)
    if rank == 0:
        return
    q = 2 * rank - 1
    count, least = 1 + 2 * radius, ""   # exact for r = 1, a bound for r > 1
    if q > 1 and count > BALL_WORD_LIMIT:
        least = "at least "     # a huge R: its closed form is a huge integer
    elif q > 1:
        count = 1 + 2 * rank * (q ** radius - 1) // (q - 1)
    check_budget(count, BALL_WORD_LIMIT,
                 f"the ball of radius {radius} with {least}{{}} words",
                 "--radius")
    letters = radius * (radius + 1) if q == 1 else \
        2 * rank * (radius * q ** (radius + 1) - (radius + 1) * q ** radius
                    + 1) // (q - 1) ** 2
    check_budget(letters, BALL_LETTER_LIMIT,
                 f"the ball of radius {radius} with {{}} letters", "--radius")


# -- CSA / CT falsifiers ----------------------------------------------------


@dataclass
class CsaWitness:
    a: tuple
    v: tuple


@dataclass
class CtWitness:
    a: tuple
    b: tuple
    c: tuple


_kept = {}  # the one search session kept, under its (spec, radius)


def _search_context(spec, radius):
    """The search session over the ball of spec and radius, _new_session's.

    The last session built is kept, so consecutive searches on one spec
    and radius (falsify_csa, then falsify_ct) share its words settled
    by _walk, its canonical keys, the index's built blocks, the forms
    with their pinch memo and the commutes cache.  A search on another
    spec or radius drops it before building its own, so two sessions
    are never alive at once, and _search_context.cache_clear() frees
    it.  Keeping one per spec would hold every searched ball."""
    key = spec, radius
    session = _kept.get(key)
    if session is None:
        _kept.clear()
        session = _kept[key] = _new_session(spec, radius)
    return session


_search_context.cache_clear = _kept.clear


def _new_session(spec, radius):
    """(elements, rows, columns, comm, commutes, conj_commutes): a new
    search session over the ball of spec and radius.

    elements holds the skeleton's searched words, those of the ball
    that come before their literal inverse.  The search ball is those of
    them that ball() keeps: rows() yields its indices in elements,
    increasing, and columns(i, transport) yields, increasing and one at
    a time, those whose images under spec.quotient pass the test of row i
    (quotients.BallIndex.columns): the commutation test when transport
    is False, the transporter test when it is True.  Whether a word is
    kept is settled when rows or columns first reaches it (_walk's
    kept), so a search that stops early keys only the words it has
    reached.

    commutes(i, j) is [a_i, a_j] = 1 by the group's own test, cached;
    comm(i, j) asks it behind the index's commute filter, and is
    commutes itself under the trivial quotient; conj_commutes
    (i, j) is [a, v^-1 a v] = 1, asked only about columns the transporter
    test has passed, with no filter.  The tests multiply the forms of
    spec.search_forms, built on first use.

    The first hit is that of a scan over every word of the ball: the
    tests depend only on the elements, and as a commutes with b iff a^-1
    does, (a, v) is a CSA hit iff (a, v^-1) is, and iff (a^-1, v) is,
    and a CT hit (a, b, c) stays a hit when any of a, b, c is inverted.
    So that first hit is made of words that are each the shortlex-first
    word of their class {g, g^-1}.  Such a word is kept and comes before
    its literal inverse, a word of g^-1, so the search ball holds it,
    and the scan meets the hits in the same order."""
    # imported on first use, so a command that runs no search does not
    # pay for its import
    from . import quotients
    quotient = spec.quotient
    (words, _, _, searched), images, kept = _walk(spec, radius, quotient)
    elements = [words[k] for k in searched]
    index = quotients.BallIndex([images[k] for k in searched])

    def rows():
        return (i for i, k in enumerate(searched) if kept(k))

    def columns(i, transport):
        return (j for j in index.columns(i, transport) if kept(searched[j]))

    form, trivial = spec.search_forms()
    forms = [None] * len(elements)
    cache = {}

    def form_of(i):
        """The form of element i and its inverse."""
        r = forms[i]
        if r is None:
            r = forms[i] = form(elements[i])
        return r

    def commutes(i, j):
        k = (i, j) if i < j else (j, i)
        r = cache.get(k)
        if r is None:
            (a, a_inv), (b, b_inv) = form_of(i), form_of(j)
            r = cache[k] = trivial(a, b, a_inv, b_inv)
        return r

    if not quotient[0]:
        # under the trivial quotient every pair passes the filter
        comm = commutes
    else:
        def comm(i, j):
            return index.commute(i, j) and commutes(i, j)

    def conj_commutes(i, j):
        # [a, v^-1 a v] as a . v^-1 a v . a^-1 . v^-1 a^-1 v
        (a, a_inv), (v, v_inv) = form_of(i), form_of(j)
        return trivial(a, v_inv, a, v, a_inv, v_inv, a_inv, v)

    return elements, rows, columns, comm, commutes, conj_commutes


def verify_csa_witness(w: CsaWitness, spec) -> bool:
    if is_trivial(w.a, spec):
        return False
    return commutes(w.a, conjugate(w.a, w.v), spec) \
        and not commutes(w.a, w.v, spec)


def verify_ct_witness(w: CtWitness, spec) -> bool:
    if any(is_trivial(x, spec) for x in (w.a, w.b, w.c)):
        return False
    return commutes(w.a, w.b, spec) and commutes(w.b, w.c, spec) \
        and not commutes(w.a, w.c, spec)


def falsify_csa(spec, radius=DEFAULT_RADIUS) -> Optional[CsaWitness]:
    """First pair (a, v) in shortlex order with a != 1, [a, a^v] = 1 and
    [a, v] != 1.  A hit disproves CSA; a miss proves nothing."""
    elements, rows, columns, comm, _, conj_commutes = \
        _search_context(spec, radius)
    for i in rows():
        for j in columns(i, True):
            if i != j and not comm(i, j) and conj_commutes(i, j):
                return CsaWitness(elements[i], elements[j])
    return None


def falsify_ct(spec, radius=DEFAULT_RADIUS) -> Optional[CtWitness]:
    """First triple with [a,b] = 1, [b,c] = 1 but [a,c] != 1."""
    elements, rows, columns, _, commutes, _ = _search_context(spec, radius)
    listed = {}

    def row(i):
        """The j != i with [a_i, a_j] = 1, listed on first use; each j
        has passed the commute filter in columns."""
        r = listed.get(i)
        if r is None:
            r = listed[i] = [j for j in columns(i, False)
                             if j != i and commutes(i, j)]
        return r

    for i in rows():
        # row(i) holds every k != i with [a_i, a_k] = 1
        commuting = set(row(i))
        for j in row(i):
            for k in row(j):
                if k != i and k not in commuting:
                    return CtWitness(elements[i], elements[j], elements[k])
    return None


# -- obstacle groups --------------------------------------------------------

OBSTACLE_DINF = "dinf"     # Z/2 * Z/2, generators u=1, w=2
OBSTACLE_CALB = "calb"     # F2 x Z, generators p=1, q=2, central z=3
OBSTACLE_B1N = "b1n"       # <x,y | y x y^-1 = x^n>, x=1, y=2

# generators of each obstacle group, one host image each in a witness
OBSTACLE_GENERATORS = {OBSTACLE_DINF: 2, OBSTACLE_CALB: 3, OBSTACLE_B1N: 2}
OBSTACLE_CITATIONS = {OBSTACLE_DINF: "Prop-TObstacles",
                      OBSTACLE_CALB: "Prop-OneRelNotCSA",
                      OBSTACLE_B1N: "Prop-TFObstacles"}


@dataclass
class ObstacleWitness:
    kind: str
    images: dict          # obstacle generator index -> host word
    radius: int = DEFAULT_RADIUS
    n: Optional[int] = None  # for b1n


def _obstacle_ball(kind, radius, n=None):
    """Pairwise distinct obstacle elements (as words over obstacle
    generators) of length <= radius, identity included: the normal forms
    of dinf and calb, and ball for b1n.  Raises BudgetExceededError
    before enumerating when there are more than BALL_WORD_LIMIT words,
    or their letters more than BALL_LETTER_LIMIT: the 1 + 2R alternating
    words of dinf, the reduced words over 3 (calb) or 2 (b1n)
    generators."""
    if kind == OBSTACLE_B1N:
        # B(1, n) = <x, y | y^-1 x^n y = x>
        return [()] + ball(bs_spec(n, 1), radius)
    if kind == OBSTACLE_CALB:
        # w z^m for each reduced w over p, q with |w| + |m| <= R
        _check_ball_size(3, radius)
        return [w + power((3,), m) for w in _skeleton(2, radius)[0]
                for m in range(len(w) - radius, radius - len(w) + 1)]
    # dinf: the alternating words u w u ... and w u w ...
    _check_ball_size(1, radius)
    return [()] + [alt[:k] for alt in ((1, 2) * radius, (2, 1) * radius)
                   for k in range(1, radius + 1)]


def _obstacle_relators(kind, n=None):
    if kind == OBSTACLE_DINF:
        return [(1, 1), (2, 2)]
    if kind == OBSTACLE_CALB:
        return [commutator((3,), (1,)), commutator((3,), (2,))]
    if n is None or n == 0:     # b1n
        raise ValueError("b1n obstacle needs a nonzero n")
    return [concat((2,), (1,), (-2,), power((1,), -n))]


def _map_word(word, images):
    out = []
    for l in word:
        img = images[abs(l)]
        out.extend(img if l > 0 else inverse(img))
    return free_reduce(out)


def verify_obstacle(witness: ObstacleWitness, host) -> bool:
    """Check (i) every obstacle relator maps to 1 in the host and (ii)
    distinct obstacle elements of length <= radius stay distinct.
    Bounded-radius evidence of an embedding, not a proof.  Raises
    ValueError unless the images are exactly those of generators 1..k
    of the obstacle group."""
    check_radius(witness.radius)
    count = OBSTACLE_GENERATORS.get(witness.kind)
    if count is None:
        raise ValueError(f"unknown obstacle kind {witness.kind!r}")
    images = witness.images
    if sorted(images) != list(range(1, count + 1)):
        raise ValueError(f"{witness.kind} obstacle needs {count} images")
    for rel in _obstacle_relators(witness.kind, witness.n):
        if not is_trivial(_map_word(rel, images), host):
            return False
    ball_words = _obstacle_ball(witness.kind, witness.radius, witness.n)
    host_images = [_map_word(w, images) for w in ball_words]
    keys = {canonical_key(w, host) for w in host_images}
    return len(keys) == len(host_images)


# -- Baumslag-Solitar arithmetic -------------------------------------------


def bs_spec(m, n):
    """B_{m,n} = <x, z | z^-1 x^m z = x^n> as an HNN extension of Z;
    displayed generators x=1, z=2."""
    if m == 0 or n == 0:
        raise ValueError("mn must be nonzero")
    return HnnSpec(HnnPresentation(1, [power((1,), m)], [power((1,), n)]))


# -- abelianization and the residually-p obstruction ------------------------


def abelianization_one_relator(relator, num_gens):
    """Invariant factors of Z^num_gens modulo the exponent-sum row of the
    relator: (torsion_orders, free_rank)."""
    sums = [0] * num_gens
    for l in free_reduce(relator, num_gens):
        sums[abs(l) - 1] += 1 if l > 0 else -1
    d = gcd(*sums)
    if d == 0:
        return (), num_gens
    torsion = (d,) if d > 1 else ()
    return torsion, num_gens - 1


# Miller-Rabin with these bases decides primality for every p below
# MILLER_RABIN_BOUND (Sorenson and Webster, Math. Comp. 86, 2017)
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p):
    if p >= MILLER_RABIN_BOUND:
        raise ValueError(f"primality of {p} is decided only below "
                         f"{MILLER_RABIN_BOUND}")
    if p < 2:
        return False
    for b in MILLER_RABIN_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in MILLER_RABIN_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def residually_p_obstruction(m, n, p):
    """True iff the closed-form criterion blocks residual p-ness of
    B_{m,n}: p does not divide n - m (or, when m = n, p does not
    divide n)."""
    if m == 0 or n == 0:
        raise ValueError("mn must be nonzero")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m == n:
        return n % p != 0
    return (n - m) % p != 0
