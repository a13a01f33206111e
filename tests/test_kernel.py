"""The single-pass Britton kernel against the restart-scan reducer it
replaced, the one-walk normal form against the two-walk one, the
one-pass image writer against concat, the falsifiers built on the kernel
against brute-force scans, and the permutation quotients that filter
their pairs."""

import collections
import gc
import hashlib
import itertools
import math
import random
import tracemalloc

import pytest

from csakit import csa, hnn, quotients, stallings, words
from csakit.amalgam import AmalgamPresentation
from csakit.errors import (BALL_WORD_LIMIT, WORD_LETTER_LIMIT,
                           BudgetExceededError, MalformedWordError)
from csakit.hnn import HnnPresentation, TWord, britton_reduce, normal_form
from csakit.stallings import fold
from csakit.words import (concat, conjugate, free_reduce, inverse, power,
                          shortlex_key)
from csakit.wpengine import (AmalgamSpec, BrittonSpec, FreeByCyclicSpec,
                             FreeProductCyclicsSpec, FreeSpec, HnnSpec,
                             canonical_key, commutes, is_trivial,
                             num_generators)
from test_words import reduced_words

AMALGAM = AmalgamPresentation(2, 2, [(1,)], [(1, 1)])
GROUPS = {
    "case1": HnnPresentation(2, [(1,)], [(2,)]),
    "case2": HnnPresentation(2, [(1,)], [(1,)]),
    "case3": HnnPresentation(1, [(1,)], [(-1,)]),
    "case4": HnnPresentation(1, [(1,)], [(1, 1)]),
    "ex1": HnnPresentation(3, [(1,), (2,)], [(2,), (1, 3)]),
    "amalgam": AMALGAM.extension,
    "bs12": HnnPresentation(1, [(1,)], [(1, 1)]),
}


def restart_scan_reduce(w, P):
    """The reducer before the single-pass kernel: rescan from the left
    after every pinch."""
    head = w.head
    tail = list(w.tail)
    changed = True
    while changed:
        changed = False
        for i in range(len(tail) - 1):
            e1, g = tail[i]
            e2 = tail[i + 1][0]
            if e1 == -1 and e2 == 1 and P.A.member(g):
                mid = P.phi(g)
            elif e1 == 1 and e2 == -1 and P.B.member(g):
                mid = P.phi_inv(g)
            else:
                continue
            rest = concat(mid, tail[i + 1][1])
            if i == 0:
                head = concat(head, rest)
            else:
                pe, pg = tail[i - 1]
                tail[i - 1] = (pe, concat(pg, rest))
            del tail[i:i + 2]
            changed = True
            break
    return TWord(head, tuple(tail))


def reference_product(factors, P):
    out = factors[0]
    for f in factors[1:]:
        out = out.mul(f)
    return restart_scan_reduce(out, P)


def rand_base(rng, P):
    """A short base word, often in A or B so that pinches occur."""
    r = rng.random()
    if r < 0.6:
        gens = P.a_gens if r < 0.3 else P.b_gens
        g = ()
        for _ in range(rng.randint(1, 2)):
            x = rng.choice(gens)
            g = concat(g, x if rng.random() < 0.5 else inverse(x))
        return g
    letters = [s * k for k in range(1, P.base_rank + 1) for s in (1, -1)]
    return free_reduce(rng.choice(letters) for _ in range(rng.randint(0, 3)))


def rand_tword(rng, P, max_t=6):
    return TWord(rand_base(rng, P),
                 tuple((rng.choice((1, -1)), rand_base(rng, P))
                       for _ in range(rng.randint(0, max_t))))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_single_pass_matches_restart_scan(name):
    P = GROUPS[name]
    rng = random.Random(f"kernel:{name}")
    memo = {}
    pinched = 0
    for _ in range(300):
        w = rand_tword(rng, P)
        want = restart_scan_reduce(w, P)
        assert britton_reduce(w, P) == want
        assert britton_reduce(w, P, memo=memo) == want
        pinched += want.t_length < w.t_length
    assert pinched > 50


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_streamed_product_matches_mul_chain(name):
    P = GROUPS[name]
    rng = random.Random(f"stream:{name}")
    memo = {}
    for _ in range(200):
        factors = [rand_tword(rng, P, 4) for _ in range(rng.randint(1, 5))]
        want = reference_product(factors, P)
        assert britton_reduce(factors[0], P, *factors[1:]) == want
        assert britton_reduce(factors[0], P, *factors[1:], memo=memo) == want
        # the shapes the falsifiers stream: [a, b] and [a, v^-1 a v]
        a = britton_reduce(factors[0], P, memo=memo)
        v = britton_reduce(factors[-1], P, memo=memo)
        a_inv, v_inv = a.inv(), v.inv()
        for shape in ((a, v, a_inv, v_inv),
                      (a, v_inv, a, v, a_inv, v_inv, a_inv, v)):
            assert britton_reduce(shape[0], P, *shape[1:], memo=memo) == \
                reference_product(shape, P)


def test_pinch_matches_phi():
    P = GROUPS["ex1"]
    rng = random.Random(11)
    for _ in range(200):
        g = rand_base(rng, P)
        for e, graph, image in ((-1, P.A, P.phi), (1, P.B, P.phi_inv)):
            got = P.pinch(e, g)
            if graph.member(g):
                assert got == image(g)
            else:
                assert got is None


# -- falsifiers against brute force ------------------------------------------


def _hnn(rank, u, v):
    return HnnSpec(HnnPresentation(rank, [u], [v]))


def _amalgam(left, right, u, v):
    return AmalgamSpec(AmalgamPresentation(left, right, [u], [v]))


SEARCHES = [
    ("bs12", _hnn(1, (1,), (1, 1)), 3),
    ("klein", _hnn(1, (1,), (-1,)), 3),
    ("z2", _hnn(1, (1,), (1,)), 3),
    ("bs13", _hnn(1, (1,), (1, 1, 1)), 2),
    ("bs22", _hnn(1, (1, 1), (1, 1)), 2),
    ("bs23", _hnn(1, (1, 1), (1, 1, 1)), 2),
    ("bs1-2", _hnn(1, (1,), (-1, -1)), 3),
    ("bs24", _hnn(1, (1, 1), (1, 1, 1, 1)), 2),
    ("klein-f2", _hnn(2, (1,), (-1,)), 2),
    ("bs12-f2", _hnn(2, (1,), (1, 1)), 2),
    ("case1", _hnn(2, (1,), (2,)), 2),
    ("case2", _hnn(2, (1,), (1,)), 2),
    ("xy-yx", _hnn(2, (1, 2), (2, 1)), 2),
    ("x-conj", _hnn(2, (1,), (-2, 1, 2)), 2),
    ("xx-y", _hnn(2, (1, 1), (2,)), 2),
    ("xY-y", _hnn(2, (1, -2), (2,)), 2),
    ("x-yy", _hnn(2, (1,), (2, 2)), 2),
    ("y-xx", _hnn(2, (2,), (1, 1)), 3),
    # first hits deep in the scan, after rows the inverse rule drops
    ("xy-YX", _hnn(2, (1, 2), (-2, -1)), 2),
    ("xY-Yx", _hnn(2, (2, -1), (-2, 1)), 2),
    ("XY-yx", _hnn(2, (-1, -2), (2, 1)), 2),
    ("yy-YY", _hnn(2, (2, 2), (-2, -2)), 2),
    ("ex1", HnnSpec(GROUPS["ex1"]), 2),
    ("a~c2", _amalgam(2, 2, (1,), (1, 1)), 2),
    ("a~c", _amalgam(2, 2, (1,), (1,)), 2),
    ("ab~c", _amalgam(2, 2, (1, 2), (1,)), 2),
    ("aa~b", _amalgam(2, 1, (1, 1), (1,)), 2),
    ("aa~AA", _amalgam(2, 2, (1, 1), (-1, -1)), 2),
    ("bb~dd", _amalgam(2, 2, (2, 2), (2, 2)), 2),
    ("trefoil", _amalgam(1, 1, (1, 1), (1, 1, 1)), 3),
    ("a~bb", _amalgam(1, 1, (1,), (1, 1)), 3),
]


def _brute_force(spec, radius):
    """First CSA and CT witnesses of a full scan: every row and column,
    each commutation decided by wpengine.commutes."""
    elements = [w for w in csa.ball(spec, radius) if not is_trivial(w, spec)]
    cache = {}

    def comm(x, y):
        key = (x, y) if x <= y else (y, x)
        if key not in cache:
            cache[key] = commutes(x, y, spec)
        return cache[key]

    csa_hit = next(((a, v) for a in elements for v in elements
                    if a != v and not comm(a, v)
                    and commutes(a, conjugate(a, v), spec)), None)
    ct_hit = next(((a, b, c) for a in elements for b in elements
                   if b != a and comm(a, b)
                   for c in elements
                   if c not in (a, b) and comm(b, c) and not comm(a, c)),
                  None)
    return csa_hit, ct_hit


def _match_brute_force(searches):
    """Check both falsifiers against _brute_force on each search; the
    numbers of CSA and CT hits."""
    csa_hits = ct_hits = 0
    for name, spec, radius in searches:
        want_csa, want_ct = _brute_force(spec, radius)
        got_csa = csa.falsify_csa(spec, radius)
        got_ct = csa.falsify_ct(spec, radius)
        assert (None if got_csa is None else (got_csa.a, got_csa.v)) == \
            want_csa, name
        assert (None if got_ct is None else
                (got_ct.a, got_ct.b, got_ct.c)) == want_ct, name
        csa_hits += want_csa is not None
        ct_hits += want_ct is not None
    return csa_hits, ct_hits


def test_falsifiers_match_brute_force():
    csa_hits, ct_hits = _match_brute_force(SEARCHES)
    assert 5 <= csa_hits <= len(SEARCHES) - 5
    assert 3 <= ct_hits <= len(SEARCHES) - 5


# free groups, Britton specs over trivial associated subgroups, and the
# two classes whose word problem is not Britton reduction, whose tests
# multiply words under the trivial quotient
GENERIC_SEARCHES = [
    ("f1", FreeSpec(1), 4),
    ("f2", FreeSpec(2), 3),
    ("f3", FreeSpec(3), 3),
    ("z2*z", FreeProductCyclicsSpec((2, 0)), 4),
    ("z2*z3", FreeProductCyclicsSpec((2, 3)), 4),
    ("fbc", FreeByCyclicSpec(), 3),
    # fbc() as an HNN extension of F(x, d), letters x, d, y: no draw finds
    # a permutation quotient, so its search takes the constant one
    ("fbc-hnn", HnnSpec(HnnPresentation(2, [(1, -2), (2,)], [(1,), (2,)])),
     3),
]


def test_generic_falsifiers_match_brute_force():
    # the free products of cyclics hold D-infinity, a CSA witness; the
    # free-by-cyclic group has a witness of each kind in both its forms,
    # free groups none
    assert _match_brute_force(GENERIC_SEARCHES) == (4, 2)
    assert quotients.permutation_quotients(GENERIC_SEARCHES[-1][1].ext) \
        is None
    # the trivial group is the empty free product; F(0) has no letter
    # to be the stable one, so it is no HNN extension
    assert csa.falsify_ct(FreeProductCyclicsSpec(()), 2) is None
    with pytest.raises(ValueError):
        FreeSpec(0)
    with pytest.raises(ValueError):
        HnnPresentation(-1, (), ())


# -- the permutation-quotient prefilter --------------------------------------

QUADRANT_SPECS = [HnnSpec(GROUPS[name])
                  for name in ("case1", "case2", "case3", "case4")]
# the searches of the benchmark's fixed queries, at radius 3
EXACTNESS = [(name, spec, radius) for name, spec, radius in SEARCHES] + \
    [(f"quadrant{k}", spec, 3) for k, spec in enumerate(QUADRANT_SPECS, 1)] \
    + [("ex1-r3", HnnSpec(GROUPS["ex1"]), 3),
       ("amalgam-r3", AmalgamSpec(AMALGAM), 3)]
# F2 x Z: t commutes with both base letters; T is drawn to commute with
# the image of x1, so only the relator check keeps out a draw whose T
# does not commute with that of x2
CENTRAL = HnnPresentation(2, [(1,), (2,)], [(1,), (2,)])
# y -> x^2 is solved on its A side: y = T x^2 T^-1
QUOTIENT_GROUPS = dict(GROUPS, central=CENTRAL,
                       trefoil=AmalgamPresentation(1, 1, [(1, 1)],
                                                   [(1, 1, 1)]).extension,
                       y_xx=HnnPresentation(2, [(2,)], [(1, 1)]))


def _witnesses(spec, radius):
    hit_csa = csa.falsify_csa(spec, radius)
    hit_ct = csa.falsify_ct(spec, radius)
    return (None if hit_csa is None else (hit_csa.a, hit_csa.v),
            None if hit_ct is None else (hit_ct.a, hit_ct.b, hit_ct.c))


def afresh(spec):
    """A new spec of spec's group that has not drawn its quotient yet: an
    HNN or amalgam spec of the same presentation, or spec itself for the
    value specs, whose quotient is TRIVIAL.  A search on it draws its
    quotient from quotients.permutation_quotients as it is then."""
    if isinstance(spec, AmalgamSpec):
        return AmalgamSpec(spec.pres)
    if isinstance(spec, HnnSpec):
        return HnnSpec(spec.pres)
    return spec


def patch_quotients(monkeypatch, draw):
    """Make draw the permutation quotients of every Britton spec whose
    spec.quotient is first read from now on, as on a spec built afresh,
    and drop the kept search session: value-equal specs share its
    slot."""
    monkeypatch.setattr(quotients, "permutation_quotients", draw)
    csa._search_context.cache_clear()


def quotient_kind(spec):
    """How spec's searches filter pairs: "none" under the trivial
    quotient, "constant" when every letter's image is the identity,
    "separating" otherwise."""
    if spec.quotient == quotients.TRIVIAL:
        return "none"
    identity, tables = spec.quotient
    if set(tables.values()) == {quotients.table(identity)}:
        return "constant"
    return "separating"


def test_filtered_searches_match_unfiltered(monkeypatch):
    filtered = [_witnesses(spec, radius) for _, spec, radius in EXACTNESS]
    assert {quotient_kind(spec) for _, spec, _ in EXACTNESS} == \
        {"separating"}
    patch_quotients(monkeypatch, lambda P: None)
    for (name, spec, radius), got in zip(EXACTNESS, filtered):
        spec = afresh(spec)
        assert quotient_kind(spec) == "none", name
        assert got == _witnesses(spec, radius), name


def test_consecutive_searches_share_one_session(monkeypatch):
    # falsify_csa then falsify_ct on one spec and radius read one session;
    # another radius builds a new one from the spec's own quotient, so it
    # is drawn once
    draws = []
    draw = quotients.permutation_quotients

    def counting(P):
        draws.append(P)
        return draw(P)

    patch_quotients(monkeypatch, counting)
    builds = []
    build = csa._new_session

    def counted_build(spec, radius):
        builds.append(radius)
        return build(spec, radius)

    monkeypatch.setattr(csa, "_new_session", counted_build)
    spec = afresh(QUADRANT_SPECS[0])
    assert csa.falsify_csa(spec, 3) is None
    assert builds == [3]
    assert csa.falsify_ct(spec, 3) is None
    assert builds == [3]
    assert csa.falsify_csa(spec, 4) is None
    assert builds == [3, 4]
    assert draws == [spec.ext]
    # the radius-4 session holds the radius-4 ball
    assert max(map(len, csa._search_context(spec, 4)[0])) == 4


def test_each_spec_owns_its_quotient(monkeypatch):
    # letter_tables only computes: the spec keeps the tables, as its
    # quotient, and nothing else writes onto it
    spec = afresh(QUADRANT_SPECS[0])
    before = dict(vars(spec))
    tables = quotients.letter_tables(spec)
    assert vars(spec) == before
    assert quotient_kind(spec) == "separating"
    assert spec.quotient == tables
    # the classes that reduce words their own way search under the trivial
    # quotient, as does a Britton spec with no draw
    patch_quotients(monkeypatch, lambda P: None)
    for spec in (FreeProductCyclicsSpec((2, 3)), FreeByCyclicSpec(),
                 afresh(QUADRANT_SPECS[0])):
        assert spec.quotient == quotients.TRIVIAL, spec
    # a session built anew on a spec that has drawn reads what it keeps
    draws = []
    draw = quotients.permutation_quotients
    patch_quotients(monkeypatch, lambda P: draws.append(P) or draw(P))
    spec = afresh(QUADRANT_SPECS[1])
    assert csa.falsify_ct(spec, 3) is None
    csa._search_context.cache_clear()
    assert csa.falsify_ct(spec, 4) is None
    assert draws == [spec.ext]


def test_a_search_drops_the_kept_session_before_building_its_own():
    """A radius-4 EX1 falsify_ct run right after another EX1 radius-4
    session (a spec equal only to itself, so a miss) peaks no higher
    under tracemalloc than one run after cache_clear(): the kept session
    is freed before the new one is built, not once it is in place."""

    def peak(clear):
        csa._search_context.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            csa.falsify_ct(HnnSpec(GROUPS["ex1"]), 4)
            if clear:
                csa._search_context.cache_clear()
            tracemalloc.reset_peak()
            assert csa.falsify_ct(HnnSpec(GROUPS["ex1"]), 4) is None
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(True)  # fills the caches the sessions share, such as the skeleton
    cleared = peak(True)
    assert peak(False) <= 1.1 * cleared


def test_shared_sessions_give_the_witnesses_of_fresh_specs():
    # whatever an earlier search on the session settled, each search
    # finds what it finds on a fresh spec from an empty session: csa then
    # ct, ct then csa, and csa and ct with a search on another spec, which
    # evicts the session, between them
    other = afresh(QUADRANT_SPECS[1])
    for name, spec, radius in EXACTNESS:
        csa._search_context.cache_clear()
        want_csa = csa.falsify_csa(afresh(spec), radius)
        csa._search_context.cache_clear()
        want_ct = csa.falsify_ct(afresh(spec), radius)
        first, second, third = afresh(spec), afresh(spec), afresh(spec)
        assert csa.falsify_csa(first, radius) == want_csa, name
        assert csa.falsify_ct(first, radius) == want_ct, name
        assert csa.falsify_ct(second, radius) == want_ct, name
        assert csa.falsify_csa(second, radius) == want_csa, name
        assert csa.falsify_csa(third, radius) == want_csa, name
        assert csa.falsify_ct(other, 2) is None
        assert csa.falsify_ct(third, radius) == want_ct, name


def _relator_images(P, rho):
    t = P.base_rank + 1
    identity = bytes(range(len(rho[1])))
    return [quotients.evaluate((-t,) + a + (t,) + inverse(b), rho, identity)
            for a, b in zip(P.a_gens, P.b_gens)], identity


@pytest.mark.parametrize("name", sorted(QUOTIENT_GROUPS))
def test_every_relator_maps_to_one(name):
    P = QUOTIENT_GROUPS[name]
    rho = quotients.permutation_quotients(P)
    assert len(rho[1]) == quotients.QUOTIENTS * quotients.DEGREE
    images, identity = _relator_images(P, rho)
    assert images == [identity] * len(images)
    # each generator's two signs are inverse permutations
    for g in range(1, P.base_rank + 2):
        assert quotients.mul(rho[g], rho[-g]) == identity


@pytest.mark.parametrize("name", sorted(QUOTIENT_GROUPS))
def test_quotient_is_a_homomorphism(name):
    P = QUOTIENT_GROUPS[name]
    rho = quotients.permutation_quotients(P)
    t = P.base_rank + 1
    identity = bytes(range(len(rho[1])))

    def image(word):
        return quotients.evaluate(word, rho, identity)

    rng = random.Random(f"quotient:{name}")
    moved = 0
    for _ in range(100):
        u, v = rand_tword(rng, P, 4), rand_tword(rng, P, 4)
        fu, fv = u.flatten(t), v.flatten(t)
        assert image(fu + fv) == quotients.mul(image(fu), image(fv))
        # equal elements have equal images
        assert image(fu) == image(britton_reduce(u, P).flatten(t))
        assert image(fu) == image(TWord(*normal_form(u, P)).flatten(t))
        moved += image(fu) != identity
    assert moved > 80


def word_images(spec):
    """The map from a word to its image under the quotient of spec's
    searches, letter by letter; under the trivial quotient, the constant
    map to b"", the image that csa._walk gives every word."""
    identity, tables = spec.quotient
    if not identity:
        return lambda w: b""

    def image(w):
        p = identity
        for l in w:
            p = p.translate(tables[l])
        return p

    return image


def _ball_index(spec, elements):
    image = word_images(spec)
    return quotients.BallIndex([image(w) for w in elements])


def transports(index, i, j):
    """rho([a_i, a_j^-1 a_i a_j]) = 1 for the images of index, one pair
    at a time: the reference that BallIndex.columns(i, True) is checked
    against."""
    a, ta = index._images[i], index._tables[i]
    c = quotients.inv(index._images[j]).translate(ta) \
        .translate(index._tables[j])
    return a.translate(quotients.table(c)) == c.translate(ta)


def test_rejected_pairs_do_not_commute():
    rejected = total = 0
    for name, spec, _ in SEARCHES:
        elements = csa.ball(spec, 2)
        index = _ball_index(spec, elements)
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                total += 2
                if not index.commute(i, j):
                    rejected += 1
                    assert not commutes(a, b, spec), (name, a, b)
                if not transports(index, i, j):
                    rejected += 1
                    assert not commutes(a, conjugate(a, b), spec), \
                        (name, a, b)
    # z2 and a~bb are abelian, so nothing there may be rejected; most
    # pairs of the others are
    assert rejected > 0.8 * total


def test_no_quotient_falls_back_to_the_plain_scan():
    # every cycle length 2..10 shares a factor with 210, so a power x^210
    # of a permutation x != 1 of degree 10 has shorter cycles than x:
    # x ~ x^210 forces x to 1, which no draw finds
    spec = _hnn(1, (1,), power((1,), 210))
    assert quotients.permutation_quotients(spec.ext) is None
    assert spec.quotient == quotients.TRIVIAL
    _, rows, columns, *_ = csa._search_context(spec, 1)
    rows = list(rows())
    # every row is given every word of the search ball
    assert all(list(columns(i, t)) == rows
               for i in rows for t in (False, True))
    want_csa, want_ct = _brute_force(spec, 1)
    assert _witnesses(spec, 1) == (want_csa, want_ct)
    assert want_csa == ((1,), (2,))


def test_ct_rows_are_listed_on_first_use(monkeypatch):
    # the first triple lies in the first rows; a row of every element
    # would make len(ball) * (len(ball) - 1) tests
    spec = _hnn(2, (1,), (-1,))
    n = len(csa.ball(spec, 3))
    calls = [0]
    context = csa._search_context

    def counting(spec, radius):
        elements, rows, columns, comm, commutes, conj = context(spec, radius)

        def counted(i, j):
            calls[0] += 1
            return commutes(i, j)

        return elements, rows, columns, comm, counted, conj

    monkeypatch.setattr(csa, "_search_context", counting)
    assert csa.falsify_ct(spec, 3) is not None
    assert 0 < calls[0] < n * (n - 1) // 4


def test_ct_tests_each_pair_only_to_list_a_row(monkeypatch):
    # row(i) holds every k != i that commutes with a_i, so the triple
    # loop reads [a_i, a_k] off it: every commutes call lists a row, and
    # as its columns have passed the commute filter, no pair asks the
    # index again
    spec = QUADRANT_SPECS[1]
    calls, listed, filtered = [0], [0], [0]
    context = csa._search_context
    commute = quotients.BallIndex.commute

    def counting(spec, radius):
        elements, rows, columns, comm, commutes, conj = context(spec, radius)

        def counted(i, j):
            calls[0] += 1
            return commutes(i, j)

        def row_columns(i, transport):
            out = list(columns(i, transport))
            listed[0] += sum(j != i for j in out)
            return out

        return elements, rows, row_columns, comm, counted, conj

    def counting_commute(self, i, j):
        filtered[0] += 1
        return commute(self, i, j)

    monkeypatch.setattr(csa, "_search_context", counting)
    monkeypatch.setattr(quotients.BallIndex, "commute", counting_commute)
    assert csa.falsify_ct(spec, 4) is None
    assert calls[0] == listed[0] > 0
    assert filtered[0] == 0


def test_constant_quotient_csa_asks_no_commute_filter(monkeypatch):
    # under the trivial quotient every pair passes BallIndex.commute, so
    # falsify_csa tests its pairs with the group's own test alone
    commute = quotients.BallIndex.commute
    filtered = [0]

    def counting_commute(self, i, j):
        filtered[0] += 1
        return commute(self, i, j)

    monkeypatch.setattr(quotients.BallIndex, "commute", counting_commute)
    spec = FreeProductCyclicsSpec((2, 3, 0))
    assert csa.falsify_csa(spec, 4) == csa.CsaWitness((1, 2, 1, -2), (1,))
    assert filtered[0] == 0


def test_inverse_rows_are_read_off_each_other():
    # the fact the search ball's inverse rule rests on: [a, c] = 1 iff
    # [a^-1, c] = 1, so over the whole ball the row of a^-1 is that of a
    # with a^-1, which commutes with a, in place of a
    pairs = 0
    for name, spec, _ in SEARCHES:
        elements = csa.ball(spec, 3)
        index = _ball_index(spec, elements)
        position = {w: i for i, w in enumerate(elements)}
        cache = {}

        def listed(i):
            if i not in cache:
                cache[i] = [j for j in index.columns(i, False) if j != i
                            and commutes(elements[i], elements[j], spec)]
            return cache[i]

        for i, w in enumerate(elements):
            m = position.get(inverse(w))
            if m is not None:
                derived = sorted(m if j == i else j for j in listed(m))
                assert derived == listed(i), (name, w)
                pairs += 1
    assert pairs > 1000


def search_ball(spec, radius):
    """The words of every row of a full scan."""
    elements, rows, *_ = csa._search_context(spec, radius)
    return [elements[i] for i in rows()]


def test_search_ball_holds_one_word_of_each_inverse_pair():
    for name, spec, _ in EXACTNESS:
        elements = search_ball(spec, 3)
        assert not set(elements) & {inverse(w) for w in elements}, name


def test_ct_lists_one_row_of_each_inverse_pair(monkeypatch):
    spec = QUADRANT_SPECS[0]
    listed = set()
    context = csa._search_context

    def counting(spec, radius):
        elements, rows, columns, *tests = context(spec, radius)

        def row_columns(i, transport):
            assert not transport
            listed.add(elements[i])
            return columns(i, transport)

        return elements, rows, row_columns, *tests

    monkeypatch.setattr(csa, "_search_context", counting)
    assert csa.falsify_ct(spec, 4) is None
    assert listed and not any(inverse(w) in listed for w in listed)


# -- the indexed pair join ----------------------------------------------------


def scan_witnesses(spec, radius):
    """The falsifiers before the indexed join, over the search ball
    built from key_only_ball: every row scans every column, the quotient
    images of each pair first, then the products of spec.search_forms,
    as the search multiplies them.  Returns the CSA and the CT
    witness."""
    elements = before_their_inverse(key_only_ball(spec, radius))
    n = len(elements)
    form, trivial = spec.search_forms()
    forms = [form(w) for w in elements]
    cache = {}

    def comm(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in cache:
            (a, a_inv), (b, b_inv) = forms[i], forms[j]
            cache[key] = trivial(a, b, a_inv, b_inv)
        return cache[key]

    def conj_commutes(i, j):
        (a, a_inv), (v, v_inv) = forms[i], forms[j]
        return trivial(a, v_inv, a, v, a_inv, v_inv, a_inv, v)

    image = word_images(spec)
    images = [image(w) for w in elements]
    tables = [quotients.table(p) for p in images]
    inverses = [quotients.inv(p) for p in images]

    def csa_hit():
        for i in range(n):
            a, ta = images[i], tables[i]
            for j in range(n):
                c = inverses[j].translate(ta).translate(tables[j])
                if a.translate(quotients.table(c)) == c.translate(ta) \
                        and i != j and not comm(i, j) \
                        and conj_commutes(i, j):
                    return elements[i], elements[j]
        return None

    rows = {}

    def row(i):
        if i not in rows:
            a, ta = images[i], tables[i]
            rows[i] = [j for j in range(n)
                       if a.translate(tables[j]) == images[j].translate(ta)
                       and j != i and comm(i, j)]
        return rows[i]

    hit_ct = next(((elements[i], elements[j], elements[k])
                   for i in range(n) for j in row(i) for k in row(j)
                   if k != i and not comm(i, k)), None)
    return csa_hit(), hit_ct


JOINED = EXACTNESS + GENERIC_SEARCHES + \
    [(f"quadrant{k}-r4", spec, 4)
     for k, spec in enumerate(QUADRANT_SPECS, 1)] + \
    [(f"quadrant{k}-r5", QUADRANT_SPECS[k - 1], 5) for k in (1, 2)]


@pytest.mark.parametrize("name,spec,radius", JOINED,
                         ids=[name for name, _, _ in JOINED])
def test_join_matches_full_scan(name, spec, radius):
    assert _witnesses(spec, radius) == scan_witnesses(spec, radius)


def whole_ball_witnesses(spec, radius):
    """The first CSA and CT witnesses of a scan of every row of
    csa.ball, inverse pairs included: each row walks the columns of the
    ball index, and each pair is tested by wpengine.commutes, cached."""
    elements = csa.ball(spec, radius)
    index = _ball_index(spec, elements)
    n = len(elements)
    cache = {}

    def comm(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in cache:
            cache[key] = commutes(elements[i], elements[j], spec)
        return cache[key]

    csa_hit = next(((elements[i], elements[j])
                    for i in range(n) for j in index.columns(i, True)
                    if i != j and not comm(i, j)
                    and commutes(elements[i],
                                 conjugate(elements[i], elements[j]), spec)),
                   None)
    rows = {}

    def row(i):
        if i not in rows:
            rows[i] = [j for j in index.columns(i, False)
                       if j != i and comm(i, j)]
        return rows[i]

    ct_hit = next(((elements[i], elements[j], elements[k])
                   for i in range(n) for j in row(i) for k in row(j)
                   if k != i and not comm(i, k)), None)
    return csa_hit, ct_hit


@pytest.mark.parametrize("name,spec,radius", JOINED,
                         ids=[name for name, _, _ in JOINED])
def test_falsifiers_match_whole_ball_scan(name, spec, radius):
    # the search ball drops every word whose inverse comes earlier; the
    # whole ball, with no such rule, gives the same first hits
    assert _witnesses(spec, radius) == whole_ball_witnesses(spec, radius)


INDEXED = [(name, spec) for name, spec, _ in SEARCHES + GENERIC_SEARCHES] \
    + [(f"quadrant{k}", spec) for k, spec in enumerate(QUADRANT_SPECS, 1)]


@pytest.mark.parametrize("name,spec", INDEXED,
                         ids=[name for name, _ in INDEXED])
def test_columns_hold_every_pair_the_index_passes(name, spec):
    # the images are those of the index a search builds
    (words, *_), walked, _ = csa._walk(spec, 3, spec.quotient)
    assert walked == [word_images(spec)(w) for w in words]
    # exactly the columns that pass the per-pair tests, increasing
    elements = csa.ball(spec, 3)
    index = _ball_index(spec, elements)
    n = len(elements)
    for i in range(n):
        assert list(index.columns(i, False)) == \
            [j for j in range(n) if index.commute(i, j)]
        assert list(index.columns(i, True)) == \
            [j for j in range(n) if transports(index, i, j)]


class _CountingImages(list):
    """A list of images that counts the reads of its items."""

    reads = 0

    def __getitem__(self, j):
        self.reads += 1
        return super().__getitem__(j)


@pytest.mark.parametrize("name,spec", INDEXED,
                         ids=[name for name, _ in INDEXED])
def test_columns_are_tested_as_they_are_asked_for(name, spec):
    # a row is an iterator: its first column is given before any later
    # column is tested; only an identity row gives every column untested
    elements = csa.ball(spec, 3)
    image = word_images(spec)
    images = _CountingImages(image(w) for w in elements)
    index = quotients.BallIndex(images)
    n = len(elements)
    rows = lazy = 0
    for i in range(n):
        for transport in (False, True):
            if images[i] == bytes(range(len(images[i]))):
                assert index.columns(i, transport) == range(n)
                continue
            rows += 1
            it = index.columns(i, transport)
            assert iter(it) is it
            images.reads = 0
            first = next(it)
            read_first = images.reads
            # columns before the first hit, and the hit, are tested
            assert read_first <= first + 1
            rest = list(it)
            if rest:
                assert images.reads > read_first
                lazy += 1
    # under the trivial quotient every row is an identity row
    assert lazy > 0 or rows == 0


def _constant_quotient(P):
    identity = bytes(range(quotients.DEGREE))
    return {l: identity for g in range(1, P.base_rank + 2) for l in (g, -g)}


def test_constant_quotient_falls_back_on_every_row(monkeypatch):
    patch_quotients(monkeypatch, _constant_quotient)
    for name, spec, radius in EXACTNESS:
        spec = afresh(spec)
        assert quotient_kind(spec) == "constant", name
        _, rows, columns, *_ = csa._search_context(spec, radius)
        rows = list(rows())
        # C(1) = Sym(DEGREE) is larger than any ball: every row is given
        # every word of the search ball
        assert all(list(columns(i, t)) == rows
                   for i in rows for t in (False, True)), name
        assert _witnesses(spec, radius) == scan_witnesses(spec, radius), name


def test_join_scans_few_columns():
    spec = QUADRANT_SPECS[0]
    _, rows, columns, *_ = csa._search_context(spec, 4)
    rows = list(rows())
    n = len(rows)
    for transport in (False, True):
        looked = sum(len(list(columns(i, transport))) for i in rows)
        assert looked < n * n / 20


def _shapes(n, least=1):
    """The cycle types of Sym(n), lengths increasing."""
    if n == 0:
        yield ()
    for k in range(least, n + 1):
        for rest in _shapes(n - k, k):
            yield (k,) + rest


def _canonical(shape):
    """g0, the canonical element of cycle type shape: its cycles are runs
    of consecutive points, x -> x + 1 within each."""
    g0 = bytearray()
    for length in shape:
        start = len(g0)
        g0 += bytes(start + (x + 1) % length for x in range(length))
    return bytes(g0)


def _relabelled(h, shape, rng):
    """g of cycle type shape, pi with g = pi^-1 g0 pi, and h carried
    from g0 to g."""
    g0 = _canonical(shape)
    pi = list(range(len(g0)))
    rng.shuffle(pi)
    pi = bytes(pi)
    carry = quotients.inv(pi)
    return (quotients.mul(quotients.mul(carry, g0), pi),
            quotients.mul(quotients.mul(carry, h), pi))


def _conj(g, h):
    return quotients.mul(quotients.mul(quotients.inv(h), g), h)


def _transporter(shape, d):
    """T(g0) as the cosets C(g0) pi listed by quotients.conjugators."""
    return [quotients.mul(c[:d], pi) for pi in quotients.conjugators(shape)
            for c in quotients.centralizer(shape)]


def test_centralizers_have_their_order_and_commute():
    rng = random.Random(1996)
    d = quotients.DEGREE
    listed = 0
    for shape in _shapes(d):
        order = quotients.centralizer_order(shape)
        if order > BALL_WORD_LIMIT:
            continue
        tables = quotients.centralizer(shape)
        members = {t[:d] for t in tables}
        assert len(tables) == len(members) == order, shape
        g = None
        for h0 in members:
            g, h = _relabelled(h0, shape, rng)
            assert quotients.mul(g, h) == quotients.mul(h, g), shape
        assert quotients.relabelling(g)[0] == shape
        transported = quotients.transporter_order(shape)
        if transported <= BALL_WORD_LIMIT:
            members = _transporter(shape, d)
            assert len(set(members)) == len(members) == transported, shape
            for h0 in members:
                g, h = _relabelled(h0, shape, rng)
                c = _conj(g, h)
                assert quotients.mul(g, c) == quotients.mul(c, g), shape
        listed += 1
    assert listed > 30


@pytest.mark.parametrize("n", range(1, 7))
def test_small_centralizers_and_transporters_are_complete(n):
    # every h of Sym(n), against the lists for each cycle type
    group = [bytes(p) for p in itertools.permutations(range(n))]
    for shape in _shapes(n):
        g0 = _relabelled(bytes(range(n)), shape, random.Random(0))[0]
        shape_g, pi = quotients.relabelling(g0)
        assert shape_g == shape
        carry = quotients.inv(pi)

        def listed(members):
            return {quotients.mul(quotients.mul(carry, h[:n]), pi)
                    for h in members}

        commuting = {h for h in group
                     if quotients.mul(g0, h) == quotients.mul(h, g0)}
        assert listed(quotients.centralizer(shape)) == commuting
        assert len(commuting) == quotients.centralizer_order(shape)
        transporting = set()
        for h in group:
            c = _conj(g0, h)
            if quotients.mul(g0, c) == quotients.mul(c, g0):
                transporting.add(h)
        assert listed(_transporter(shape, n)) == transporting
        assert len(transporting) == quotients.transporter_order(shape)


def _orbit_lengths(g):
    """The lengths of the orbits of g, increasing, each orbit found by
    applying g len(g) times to each point."""
    orbits = set()
    for x in range(len(g)):
        orbit, y = {x}, x
        for _ in range(len(g)):
            y = g[y]
            orbit.add(y)
        orbits.add(frozenset(orbit))
    return tuple(sorted(map(len, orbits)))


def test_cycle_readers_agree_with_orbits():
    rng = random.Random(1996)
    d = quotients.DEGREE
    shapes = list(_shapes(d))
    assert len(shapes) == 42
    perms = [_relabelled(bytes(range(d)), shape, rng)[0] for shape in shapes]
    perms += [quotients._random_perm(rng) for _ in range(200)]
    for g in perms:
        cycles = quotients._cycles(g)
        assert sorted(x for c in cycles for x in c) == list(range(d))
        assert all(g[c[m]] == c[(m + 1) % len(c)]
                   for c in cycles for m in range(len(c)))
        shape = quotients._shape(cycles)
        assert shape == _orbit_lengths(g)
        relabelled, pi = quotients.relabelling(g)
        assert relabelled == shape
        assert _conj(_canonical(shape), pi) == g
    assert [_orbit_lengths(g) for g in perms[:42]] == shapes


def test_conjugator_finds_a_conjugator_exactly_for_one_cycle_type():
    rng = random.Random(1996)
    d = quotients.DEGREE
    perms = [_relabelled(bytes(range(d)), shape, rng)[0]
             for shape in _shapes(d)]
    for A in perms:
        pi = quotients._random_perm(rng)
        B = _conj(A, pi)
        T = quotients._conjugator(A, B, rng)
        assert T is not None and _conj(A, T) == B
        for other in perms:
            if other != A:
                # None is found before any random choice
                state = rng.getstate()
                assert quotients._conjugator(A, other, rng) is None
                assert rng.getstate() == state


@pytest.mark.parametrize("lengths", [{7}, {2}, {3, 5}, {5, 7, 9},
                                     set(range(2, 11))])
def test_random_perm_moves_only_cycles_of_allowed_lengths(lengths):
    class FirstDrawIdentity(random.Random):
        """Its first shuffle leaves the list as it is, so the first
        draw is the identity, which _random_perm must reject."""
        first = True

        def shuffle(self, x):
            if not self.first:
                super().shuffle(x)
            self.first = False

    rng = FirstDrawIdentity(1996)
    d = quotients.DEGREE
    for _ in range(100):
        q = quotients._random_perm(rng, lengths)
        assert sorted(q) == list(range(d))
        assert q != bytes(range(d))
        assert all(len(c) in lengths
                   for c in quotients._cycles(q) if len(c) > 1)


@pytest.mark.parametrize("k", [-3, -2, 2, 3, 4])
def test_power_relations_draw_no_failed_quotient(monkeypatch, k):
    # t^-1 x t = x^k: X is drawn with cycle lengths prime to k, so X^k is
    # conjugate to X and every draw gives a quotient
    P = HnnPresentation(2, [(1,)], [power((1,), k)])
    draws = []
    draw = quotients._draw

    def counting(P, rng):
        draws.append(draw(P, rng))
        return draws[-1]

    monkeypatch.setattr(quotients, "_draw", counting)
    rho = quotients.permutation_quotients(P)
    assert len(draws) == quotients.QUOTIENTS and None not in draws
    for X in (q[1] for q in draws):
        assert X != bytes(range(quotients.DEGREE))
        assert all(math.gcd(len(c), k) == 1 for c in quotients._cycles(X))
    images, identity = _relator_images(P, rho)
    assert images == [identity] * len(images)


def test_impossible_power_relation_makes_no_draw(monkeypatch):
    # x ~ x^210 allows x no cycle length (see
    # test_no_quotient_falls_back_to_the_plain_scan), which the plan finds
    # before any draw
    draws = []
    draw = quotients._draw

    def counting(plan, rng):
        draws.append(draw(plan, rng))
        return draws[-1]

    monkeypatch.setattr(quotients, "_draw", counting)
    P = HnnPresentation(1, [(1,)], [power((1,), 210)])
    assert quotients.permutation_quotients(P) is None
    assert draws == []


# SHA-256 of each quotient's images, letters in increasing order, recorded
# when every draw still planned its own steps: the plan makes the same
# random calls in the same order (ex1 is EX1, amalgam a ~ c^2)
QUOTIENT_DIGESTS = {
    "amalgam":
        "974c6c24ee00d345e0ebf47ea7b20d4abc77439fe3f99dfa4bded88c1a218dd2",
    "bs12": "fd0aaa2c3653d05c174740389c90fac920d51509b772ad138cb17a132ce7f0c4",
    "case1":
        "fe4467ed1ee7ead08792805e56a9752eaba0acfca34e5132abb23c3249ab2be2",
    "case2":
        "8e5516da6f7cfd5fba66ef60edd87bf45ce0343355c92739d883ea171ef33690",
    "case3":
        "e4a58caabbb038f152103290284f0ac5c5c366ce0371abb7aebdd2b3385ce4a7",
    "case4":
        "fd0aaa2c3653d05c174740389c90fac920d51509b772ad138cb17a132ce7f0c4",
    "central":
        "c183af4b9f7939e5558eb5073f5f8429303f6944cca65a178d33d80af5a7d628",
    "ex1": "65e7b320a892224e071cad96b56bff355abcfa47dde72d02d67d984b09ae416d",
    "trefoil":
        "a3c4c3fce472c3a6aea12a5f1cb0c5f28b5d3df1ca3c7dcb61b5a58df1b198a6",
    "y_xx": "73048e870a26cfcbbf43e1c825a60b2aa8ef1e6ea1daebe00b03048deb405865",
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_GROUPS))
def test_quotients_are_pinned(name):
    rho = quotients.permutation_quotients(QUOTIENT_GROUPS[name])
    digest = hashlib.sha256(b"".join(rho[g] for g in sorted(rho)))
    assert digest.hexdigest() == QUOTIENT_DIGESTS[name]


# -- the ball deduplicated by quotient image ----------------------------------


def key_only_ball(spec, radius):
    """csa.ball before the quotient images: the canonical key of every
    reduced word, the first word of each key kept."""
    seen = set()
    out = []
    for w in reduced_words(num_generators(spec), radius):
        k = canonical_key(w, spec)
        if k not in seen:
            seen.add(k)
            out.append(w)
    return out[1:]


def before_their_inverse(words):
    """The words that come before their literal inverse in shortlex
    order."""
    return [w for w in words if shortlex_key(w) < shortlex_key(inverse(w))]


BALLS = EXACTNESS + \
    [(f"quadrant{k}-r4", spec, 4)
     for k, spec in enumerate(QUADRANT_SPECS, 1)] + \
    [("free", FreeSpec(2), 3), ("fpc", FreeProductCyclicsSpec((2, 3)), 4),
     ("fbc", FreeByCyclicSpec(), 3)]


def _counting_keys(monkeypatch):
    calls = [0]
    key = csa.canonical_key

    def counting(w, spec):
        calls[0] += 1
        return key(w, spec)

    monkeypatch.setattr(csa, "canonical_key", counting)
    return calls


def test_search_ball_matches_key_only_ball():
    for name, spec, radius in BALLS:
        assert search_ball(spec, radius) == \
            before_their_inverse(key_only_ball(spec, radius)), name


@pytest.mark.parametrize("images", ["constant", "none"])
def test_ball_without_separating_images_keys_every_word(monkeypatch, images):
    patch_quotients(monkeypatch, _constant_quotient
                    if images == "constant" else lambda P: None)
    calls = _counting_keys(monkeypatch)
    for name, spec, radius in BALLS:
        spec = afresh(spec)
        assert quotient_kind(spec) == \
            (images if isinstance(spec, BrittonSpec) else "none"), name
        calls[0] = 0
        assert search_ball(spec, radius) == \
            before_their_inverse(key_only_ball(spec, radius)), name
        searched = calls[0]
        calls[0] = 0
        firsts = {()} | set(csa.ball(spec, radius))
        words = reduced_words(num_generators(spec), radius)
        # every word shares one coarse key, so ball() keys the identity
        # and each word whose prefix is the first word of its element
        # once; a word with a duplicate prefix is a duplicate, unkeyed.
        # The search keys no word ball() does not
        assert searched <= calls[0] == \
            1 + sum(w[:-1] in firsts for w in words[1:]), name


def test_early_exit_balls_key_few_words(monkeypatch):
    # the benchmark's early-exit family t^-1 u t = u^k, u a letter of F2:
    # each search stops before it reaches a word that shares an image
    calls = _counting_keys(monkeypatch)
    searches = 0
    for u in ((1,), (-1,), (2,), (-2,)):
        for k in (-3, -2, -1, 2, 3):
            assert csa.falsify_csa(_hnn(2, u, power(u, k)), 3) is not None
            searches += 1
    assert calls[0] <= searches


def _shortlex_first_of_classes(spec, radius):
    """The shortlex-first word of each nontrivial class {g, g^-1} with a
    word in the ball, by canonical keys alone."""
    seen = {canonical_key((), spec)}
    out = []
    for w in reduced_words(num_generators(spec), radius):
        key, key_inv = canonical_key(w, spec), canonical_key(inverse(w), spec)
        if key not in seen and key_inv not in seen:
            out.append(w)
        seen.update((key, key_inv))
    return out


def test_rows_hold_the_first_word_of_every_class():
    # the invariant that keeps the first hit in place under lazy
    # skipping: a full falsify_ct scan reaches the shortlex-first word of
    # every element class {g, g^-1}, and no element twice
    for name, spec, radius in BALLS:
        rows = search_ball(spec, radius)
        assert set(_shortlex_first_of_classes(spec, radius)) <= set(rows), \
            name
        keys = [canonical_key(w, spec) for w in rows]
        assert len(set(keys)) == len(keys), name


@pytest.mark.parametrize("rank,radius", [(0, 2), (1, 0), (1, 5), (2, 0),
                                         (2, 4), (3, 3), (4, 2)])
def test_skeleton_lists_the_reduced_words(rank, radius):
    words, parent, last, searched = csa._skeleton(rank, radius)
    assert list(words) == reduced_words(rank, radius)
    assert parent[0] == last[0] == 0
    for k, w in enumerate(words[1:], 1):
        assert words[parent[k]] == w[:-1] and last[k] == w[-1]
    assert list(searched) == [
        k for k, w in enumerate(words)
        if shortlex_key(w) < shortlex_key(inverse(w))]


def test_early_exit_searches_share_one_skeleton():
    # the 20 groups of test_early_exit_balls_key_few_words, each a fresh
    # spec: every search walks the skeleton of (3, 3), built once
    csa._skeleton.cache_clear()
    for u in ((1,), (-1,), (2,), (-2,)):
        for k in (-3, -2, -1, 2, 3):
            assert csa.falsify_csa(_hnn(2, u, power(u, k)), 3) is not None
    info = csa._skeleton.cache_info()
    assert (info.misses, info.hits) == (1, 19)


# -- the one-walk normal form ------------------------------------------------


def two_walk_normal_form(w, P):
    """normal_form before the one-walk split: coset_rep, then phi or
    phi_inv of g rep^-1, a second walk."""
    r = britton_reduce(w, P)
    head = r.head
    tail = list(r.tail)
    for i in range(len(tail) - 1, -1, -1):
        e, g = tail[i]
        if e == 1:
            rep = P.B.coset_rep(g)
            hop = P.phi_inv(concat(g, inverse(rep)))
        else:
            rep = P.A.coset_rep(g)
            hop = P.phi(concat(g, inverse(rep)))
        tail[i] = (e, rep)
        if i == 0:
            head = concat(head, hop)
        else:
            pe, pg = tail[i - 1]
            tail[i - 1] = (pe, concat(pg, hop))
    return (head, tuple(tail))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_one_walk_normal_form_matches_two_walks(name):
    P = GROUPS[name]
    rng = random.Random(f"normal:{name}")
    hops = 0
    for _ in range(300):
        w = rand_tword(rng, P)
        want = two_walk_normal_form(w, P)
        assert normal_form(w, P) == want
        hops += want[0] != britton_reduce(w, P).head
    assert hops > 20


def rand_letters(rng, rank, length):
    return tuple(rng.choice([s * k for k in range(1, rank + 1)
                             for s in (1, -1)]) for _ in range(length))


def test_coset_split_matches_coset_rep_and_express():
    rng = random.Random(97)
    for rank in range(1, 5):
        for _ in range(60):
            gens = [free_reduce(rand_letters(rng, rank, rng.randint(1, 6)))
                    for _ in range(rng.randint(1, 4))]
            H = fold(gens, rank)
            for _ in range(20):
                w = free_reduce(rand_letters(rng, rank, rng.randint(0, 12)))
                rep = H.coset_rep(w)
                assert H._coset_split(w) == \
                    (rep, H.express(concat(w, inverse(rep))))


def test_public_graph_reads_check_their_input():
    H = fold([(1, 2), (2, -1)], 2)
    for bad in ((1, 3), (-3,), (1, 0)):
        for read in (H.member, H.express, H.coset_rep):
            with pytest.raises(MalformedWordError):
                read(bad)
    # unreduced input is reduced before the walk
    assert H.member((1, 1, -1, 2)) and H.express((1, 1, -1, 2)) == (1,)
    assert H.coset_rep((2, 2, -2)) == H.coset_rep((2,))


# -- the one-pass image writer -----------------------------------------------


def basis_image(P, e, i):
    """The image across the stable letter of basis letter i of A (e = -1)
    or of B (e = 1), read off the generator lists."""
    basis = P.b_gens if e < 0 else P.a_gens
    return basis[i - 1] if i > 0 else inverse(basis[-i - 1])


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_image_writer_matches_concat(name):
    P = GROUPS[name]
    rng = random.Random(f"writer:{name}")
    n = len(P.a_gens)
    seams = 0
    for _ in range(300):
        e = rng.choice((1, -1))
        expr = [rng.choice((1, -1)) * rng.randint(1, n)
                for _ in range(rng.randint(0, 6))]
        images = [basis_image(P, e, i) for i in expr]
        image = concat(*images)
        left = rand_base(rng, P)
        if image and rng.random() < 0.5:
            # a left neighbour that ends by undoing a prefix of the image
            left = concat(left, inverse(image[:rng.randint(1, len(image))]))
        into = list(left)
        got = P._image(e, expr, into)
        assert got is into
        assert tuple(got) == concat(left, *images)
        seams += len(got) < len(left) + len(image)
    assert seams > 50
    for e in (1, -1):
        into = [1]
        assert P._image(e, [], into) == [1]


def test_image_writer_checks_the_word_limit_before_writing():
    P = GROUPS["bs12"]
    into = [-1]
    with pytest.raises(BudgetExceededError) as caught:
        P._image(-1, [1] * 600_000, into)
    assert str(caught.value) == \
        f"a word of 1200000 letters is over the limit of {WORD_LETTER_LIMIT}"
    assert into == [-1]


@pytest.mark.parametrize("name", ["ex1", "amalgam"])
def test_normal_form_reads_once_and_joins_nothing_per_hop(name, monkeypatch):
    """Past its Britton reduction, normal_form reads each hop's segment
    once and writes the image onto the segment before it with no
    words.concat call."""
    P = GROUPS[name]
    rng = random.Random(f"hops:{name}")
    w = TWord(rand_base(rng, P), tuple((rng.choice((1, -1)), rand_base(rng, P))
                                       for _ in range(400)))
    want = normal_form(w, P)  # builds the graphs' cached tree expressions
    calls = collections.Counter()
    read, join = stallings.CoreGraph._read, words.concat

    def counted_read(self, word):
        calls["read"] += 1
        return read(self, word)

    def counted_concat(*ws):
        calls["concat"] += 1
        return join(*ws)

    monkeypatch.setattr(stallings.CoreGraph, "_read", counted_read)
    for module in (words, stallings, hnn):
        monkeypatch.setattr(module, "concat", counted_concat)
    hops = britton_reduce(w, P).t_length
    reduced = calls.copy()
    calls.clear()
    assert normal_form(w, P) == want
    assert hops > 100
    assert calls["read"] == reduced["read"] + hops
    assert calls["concat"] == reduced["concat"]
