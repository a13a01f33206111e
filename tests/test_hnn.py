import itertools
import random

import pytest

from csakit import csa
from csakit.hnn import (CASE1_SEPARATED, CASE2_CENTRALIZER_EXT, CASE3, CASE4,
                        FREE_PRODUCT, NOT_MAXIMAL_A, HnnPresentation, TWord,
                        britton_reduce, classify_abelian_hnn, is_identity,
                        is_separated, is_strictly_separated, normal_form)
from csakit.words import (concat, conjugate, cyclic_reduce, free_reduce,
                          inverse, is_proper_power)
from csakit.wpengine import HnnSpec

EX1 = HnnPresentation(3, [(1,), (2,)], [(2,), (1, 3)])
B12 = HnnPresentation(1, [(1,)], [(1, 1)])
KLEIN = HnnPresentation(1, [(1,)], [(-1,)])
CASE1P = HnnPresentation(2, [(1,)], [(2,)])
CASE2P = HnnPresentation(2, [(1,)], [(1,)])


# -- helpers that only these tests use ---------------------------------------


def hnn_length(w, P):
    return britton_reduce(w, P).t_length


def tword_conjugate(w, v):
    """v^-1 * w * v."""
    return v.inv().mul(w).mul(v)


def tword_from_word(word, t_letter):
    """Split a word over base letters plus +-t_letter into a TWord,
    freely reducing each base segment."""
    w = TWord._split_reduced(word, t_letter)
    return TWord(free_reduce(w.head),
                 tuple((e, free_reduce(g)) for (e, g) in w.tail))


def equal(u: TWord, v: TWord, P: HnnPresentation) -> bool:
    return is_identity(u, P, v.inv())


def separated_iff_strict_for_abelian(P: HnnPresentation, cap=32) -> bool:
    if len(P.a_gens) != 1 or len(P.b_gens) != 1:
        raise ValueError("associated subgroups must be cyclic")
    sep = is_separated(P).verdict
    strict = is_strictly_separated(P, cap).verdict
    if sep != strict:
        raise AssertionError(
            "separated and strictly separated verdicts disagree on "
            "abelian associated subgroups")
    return sep


def tword_pow(w, n):
    if n < 0:
        return tword_pow(w.inv(), -n)
    out = TWord(())
    for _ in range(n):
        out = out.mul(w)
    return out


def hnn_cyclic_reduce(w, P):
    """Return (c, conj) with w = conj * c * conj^-1 and c cyclically
    reduced in the HNN sense (no pinch across the wrap)."""
    c = britton_reduce(w, P)
    conj = TWord(())
    while c.t_length >= 1:
        e1 = c.tail[0][0]
        en, gn = c.tail[-1]
        wrap = concat(gn, c.head)
        pinch = (en == -1 and e1 == 1 and P.A.member(wrap)) or \
                (en == 1 and e1 == -1 and P.B.member(wrap))
        if not pinch:
            break
        # conjugate by g0 t^{e1}: the wrap pinch becomes internal and cancels
        u = TWord(c.head, ((e1, ()),))
        c = britton_reduce(u.inv(), P, c, u)
        conj = conj.mul(u)
    if c.t_length == 0:
        core, p = cyclic_reduce(c.head)
        return TWord(core), conj.mul(TWord(p))
    if c.head:
        # absorb the leading base word into the conjugator
        u = TWord(c.head)
        c = TWord((), c.tail[:-1] + ((c.tail[-1][0],
                                      concat(c.tail[-1][1], c.head)),))
        conj = conj.mul(u)
    return c, conj


def rand_word(rng, rank, max_len=4):
    w = []
    for _ in range(rng.randrange(max_len + 1)):
        w.append(rng.choice([g * s for g in range(1, rank + 1)
                             for s in (1, -1)]))
    return free_reduce(w)


def rand_tword(rng, rank, max_t=4):
    head = rand_word(rng, rank)
    tail = tuple((rng.choice((1, -1)), rand_word(rng, rank))
                 for _ in range(rng.randrange(max_t + 1)))
    return TWord(head, tail)


def test_presentation_validates_basis():
    with pytest.raises(ValueError):
        HnnPresentation(2, [(1,), (1, 1)], [(1,), (2,)])
    with pytest.raises(ValueError):
        HnnPresentation(2, [(1,)], [(1,), (2,)])
    with pytest.raises(ValueError):
        HnnPresentation(2, [()], [(1,)])


def test_phi_examples():
    assert EX1.phi((1,)) == (2,)
    assert EX1.phi((2,)) == (1, 3)
    assert EX1.phi((1, 2)) == (2, 1, 3)
    assert EX1.phi_inv((2,)) == (1,)
    assert EX1.phi_inv((1, 3)) == (2,)
    with pytest.raises(ValueError):
        EX1.phi((3,))
    # x is not in B = <y> of t^-1 x t = y
    with pytest.raises(ValueError, match="not in the associated subgroup B"):
        HnnPresentation(2, [(1,)], [(2,)]).phi_inv((1,))


def test_phi_through_a_merged_self_loop():
    # folding A = <y^-1 x y, y> merges a vertex that carries a self-loop;
    # its tag must be re-tagged once, so x = y (y^-1 x y) y^-1 maps to
    # z x z^-1
    P = HnnPresentation(3, [(-2, 1, 2), (2,)], [(1,), (3,)])
    assert P.phi((1,)) == (3, 1, -3)


def test_tword_roundtrip():
    rng = random.Random(2)
    for _ in range(100):
        w = rand_tword(rng, 3)
        t = 4
        assert tword_from_word(w.flatten(t), t).flatten(t) == w.flatten(t)


def test_tword_group_laws():
    rng = random.Random(3)
    for _ in range(100):
        u, v = rand_tword(rng, 3), rand_tword(rng, 3)
        t = 4
        assert u.mul(v).flatten(t) == \
            free_reduce(u.flatten(t) + v.flatten(t))
        assert u.mul(u.inv()).flatten(t) == ()
        assert tword_pow(u, 2).flatten(t) == u.mul(u).flatten(t)


def test_tword_inv_is_the_syllable_reversal():
    # w * w^-1 reducing to 1 would also pass an unreduced inverse; these
    # pin inv to reversing the segments and the signs, t-length kept
    rng = random.Random(6)
    t = 4
    seen = set()
    for _ in range(300):
        w = rand_tword(rng, 3)
        seen.add("empty head" if not w.head else "head")
        seen.add("t-length 0" if not w.tail else "tail")
        if any(not g for _, g in w.tail[:-1]):
            seen.add("empty middle segment")
        assert w.inv().inv() == w
        assert w.inv().t_length == w.t_length
        assert w.inv().flatten(t) == inverse(w.flatten(t))
    assert seen == {"empty head", "head", "t-length 0", "tail",
                    "empty middle segment"}


def test_britton_pinch():
    w = TWord((), ((-1, (1,)), (1, ())))
    r = britton_reduce(w, EX1)
    assert r.t_length == 0 and r.head == (2,)
    w2 = TWord((), ((1, (2,)), (-1, ())))
    r2 = britton_reduce(w2, EX1)
    assert r2.t_length == 0 and r2.head == (1,)


def test_britton_laws_random():
    rng = random.Random(4)
    for pres, rank in ((EX1, 3), (B12, 1), (CASE2P, 2)):
        for _ in range(200):
            w = rand_tword(rng, rank)
            r = britton_reduce(w, pres)
            assert britton_reduce(r, pres).flatten(rank + 1) == \
                r.flatten(rank + 1)
            assert hnn_length(w.mul(w.inv()), pres) == 0
            assert is_identity(w.mul(w.inv()), pres)


def test_normal_form_is_canonical():
    rng = random.Random(5)
    for pres, rank in ((EX1, 3), (B12, 1)):
        for _ in range(150):
            u, v = rand_tword(rng, rank, 3), rand_tword(rng, rank, 3)
            same = equal(u, v, pres)
            assert (normal_form(u, pres) == normal_form(v, pres)) == same


def test_cyclic_reduce_reconstruction():
    rng = random.Random(6)
    for pres, rank in ((EX1, 3), (B12, 1), (KLEIN, 1)):
        for _ in range(100):
            w = rand_tword(rng, rank, 3)
            c, conj = hnn_cyclic_reduce(w, pres)
            assert equal(w, conj.mul(c).mul(conj.inv()), pres)


def test_cyclic_power_length():
    # cyclically reduced c = t x3: |c^m| = m |c|
    c = TWord((), ((1, (3,)),))
    c0, _ = hnn_cyclic_reduce(c, EX1)
    assert c0.t_length == 1
    for m in (1, 2, 3):
        assert hnn_length(tword_pow(c0, m), EX1) == m * c0.t_length


def test_cyclic_power_length_random():
    rng = random.Random(7)
    checked = 0
    for _ in range(150):
        w = rand_tword(rng, 3, 3)
        c, _ = hnn_cyclic_reduce(w, EX1)
        if c.t_length < 1:
            continue
        for m in (1, 2, 3):
            assert hnn_length(tword_pow(c, m), EX1) == m * c.t_length
        checked += 1
    assert checked > 20


def test_separation_example1():
    rep = is_separated(EX1)
    assert not rep.verdict
    g, h = rep.witness
    assert h == (2,)
    assert EX1.A.member(h)
    assert EX1.B.member(concat(g, h, inverse(g)))


def test_strictly_separated_fixture():
    # A = <a>, B = <b^2>: closure of B is <b>, still disjoint from
    # conjugates of A
    P = HnnPresentation(2, [(1,)], [(2, 2)])
    assert is_separated(P).verdict
    assert is_strictly_separated(P).verdict
    # nice consequence: |v^-1 w v| stays within 2 t-lengths of |w|
    rng = random.Random(8)
    for _ in range(100):
        w = rand_tword(rng, 2, 3)
        v = rand_tword(rng, 2, 2)
        lw = hnn_length(w, P)
        assert hnn_length(tword_conjugate(w, v), P) >= lw - 2 * v.t_length


def test_separated_iff_strict_abelian():
    for pres in (B12, KLEIN, CASE1P, CASE2P):
        sep = separated_iff_strict_for_abelian(pres)
        assert sep == is_separated(pres).verdict
    with pytest.raises(ValueError):
        separated_iff_strict_for_abelian(EX1)


def test_classifier_quadrants():
    assert classify_abelian_hnn(B12).case == CASE4
    assert classify_abelian_hnn(B12).csa == "not-csa"
    assert classify_abelian_hnn(KLEIN).case == CASE3
    assert classify_abelian_hnn(KLEIN).csa == "not-csa"
    c1 = classify_abelian_hnn(CASE1P)
    assert c1.case == CASE1_SEPARATED and c1.csa == "csa*"
    c2 = classify_abelian_hnn(CASE2P)
    assert c2.case == CASE2_CENTRALIZER_EXT and c2.csa == "csa*"
    # conjugator witness actually conjugates u to v
    u, v = CASE2P.a_gens[0], CASE2P.b_gens[0]
    assert conjugate(u, c2.conjugator) == v


def test_classifier_edge_cases():
    free = classify_abelian_hnn(HnnPresentation(1, [()], [()]))
    assert free.case == FREE_PRODUCT and free.csa == "csa*"
    # a 1 -> 1 pair is left out, so t^-1 x^2 t = x^-1 stays cyclic
    b12 = classify_abelian_hnn(HnnPresentation(1, [(1, 1), ()], [(-1,), ()]))
    assert b12.case == CASE4 and b12.csa == "not-csa"
    # t^-1 x^2 t = y is read as t y t^-1 = x^2, where <y> and <x^2> are
    # conjugacy separated: the group is F(x, t)
    notmax = classify_abelian_hnn(HnnPresentation(2, [(1, 1)], [(2,)]))
    assert notmax.case == CASE1_SEPARATED and notmax.csa == "csa*"
    both_powers = classify_abelian_hnn(
        HnnPresentation(1, [(1, 1)], [(1, 1, 1)]))
    assert both_powers.case == NOT_MAXIMAL_A and both_powers.csa == "not-csa"
    both = classify_abelian_hnn(
        HnnPresentation(2, [(1, 1)], [(2, 2)]))
    assert both.case == NOT_MAXIMAL_A and both.csa == "not-csa"
    with pytest.raises(ValueError):
        classify_abelian_hnn(EX1)


def test_classifier_reads_a_proper_power_u_the_other_way_round():
    """The length <= 3 table: t^-1 u t = v over F(x, y) for the 44
    cyclically reduced u and v of length 1..3.  No verdict is unknown.
    Those with u a proper power and v not are read as t v t^-1 = u; each
    such not-csa verdict has a radius-3 CSA or CT witness, and no such
    csa* verdict has one."""
    letters = (1, -1, 2, -2)
    words = [w for n in range(1, 4) for w in itertools.product(letters,
                                                                repeat=n)
             if all(a != -b for a, b in zip(w, w[1:] + w[:1]))]
    assert len(words) == 44
    verdicts = {"csa*": 0, "not-csa": 0}
    turned = {"csa*": 0, "not-csa": 0}
    for u, v in itertools.product(words, repeat=2):
        P = HnnPresentation(2, [u], [v])
        cls = classify_abelian_hnn(P)
        verdicts[cls.csa] += 1
        if is_proper_power(u) and not is_proper_power(v):
            turned[cls.csa] += 1
            spec = HnnSpec(P)
            hit = csa.falsify_csa(spec, 3) or csa.falsify_ct(spec, 3)
            assert (hit is not None) == (cls.csa == "not-csa"), (u, v)
    assert verdicts == {"csa*": 1748, "not-csa": 188}
    assert turned == {"csa*": 272, "not-csa": 16}


def test_classifier_cases_exclusive():
    rng = random.Random(9)
    seen = set()
    for _ in range(100):
        u = rand_word(rng, 2, 3)
        v = rand_word(rng, 2, 3)
        if bool(u) != bool(v):
            continue
        cls = classify_abelian_hnn(HnnPresentation(2, [u], [v]))
        assert cls.case in (CASE1_SEPARATED, CASE2_CENTRALIZER_EXT, CASE3,
                            CASE4, NOT_MAXIMAL_A, FREE_PRODUCT)
        seen.add(cls.case)
    assert len(seen) >= 3
