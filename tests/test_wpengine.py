import random
from itertools import groupby

import pytest

from csakit.errors import MalformedWordError, UnsupportedBaseError
from csakit.hnn import HnnPresentation
from csakit.wpengine import (FBC_D, FBC_X, FBC_Y, FIB_D, FIB_X, AmalgamSpec,
                             FreeByCyclicSpec, FreeProductCyclicsSpec,
                             FreeSpec, HnnSpec, canonical_key,
                             commutes, equal, fc_normal_form, fpc_normal_form,
                             is_trivial, num_generators)
from csakit.amalgam import AmalgamPresentation
from csakit.words import (commutator, concat, conjugate, free_reduce, inverse,
                          power)


def rand_word(rng, rank=2, max_len=6):
    w = []
    for _ in range(rng.randrange(max_len + 1)):
        w.append(rng.choice([g * s for g in range(1, rank + 1)
                             for s in (1, -1)]))
    return tuple(w)


def fc_mul(a, b):
    """Semidirect multiplication (w1, k1) * (w2, k2) =
    (w1 * twist^k1(w2), k1 + k2)."""
    (w1, k1), (w2, k2) = a, b
    return (concat(w1, reference_twist(w2, k1)), k1 + k2)


def remerging_fpc_normal_form(word, orders):
    """fpc_normal_form while it still re-merged the syllables on both
    sides of one that cancelled."""
    syll = []
    for l in word:
        g = abs(l)
        e = 1 if l > 0 else -1
        if syll and syll[-1][0] == g:
            syll[-1][1] += e
        else:
            syll.append([g, e])
        while syll:
            g0, e0 = syll[-1]
            order = orders[g0 - 1]
            if order:
                e0 %= order
                syll[-1][1] = e0
            if e0 == 0:
                syll.pop()
                if len(syll) >= 2 and syll[-1][0] == syll[-2][0]:
                    g1, e1 = syll.pop()
                    syll[-1][1] += e1
                    continue
            break
    return tuple((g, e) for (g, e) in syll)


def test_num_generators():
    assert num_generators(FreeSpec(3)) == 3
    assert num_generators(FreeProductCyclicsSpec((2, 0))) == 2
    assert num_generators(FreeByCyclicSpec()) == 3
    assert num_generators(
        HnnSpec(HnnPresentation(1, [(1,)], [(1, 1)]))) == 2


def test_fpc_normal_form():
    orders = (2, 0)
    assert fpc_normal_form((1, 1), orders) == ()
    assert fpc_normal_form((1, 1, 1), orders) == ((1, 1),)
    assert fpc_normal_form((2, 2, 2), orders) == ((2, 3),)
    assert fpc_normal_form((2, 1, 1, 2), orders) == ((2, 2),)
    assert fpc_normal_form((1, 2, -2, 1), orders) == ()


def test_fpc_normal_form_matches_remerging_form():
    rng = random.Random(53)
    cancelled = 0
    for _ in range(20000):
        rank = rng.randint(1, 4)
        orders = tuple(rng.choice((0, 2, 3, 5)) for _ in range(rank))
        # half the words freely reduced, as FreeProductCyclicsSpec.key
        # passes them; runs of one letter reach the orders
        word = []
        for _ in range(rng.randrange(12)):
            word += [rng.choice((1, -1)) * rng.randint(1, rank)] * \
                rng.randint(1, 6)
        if rng.random() < 0.5:
            word = free_reduce(word, rank)
        assert fpc_normal_form(word, orders) == \
            remerging_fpc_normal_form(word, orders), (word, orders)
        # a run that cancels between two others is where the re-merge ran
        runs = [(g, sum(1 if l > 0 else -1 for l in run))
                for g, run in groupby(word, key=abs)]
        cancelled += any(orders[g - 1] and e % orders[g - 1] == 0
                         for g, e in runs[1:-1])
    assert cancelled > 4000


def test_fpc_is_trivial():
    spec = FreeProductCyclicsSpec((2, 3))
    assert is_trivial((1, 1), spec)
    assert is_trivial((2, 2, 2), spec)
    assert not is_trivial((1, 2), spec)
    assert is_trivial(concat(power((1,), 2), power((2,), 3)), spec)


def test_fc_normal_form_basics():
    y = (FBC_Y,)
    d = (FBC_D,)
    x = (FBC_X,)
    spec = FreeByCyclicSpec()
    assert is_trivial(commutator(y, d), spec)
    assert is_trivial(commutator(commutator(x, y), y), spec)
    assert not is_trivial(commutator(x, y), spec)
    assert fc_normal_form(()) == ((), 0)
    assert fc_normal_form(y) == ((), 1)


def test_fc_commuting_conjugates():
    spec = FreeByCyclicSpec()
    y = (FBC_Y,)
    y1 = conjugate(y, (FBC_X,))
    y2 = conjugate(y, power((FBC_X,), 2))
    assert commutes(y, y1, spec)
    assert not commutes(y, y2, spec)
    assert commutes(y, (FBC_D,), spec)


def test_fc_mul_is_homomorphic():
    rng = random.Random(31)
    for _ in range(500):
        w1 = rand_word(rng, 3)
        w2 = rand_word(rng, 3)
        lhs = fc_normal_form(tuple(w1) + tuple(w2))
        rhs = fc_mul(fc_normal_form(w1), fc_normal_form(w2))
        assert lhs == rhs


def reference_twist(w, k):
    """twist^k of a fiber word, letter by letter, kept apart from
    fc_normal_form so that it checks it independently."""
    out = []
    for l in w:
        image = [l]
        if abs(l) == FIB_X:
            run = [FIB_D if k < 0 else -FIB_D] * abs(k)
            image = [FIB_X] + run if l > 0 else \
                [-d for d in reversed(run)] + [-FIB_X]
        out = list(concat(out, image))
    return tuple(out)


def fold_fc_mul(word):
    """The free-by-cyclic normal form as a fold of semidirect products,
    one per letter: (w1, k1) * (w2, k2) = (w1 twist^k1(w2), k1 + k2)."""
    w, k = (), 0
    for l in free_reduce(word, 3):
        g = abs(l)
        s = 1 if l > 0 else -1
        if g == FBC_Y:
            k += s
        else:
            fib = FIB_X if g == FBC_X else FIB_D
            w = concat(w, reference_twist((s * fib,), k))
    return w, k


def test_fc_normal_form_matches_fc_mul_fold():
    rng = random.Random(41)
    letters = (FBC_X, -FBC_X, FBC_D, -FBC_D)
    reached = set()
    for i in range(2400):
        if i % 3 == 0:
            # not freely reduced: letters drawn independently
            word = rand_word(rng, 3, 40)
        else:
            # a y-run to a running exponent of up to +-50, fiber letters
            # twisted by it, and a partial way back
            k = rng.randint(-50, 50)
            y = (FBC_Y,) if k > 0 else (-FBC_Y,)
            word = (rand_word(rng, 3, 6) + y * abs(k) +
                    tuple(rng.choice(letters)
                          for _ in range(rng.randrange(12))) +
                    inverse(y) * rng.randrange(abs(k) + 1) +
                    rand_word(rng, 3, 6))
            reached.add(k)
        assert fc_normal_form(word) == fold_fc_mul(word), word
    assert {50, -50} <= reached


def test_fc_normal_form_far_past_the_fold_test():
    # y^900 x^1000 = (x d^-900)^1000 y^900: 901,000 fiber letters, each
    # d-run pushed whole, under the word limit
    word = (FBC_Y,) * 900 + (FBC_X,) * 1000
    assert fc_normal_form(word) == \
        (((FIB_X,) + (-FIB_D,) * 900) * 1000, 900)


def test_fc_normal_form_rejects_letters_outside_rank():
    for word in ((FBC_X, 4), (-4,), (FBC_Y, 0)):
        with pytest.raises(MalformedWordError):
            fc_normal_form(word)


# fbc() as the HNN extension < x, d, y | y^-1 (x d^-1) y = x, y^-1 d y = d >
# of F(x, d): its letters are x = 1, d = 2, y = 3, so a word over fbc()'s
# displayed x, y, d maps letter by letter through FBC_TO_HNN
FBC_HNN = HnnSpec(HnnPresentation(2, [(1, -2), (2,)], [(1,), (2,)]))
FBC_TO_HNN = {FBC_X: 1, FBC_D: 2, FBC_Y: 3}


def test_canonical_key_matches_triviality():
    rng = random.Random(37)
    specs = [FreeSpec(2), FreeProductCyclicsSpec((2, 0)),
             HnnSpec(HnnPresentation(1, [(1,)], [(1, 1)])),
             FreeByCyclicSpec(),
             AmalgamSpec(AmalgamPresentation(1, 1, [(1,)], [(1, 1)])),
             FreeSpec(1), FreeSpec(3), FBC_HNN]
    for spec in specs:
        n = num_generators(spec)
        key_id = canonical_key((), spec)
        free = isinstance(spec, FreeSpec)
        # a free group reduces words as an HNN extension over trivial
        # associated subgroups; free reduction is the second method
        assert not free or isinstance(spec, HnnSpec)
        for _ in range(100):
            u = rand_word(rng, n)
            v = rand_word(rng, n)
            assert (canonical_key(u, spec) == key_id) == is_trivial(u, spec)
            same = canonical_key(u, spec) == canonical_key(v, spec)
            assert same == equal(u, v, spec)
            if free:
                assert spec.normal_word(u) == free_reduce(u, n)
                assert spec.normal_word(v) == free_reduce(v, n)
            if isinstance(spec, FreeByCyclicSpec):
                # the HNN form is the second method for fbc()
                hu, hv = (tuple(FBC_TO_HNN[abs(l)] * (1 if l > 0 else -1)
                                for l in w) for w in (u, v))
                assert same == equal(hu, hv, FBC_HNN)
                assert commutes(u, v, spec) == commutes(hu, hv, FBC_HNN)


def test_hnn_spec_relation():
    spec = HnnSpec(HnnPresentation(1, [(1,)], [(1, 1)]))
    # z^-1 x z = x^2
    assert equal((-2, 1, 2), (1, 1), spec)
    assert not equal((1,), (1, 1), spec)


def test_unsupported_spec():
    with pytest.raises(UnsupportedBaseError):
        is_trivial((1,), object())
