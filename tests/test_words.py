import random

import pytest

from csakit.errors import MalformedWordError
from csakit.words import (commutator, concat, conjugate, conjugating_element,
                          cyclic_reduce, free_reduce, inverse,
                          is_maximal_abelian_in_free, is_proper_power,
                          letter_key, power, primitive_root, shortlex_key)


def rand_word(rng, rank=3, max_len=6):
    w = []
    for _ in range(rng.randrange(max_len + 1)):
        l = rng.choice([g * s for g in range(1, rank + 1) for s in (1, -1)])
        w.append(l)
    return free_reduce(w)


def reduced_words(rank, radius):
    """Freely reduced words of length <= radius over 1..rank in shortlex
    order, the identity first, frontier by frontier: the reference that
    csa._skeleton is checked against."""
    letters = [l for g in range(1, rank + 1) for l in (g, -g)]
    out, frontier = [()], [()]
    for _ in range(radius):
        frontier = [w + (l,) for w in frontier for l in letters
                    if not (w and w[-1] == -l)]
        out.extend(frontier)
    return out


def test_free_reduce_cancels():
    assert free_reduce([1, -1]) == ()
    assert free_reduce([1, 2, -2, -1, 3]) == (3,)
    assert free_reduce([1, 2, 3]) == (1, 2, 3)


def test_free_reduce_validates():
    with pytest.raises(MalformedWordError):
        free_reduce([0])
    with pytest.raises(MalformedWordError):
        free_reduce([1, "x"])
    with pytest.raises(MalformedWordError):
        free_reduce([3], rank=2)


def test_inverse_and_concat():
    rng = random.Random(7)
    for _ in range(200):
        u, v = rand_word(rng), rand_word(rng)
        assert concat(u, inverse(u)) == ()
        assert inverse(concat(u, v)) == concat(inverse(v), inverse(u))


def test_power():
    assert power((1,), 3) == (1, 1, 1)
    assert power((1, 2), -1) == (-2, -1)
    assert power((1, 2), 0) == ()


def loop_power(w, n):
    """The quadratic concatenation loop power() replaced."""
    if n < 0:
        return loop_power(inverse(w), -n)
    out = ()
    for _ in range(n):
        out = concat(out, w)
    return out


def test_power_matches_concatenation_loop():
    rng = random.Random(12)
    words = [rand_word(rng) for _ in range(60)]
    words += [concat(p, c, inverse(p)) for p, c in zip(words, words[1:])]
    for w in words:
        for n in range(-50, 51):
            assert power(w, n) == loop_power(w, n)


def test_conjugate_commutator():
    u, v = (1,), (2,)
    assert conjugate(u, v) == (-2, 1, 2)
    assert commutator(u, v) == (-1, -2, 1, 2)
    assert commutator(u, u) == ()


def test_cyclic_reduce_reconstruction():
    rng = random.Random(11)
    for _ in range(300):
        w = rand_word(rng)
        c, p = cyclic_reduce(w)
        assert concat(p, c, inverse(p)) == w
        # cyclically reduced: no cancellation around the wrap
        assert not c or c[0] != -c[-1]


def test_cyclic_reduce_examples():
    assert cyclic_reduce((2,)) == ((2,), ())
    assert cyclic_reduce(commutator((1,), (2,)))[0] == \
        commutator((1,), (2,))
    assert cyclic_reduce((1, 2, -1)) == ((2,), (1,))


def test_primitive_root_and_proper_power():
    root, e = primitive_root((1, 1, 1))
    assert root == (1,) and e == 3
    assert is_proper_power((1, 2, 1, 2))
    assert not is_proper_power((1, 2))
    assert not is_proper_power((1,))
    rng = random.Random(3)
    for _ in range(100):
        w = rand_word(rng, max_len=4)
        if not w:
            continue
        c, _ = cyclic_reduce(w)
        if not c:
            continue
        for m in (2, 3):
            assert is_proper_power(power(c, m))


def test_maximal_abelian():
    assert is_maximal_abelian_in_free((1, 2, -1))
    assert not is_maximal_abelian_in_free((1, 1))
    assert is_maximal_abelian_in_free((1,))
    # conjugates of proper powers are still proper powers
    assert not is_maximal_abelian_in_free(conjugate((2, 2), (1,)))


def rotations_equal(c1, c2):
    """True iff the cyclically reduced words c1, c2 are rotations of each
    other, i.e. conjugate in the free group."""
    if len(c1) != len(c2):
        return False
    if not c1:
        return True
    n = len(c1)
    return any(c2 == c1[r:] + c1[:r] for r in range(n))


def test_rotations_equal():
    assert rotations_equal((1, 2), (2, 1))
    assert not rotations_equal((1, 2), (1, -2))
    assert rotations_equal((), ())


def test_conjugating_element_property():
    rng = random.Random(19)
    found = 0
    for _ in range(300):
        u = rand_word(rng, max_len=4)
        s = rand_word(rng, max_len=3)
        if not free_reduce(u):
            continue
        v = conjugate(u, s)
        got = conjugating_element(u, v)
        assert got is not None
        assert conjugate(u, got) == v
        found += 1
    assert found > 100


def test_conjugating_element_none():
    assert conjugating_element((1,), (2,)) is None
    assert conjugating_element((1,), (1, 1)) is None


def test_letter_and_shortlex_order():
    letters = sorted([2, -1, 1, -2], key=letter_key)
    assert letters == [1, -1, 2, -2]
    ws = sorted([(2,), (1, 1), (), (1,)], key=shortlex_key)
    assert ws == [(), (1,), (2,), (1, 1)]
