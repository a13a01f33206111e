from fractions import Fraction

import pytest

from csakit import csa, wpengine
from csakit.errors import BudgetExceededError, check_budget
from csakit.hnn import HnnPresentation
from csakit.wpengine import (FreeByCyclicSpec, FreeProductCyclicsSpec,
                             FreeSpec, HnnSpec)
from csakit.words import conjugate, free_reduce, power, shortlex_key
from test_words import reduced_words


def test_ball_free_group():
    b1 = csa.ball(FreeSpec(2), 1)
    assert b1 == [(1,), (-1,), (2,), (-2,)]
    b2 = csa.ball(FreeSpec(2), 2)
    assert len(b2) == 4 + 12
    keys = [shortlex_key(w) for w in b2]
    assert keys == sorted(keys)


def test_ball_dedupes_through_normal_form():
    spec = FreeProductCyclicsSpec((2, 0))
    b2 = csa.ball(spec, 2)
    # x^-1 collapses onto x, x^2 onto the identity
    assert (-1,) not in b2
    assert (1, 1) not in b2
    assert (1,) in b2 and (1, 2) in b2


def test_falsify_csa_hits_and_misses():
    assert csa.falsify_csa(FreeSpec(2), 3) is None
    b12 = csa.bs_spec(1, 2)
    w = csa.falsify_csa(b12, 1)
    assert (w.a, w.v) == ((1,), (2,))
    assert csa.verify_csa_witness(w, b12)
    wf = csa.falsify_csa(FreeByCyclicSpec(), 1)
    assert (wf.a, wf.v) == ((2,), (1,))
    klein = HnnSpec(HnnPresentation(1, [(1,)], [(-1,)]))
    assert csa.falsify_csa(klein, 2) is not None


def test_witness_validators_reject_garbage():
    b12 = csa.bs_spec(1, 2)
    assert not csa.verify_csa_witness(csa.CsaWitness((), (2,)), b12)
    assert not csa.verify_csa_witness(csa.CsaWitness((1,), (1,)), b12)
    spec = FreeProductCyclicsSpec((2, 0))
    assert not csa.verify_ct_witness(
        csa.CtWitness((1,), (1,), (1,)), spec)
    # x^2 = 1 commutes with x and y, and [x, y] != 1: only the trivial b
    # stops this triple
    assert not csa.verify_ct_witness(
        csa.CtWitness((1,), (1, 1), (2,)), spec)


def test_falsify_ct():
    spec = FreeProductCyclicsSpec((2, 0))
    assert csa.falsify_ct(spec, 3) is None
    wit = csa.falsify_ct(FreeByCyclicSpec(), 3)
    assert wit is not None
    assert csa.verify_ct_witness(wit, FreeByCyclicSpec())


def test_obstacle_dinf():
    host = FreeProductCyclicsSpec((2, 0))
    good = csa.ObstacleWitness(csa.OBSTACLE_DINF,
                               {1: (1,), 2: (-2, 1, 2)}, radius=4)
    assert csa.verify_obstacle(good, host)
    bad = csa.ObstacleWitness(csa.OBSTACLE_DINF,
                              {1: (1,), 2: (1,)}, radius=3)
    assert not csa.verify_obstacle(bad, host)
    # relator fails: y has infinite order
    bad2 = csa.ObstacleWitness(csa.OBSTACLE_DINF,
                               {1: (1,), 2: (2,)}, radius=2)
    assert not csa.verify_obstacle(bad2, host)
    # one image per generator of Z/2 * Z/2, no fewer and no more
    for images in ({1: (1,)}, {1: (1,), 2: (-2, 1, 2), 3: (2,)}):
        with pytest.raises(ValueError, match="dinf obstacle needs 2 images"):
            csa.verify_obstacle(csa.ObstacleWitness(csa.OBSTACLE_DINF,
                                                    images), host)
    with pytest.raises(ValueError, match="unknown obstacle kind"):
        csa.verify_obstacle(csa.ObstacleWitness("d8", {1: (1,)}), host)


def test_obstacle_calb():
    spec = FreeByCyclicSpec()
    good = csa.ObstacleWitness(
        csa.OBSTACLE_CALB, {1: (3,), 2: (1, 3, -1), 3: (2,)}, radius=3)
    assert csa.verify_obstacle(good, spec)
    # center image must commute with both free images
    bad = csa.ObstacleWitness(
        csa.OBSTACLE_CALB, {1: (3,), 2: (1, 3, -1), 3: (1,)}, radius=2)
    assert not csa.verify_obstacle(bad, spec)


def test_obstacle_b1n():
    host = csa.bs_spec(1, 3)
    good = csa.ObstacleWitness(csa.OBSTACLE_B1N, {1: (1,), 2: (-2,)},
                               radius=3, n=3)
    assert csa.verify_obstacle(good, host)
    bad = csa.ObstacleWitness(csa.OBSTACLE_B1N, {1: (1,), 2: (2,)},
                              radius=3, n=3)
    assert not csa.verify_obstacle(bad, host)
    with pytest.raises(ValueError):
        csa.verify_obstacle(
            csa.ObstacleWitness(csa.OBSTACLE_B1N, {1: (1,), 2: (2,)}),
            host)


def calb_key(w):
    """The element of F2 x Z that w spells: the reduced word over p, q
    and the exponent sum of the central z."""
    m = sum(1 if l == 3 else -1 for l in w if abs(l) == 3)
    return free_reduce([l for l in w if abs(l) != 3]), m


def b1n_key(n):
    """The element of <x, y | y x y^-1 = x^n> that a word spells, as the
    affine map q + n^k t: y^k x y^-k acts as adding n^k."""
    def key(w):
        q, k = Fraction(0), 0
        for l in w:
            if abs(l) == 2:
                k += 1 if l > 0 else -1
            else:
                q += (1 if l > 0 else -1) * Fraction(n) ** k
        return q, k
    return key


def assert_obstacle_elements(kind, rank, radius, key, n=None):
    """_obstacle_ball lists each element of the radius-R ball once: its
    keys are distinct and are those of all reduced words of length <= R."""
    keys = [key(w) for w in csa._obstacle_ball(kind, radius, n)]
    assert len(set(keys)) == len(keys)
    assert set(keys) == {key(w) for w in reduced_words(rank, radius)}


@pytest.mark.parametrize("radius", range(6))
def test_calb_ball_matches_reduced_word_keys(radius):
    assert_obstacle_elements(csa.OBSTACLE_CALB, 3, radius, calb_key)


@pytest.mark.parametrize("n", [1, -1, 2, -2, 3, -3])
def test_b1n_ball_matches_affine_keys(n):
    for radius in range(8):
        assert_obstacle_elements(csa.OBSTACLE_B1N, 2, radius, b1n_key(n),
                                 n)


def power_conj_identity(m, n, i):
    """Check x^((mn)^i) = (x^(m^(2i)))^(z^i) = (x^(n^(2i)))^(z^-i)
    in B_{m,n}, the letters of the three sides under the word limit."""
    if i < 1:
        raise ValueError("i must be >= 1")
    check_budget(abs(m * n) ** i + m ** (2 * i) + n ** (2 * i) + 4 * i)
    spec = csa.bs_spec(m, n)
    x, z = (1,), (2,)
    lhs = power(x, (m * n) ** i)
    r1 = conjugate(power(x, m ** (2 * i)), power(z, i))
    r2 = conjugate(power(x, n ** (2 * i)), power(z, -i))
    return wpengine.equal(lhs, r1, spec) and wpengine.equal(lhs, r2, spec)


def test_power_conj_identity_grid():
    for m in (1, 2, -2):
        for n in (2, 3):
            for i in (1, 2):
                assert power_conj_identity(m, n, i)
    with pytest.raises(ValueError):
        power_conj_identity(2, 3, 0)
    with pytest.raises(BudgetExceededError):
        power_conj_identity(10, 10, 4)
    with pytest.raises(ValueError):
        csa.bs_spec(0, 2)


def test_abelianization():
    assert csa.abelianization_one_relator((2, 1, 1, -2, -1, -1, -1), 2) == \
        ((), 1)
    assert csa.abelianization_one_relator(
        (2, 1, 1, -2, -1, -1, -1, -1), 2) == ((2,), 1)
    from csakit.words import commutator
    r = commutator(commutator((1,), (2,)), (2,))
    assert csa.abelianization_one_relator(r, 2) == ((), 2)
    assert csa.abelianization_one_relator((1, 1, 1), 1) == ((3,), 0)


def test_residually_p():
    assert csa.residually_p_obstruction(2, 3, 2)
    assert not csa.residually_p_obstruction(2, 4, 2)
    assert csa.residually_p_obstruction(2, 4, 3)
    assert not csa.residually_p_obstruction(3, 3, 3)
    assert csa.residually_p_obstruction(3, 3, 2)
    with pytest.raises(ValueError):
        csa.residually_p_obstruction(2, 3, 4)
    with pytest.raises(ValueError):
        csa.residually_p_obstruction(0, 3, 2)


def test_is_prime_matches_trial_division():
    def trial(p):
        return p >= 2 and all(p % k for k in range(2, int(p ** 0.5) + 1))

    for p in range(-2, 20000):
        assert csa._is_prime(p) == trial(p), p


def test_is_prime_large_and_bounded():
    # 2^61 - 1 is a Mersenne prime; 2^61 + 1 is divisible by 3
    assert csa._is_prime(2 ** 61 - 1)
    assert not csa._is_prime(2 ** 61 + 1)
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to bases
    # 2, 3, 5 and 7
    assert not csa._is_prime(3215031751)
    assert csa._is_prime(1000000000000000003)
    assert csa.residually_p_obstruction(1, 2, 1000000000000000003)
    with pytest.raises(ValueError, match=str(csa.MILLER_RABIN_BOUND)):
        csa._is_prime(csa.MILLER_RABIN_BOUND)


def test_negative_radius_rejected():
    spec = csa.bs_spec(1, 2)
    for search in (csa.ball, csa.falsify_csa, csa.falsify_ct):
        with pytest.raises(ValueError):
            search(spec, -1)
    witness = csa.ObstacleWitness(csa.OBSTACLE_DINF, {1: (1,), 2: (2,)},
                                  radius=-1)
    with pytest.raises(ValueError):
        csa.verify_obstacle(witness, FreeProductCyclicsSpec((2, 0)))
