"""End-to-end acceptance checks.  Each test prints a single PASS or FAIL
line naming the criterion it covers."""

import random
import sys
from contextlib import contextmanager

from csakit import csa, stallings, words
from csakit.cli import run
from csakit.hnn import (CASE1_SEPARATED, CASE2_CENTRALIZER_EXT, CASE3, CASE4,
                        HnnPresentation, TWord, britton_reduce,
                        classify_abelian_hnn, normal_form)
from csakit.wpengine import HnnSpec
from csakit.words import concat, conjugate, free_reduce, inverse, shortlex_key
from test_csa import power_conj_identity
from test_words import reduced_words

EX1 = "< x1, x2, x3, t | t^-1 x1 t = x2, t^-1 x2 t = x1 x3 >"


@contextmanager
def criterion(num, text):
    # write to the real stdout so the lines survive pytest's capture
    try:
        yield
    except Exception:
        print(f"CRITERION {num}: FAIL - {text}", file=sys.__stdout__)
        raise
    print(f"CRITERION {num}: PASS - {text}", file=sys.__stdout__)


def test_criterion_1_running_example():
    with criterion(1, "running example: malnormal bases, separation "
                      "witness x2, no CSA falsification at radius 3"):
        rep, code = run("check-malnormal", EX1, {})
        assert rep.verdict == "malnormal" and code == 0
        rep, code = run("check-separated", EX1, {})
        assert rep.verdict == "not-separated" and code == 1
        assert rep.witnesses == [{"h": "x2", "g": "1"}]
        rep, code = run("falsify-csa", EX1, {"radius": 3})
        assert rep.verdict == "no-witness" and code == 0


QUADRANTS = [
    (HnnPresentation(2, [(1,)], [(2,)]), CASE1_SEPARATED, False),
    (HnnPresentation(2, [(1,)], [(1,)]), CASE2_CENTRALIZER_EXT, False),
    (HnnPresentation(1, [(1,)], [(-1,)]), CASE3, True),
    (HnnPresentation(1, [(1,)], [(1, 1)]), CASE4, True),
]


def test_criterion_2_quadrant_classifier():
    with criterion(2, "cyclic-edge classifier sorts all four quadrants and "
                      "bounded search falsifies CSA exactly in cases 3, 4"):
        for pres, case, expect_witness in QUADRANTS:
            cls = classify_abelian_hnn(pres)
            assert cls.case == case
            expected_csa = "not-csa" if expect_witness else "csa*"
            assert cls.csa == expected_csa
            spec = HnnSpec(pres)
            wit = csa.falsify_csa(spec, radius=4)
            assert (wit is not None) == expect_witness
            if wit is not None:
                assert csa.verify_csa_witness(wit, spec)


def test_criterion_3_power_conjugation():
    with criterion(3, "power-conjugation identity holds on the 32-point "
                      "grid m, n in {+-2, +-3}, i in {1, 2}"):
        checked = 0
        for m in (2, -2, 3, -3):
            for n in (2, -2, 3, -3):
                for i in (1, 2):
                    assert power_conj_identity(m, n, i)
                    checked += 1
        assert checked == 32


def test_criterion_4_obstacles():
    with criterion(4, "obstacle witnesses verify (infinite dihedral and "
                      "F2 x Z with rank-2 fiber); <x, y | x^2> passes the "
                      "CT probe yet yields a CSA witness"):
        rep, code = run("verify-obstacle", "< x, y | x^2 >",
                        {"obstacle": "dinf", "images": "x, y^-1 x y",
                         "radius": 4})
        assert rep.verdict == "verified" and code == 0
        rep, code = run("verify-obstacle", "fbc()",
                        {"obstacle": "calb", "images": "d, x d x^-1, y",
                         "radius": 3})
        assert rep.verdict == "verified" and code == 0
        assert rep.details["fiber-rank"] == 2
        rep, code = run("falsify-ct", "< x, y | x^2 >", {"radius": 3})
        assert rep.verdict == "no-witness" and code == 0
        rep, code = run("falsify-csa", "< x, y | x^2 >", {"radius": 4})
        assert rep.verdict == "witness-found" and code == 1


def _product_set(gens, depth):
    """All reduced values of products of <= depth factors drawn from the
    generators and their inverses."""
    symbols = [g for g in gens] + [inverse(g) for g in gens]
    seen = {()}
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for s in symbols:
                p = concat(w, s)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def _rand_subgroup(rng):
    gens = []
    for _ in range(rng.randrange(1, 4)):
        w = []
        for _ in range(rng.randrange(1, 5)):
            w.append(rng.choice([1, -1, 2, -2, 3, -3]))
        gens.append(free_reduce(w))
    return [g for g in gens if g] or [(1,)]


def test_criterion_5_random_subgroups_vs_brute_force():
    with criterion(5, "membership and malnormality agree with brute force "
                      "on 100 random subgroups of F3"):
        rng = random.Random(2024)
        ball6 = reduced_words(3, 6)
        ball4 = [w for w in reduced_words(3, 4) if w]
        for trial in range(100):
            gens = _rand_subgroup(rng)
            H = stallings.fold(gens, 3)
            products = _product_set(gens, 4)
            # every short product of generators must be accepted
            for w in products:
                assert H.member(w)
            # rejected words must admit no product expression with <= 8
            # factors (meet in the middle over <= 4 + <= 4)
            sample = rng.sample(ball6, 30)
            for w in sample:
                if H.member(w):
                    continue
                assert not any(free_reduce(concat(inverse(p), w)) in products
                               for p in products)
            # malnormality against an exhaustive bounded search
            members6 = [w for w in ball6
                        if w and H.member(w)
                        and shortlex_key(w) <= shortlex_key(inverse(w))]
            rep = stallings.is_malnormal(H)
            if rep.verdict:
                for g in ball4:
                    if H.member(g):
                        continue
                    if shortlex_key(inverse(g)) < shortlex_key(g):
                        continue  # H^g meets H iff H^(g^-1) does
                    for h in members6:
                        assert not H.member(conjugate(h, g))
            else:
                g, h = rep.witness
                assert h and H.member(h)
                assert H.member(conjugate(h, g))
                assert not H.member(g)


BRITTON_FIXTURES = [
    HnnPresentation(3, [(1,), (2,)], [(2,), (1, 3)]),
    HnnPresentation(1, [(1,)], [(1, 1)]),
    HnnPresentation(1, [(1,)], [(-1,)]),
]


def _rand_tword(rng, P):
    def base():
        w = [rng.choice([g * s for g in range(1, P.base_rank + 1)
                         for s in (1, -1)])
             for _ in range(rng.randrange(4))]
        return free_reduce(w)

    tail = tuple((rng.choice((1, -1)), base())
                 for _ in range(rng.randrange(5)))
    return TWord(base(), tail)


def test_criterion_6_britton_laws():
    with criterion(6, "Britton reduction laws hold on 200 random words "
                      "per fixture"):
        rng = random.Random(7)
        for P in BRITTON_FIXTURES:
            for _ in range(200):
                w = _rand_tword(rng, P)
                r = britton_reduce(w, P)
                again = britton_reduce(r, P)
                assert (again.head, again.tail) == (r.head, r.tail)
                cancel = britton_reduce(w.mul(w.inv()), P)
                assert cancel.t_length == 0 and not cancel.head
                v = _rand_tword(rng, P)
                same_nf = normal_form(w, P) == normal_form(v, P)
                diff = britton_reduce(w.mul(v.inv()), P)
                assert same_nf == (diff.t_length == 0 and not diff.head)


def test_criterion_7_residually_p_grid():
    with criterion(7, "residually-p obstruction matches the closed form "
                      "and the abelianization on the full grid"):
        grid = [m for m in range(-4, 5) if m]
        for m in grid:
            for n in grid:
                relator = concat((2,), words.power((1,), m), (-2,),
                                 words.power((1,), -n))
                ab = csa.abelianization_one_relator(relator, 2)
                if m == n:
                    assert ab == ((), 2)
                else:
                    d = abs(n - m)
                    assert ab == (((d,) if d > 1 else ()), 1)
                for p in (2, 3, 5):
                    blocked = csa.residually_p_obstruction(m, n, p)
                    if m == n:
                        assert blocked == (n % p != 0)
                        continue
                    # x has order |n - m| in H1, so it dies in every
                    # p-quotient exactly when p does not divide that order
                    x_order = ab[0][0] if ab[0] else 1
                    assert blocked == (x_order % p != 0) == \
                        ((n - m) % p != 0), (m, n, p)


GOG_CASES = [
    ("gog { vertex u = < a, b >; vertex v = < c, d >; "
     "vertex w = < f, g >; edge u -> v : a ~ c^2; edge u -> w : a ~ f^2; }",
     "not-csa", "Prop-BadTree", 1),
    ("gog { vertex u = < a, b >; vertex v = < c, d >; "
     "vertex w = < f, g >; edge u -> v : a ~ c; edge u -> w : b ~ f; }",
     "csa*", "Prop-TreeProdAb", 0),
    ("amalgam(< a, b >, < c, d >; a^2 ~ c^2)",
     "not-csa", "Prop-MustMax", 1),
]


def test_criterion_8_graph_of_groups():
    with criterion(8, "graph-of-groups verdicts: shared edge group not-csa, "
                      "disjoint maximal edges csa*, non-maximal amalgam "
                      "not-csa"):
        for source, verdict, citation, exit_code in GOG_CASES:
            rep, code = run("gog-check", source, {})
            assert rep.verdict == verdict
            assert citation in rep.citations
            assert code == exit_code


def test_criterion_9_repro():
    with criterion(9, "bundled repro suite replays with exit code 0"):
        rep, code = run("repro", "", {})
        assert code == 0, rep.details
