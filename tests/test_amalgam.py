import random

import pytest

from csakit import amalgam, cli, hnn, stallings
from csakit.amalgam import (AmalgamPresentation, GogEdge, GraphOfGroups,
                            amalgam_csa_verdict,
                            fundamental_group_presentation, gog_predicates,
                            shift_word)
from csakit.errors import MalformedWordError, UnsupportedShapeError
from csakit.hnn import (HnnPresentation, britton_reduce, is_identity,
                        normal_form)
from csakit.stallings import fold, is_malnormal, malnormal_closure
from csakit.words import free_reduce, power
from test_hnn import tword_from_word
from test_stallings import rand_word
from test_words import reduced_words


def malnormal_persistence_check(P: AmalgamPresentation, h_gens, radius=3):
    """Search for a violation of malnormality of H <= right factor inside
    the amalgam; a violation on valid inputs indicates a bug.

    Preconditions (verified): A malnormal in the left factor, H malnormal
    in the right factor.  Returns (True, None) or (False, witness).
    """
    A = fold(P.a_gens, P.left_rank)
    if not is_malnormal(A).verdict:
        raise ValueError("A is not malnormal in the left factor")
    H = fold(h_gens, P.right_rank)
    if not is_malnormal(H).verdict:
        raise ValueError("H is not malnormal in the right factor")
    if H.is_trivial:
        return True, None

    ext = P.extension

    def in_H(tword):
        r = britton_reduce(tword, ext)
        if r.t_length:
            return False
        w = r.head
        if any(abs(l) <= P.left_rank for l in w):
            return False
        return H.member(shift_word(w, -P.left_rank))

    # ball of H elements: the nontrivial ones of length <= 4
    h_ball = [w for w in reduced_words(H.rank, 4)[1:] if H.member(w)]
    h_imgs = [P.embed(shift_word(h, P.left_rank)) for h in h_ball]

    # conjugator candidates: reduced words of length <= radius
    for x in reduced_words(P.free_product_rank, radius):
        xt = P.embed(x)
        if in_H(xt):
            continue
        xt_inv = xt.inv()
        for h, ht in zip(h_ball, h_imgs):
            z = britton_reduce(xt_inv, ext, ht, xt)
            if z.t_length == 0 and not z.head:
                continue
            if in_H(z):
                return False, (x, h)
    return True, None


def test_defining_relation_holds():
    P = AmalgamPresentation(2, 2, [(1,)], [(1, 1)])
    # a (left) equals its amalgamated image c^2 (right) in the extension
    left = P.embed((1,))
    right = P.embed((3, 3))
    diff = britton_reduce(left.mul(right.inv()), P.extension)
    assert diff.t_length == 0 and not diff.head


def test_alternating_word_nontrivial():
    P = AmalgamPresentation(2, 2, [(1,)], [(1, 1)])
    # g1 = b (not in A), h1 = d (not in B): t-length 2 after reduction
    w = P.embed((2,)).mul(P.embed((4,)))
    r = britton_reduce(w, P.extension)
    assert r.t_length == 2


def test_identity_maps_to_identity():
    P = AmalgamPresentation(2, 2, [(1,)], [(1, 1)])
    assert is_identity(P.embed(()), P.extension)
    assert is_identity(P.embed((1, -1)), P.extension)


def test_embed_matches_letterwise_conjugates():
    """embed against its definition: every left letter l becomes
    t^-1 l t, then the whole word is reduced and split at t."""
    rng = random.Random(29)
    for left, right in ((1, 1), (2, 2), (2, 1), (1, 3)):
        P = AmalgamPresentation(left, right, [(1,)], [(1,)])
        n, t = left + right, left + right + 1
        for _ in range(500):
            word = tuple(rng.choice([s * k for k in range(1, n + 1)
                                     for s in (1, -1)])
                         for _ in range(rng.randrange(15)))
            out = []
            for l in free_reduce(word, n):
                out.extend((-t, l, t) if abs(l) <= left else (l,))
            assert P.embed(word) == tword_from_word(free_reduce(out), t)


def test_embedding_injective_on_syllable_forms():
    """Alternating products b^i d^j ... with distinct exponent sequences
    are distinct amalgam elements; their TWord normal forms must differ."""
    P = AmalgamPresentation(2, 2, [(1,)], [(1, 1)])
    rng = random.Random(13)
    seqs = set()
    while len(seqs) < 100:
        seqs.add(tuple(rng.choice((1, 2, 3, -1, -2))
                       for _ in range(rng.randrange(1, 5))))
    keys = set()
    for seq in seqs:
        word = []
        for pos, e in enumerate(seq):
            letter = 2 if pos % 2 == 0 else 4  # b then d, alternating
            word.extend(power((letter,), e))
        tw = P.embed(tuple(word))
        keys.add(normal_form(tw, P.extension))
    assert len(keys) == len(seqs)


def test_csa_verdicts():
    assert amalgam_csa_verdict(
        AmalgamPresentation(2, 2, [(1,)], [(1, 1)])) == \
        ("csa*", "Thm-amalgiff")
    assert amalgam_csa_verdict(
        AmalgamPresentation(2, 2, [(1, 1)], [(1, 1)])) == \
        ("not-csa", "Prop-MustMax")
    assert amalgam_csa_verdict(
        AmalgamPresentation(2, 2, [(1,)], [(1,)])) == \
        ("csa*", "Thm-amalgiff")
    # no theorem covers a non-cyclic amalgamated subgroup
    assert amalgam_csa_verdict(
        AmalgamPresentation(2, 2, [(1,), (2,)], [(1,), (2,)])) == \
        ("unknown", None)
    # over the trivial subgroup the amalgam is a free product, so free
    assert amalgam_csa_verdict(
        AmalgamPresentation(2, 1, [()], [()])) == ("csa*", None)
    # a 1 ~ 1 pair leaves the amalgamated subgroup cyclic
    assert amalgam_csa_verdict(
        AmalgamPresentation(2, 2, [(1,), ()], [(1,), ()])) == \
        ("csa*", "Thm-amalgiff")


def _gog(edges, **vertices):
    return GraphOfGroups(dict(vertices), edges)


def test_trivial_edge_groups():
    single = _gog([GogEdge("u", "v", ((1, -1),), ((),))], u=2, v=1)
    tree = fundamental_group_presentation(single)
    assert (tree.csa, tree.citation) == ("csa*", None)
    for gens, images in ((((),), ((1,),)), (((2, -2),), ((1,),)),
                         (((1,),), ((),))):
        with pytest.raises(ValueError, match="cannot pair a trivial"):
            _gog([GogEdge("u", "v", gens, images)], u=2, v=1)


def test_constructors_store_checked_pairs():
    """Each constructor stores its pairs reduced and without their 1 ~ 1
    pairs, and raises unless both sides are free bases over their ranks;
    an edge with no pair left is the trivial edge."""
    gens, images = ((1, -1), (2, 1, -1)), ((), (1,))
    for P in (HnnPresentation(2, gens, images),
              AmalgamPresentation(2, 1, gens, images)):
        assert (P.a_gens, P.b_gens) == (((2,),), ((1,),))
    g = _gog([GogEdge("u", "v", gens, images),
              GogEdge("u", "v", ((1, -1),), ((),))], u=2, v=1)
    assert g.edges == [GogEdge("u", "v", ((2,),), ((1,),)),
                       GogEdge("u", "v", (), ())]
    with pytest.raises(MalformedWordError):
        _gog([GogEdge("u", "v", ((2,),), ((1,),))], u=1, v=1)
    # a ~ c, a^2 ~ c: <a> has the basis a, not a and a^2
    gens, images = ((1,), (1, 1)), ((1,), (1,))
    for build, what in (
            (lambda: HnnPresentation(1, gens, images), "associated"),
            (lambda: AmalgamPresentation(1, 1, gens, images), "amalgamated"),
            (lambda: _gog([GogEdge("u", "v", gens, images)], u=1, v=1),
             "edge")):
        with pytest.raises(ValueError,
                           match=f"^{what} subgroup generators are not a "):
            build()
    with pytest.raises(ValueError, match="a graph of groups needs a vertex"):
        GraphOfGroups({}, [])
    # a negative rank is no free group, with or without pairs to check
    for build, what in (
            (lambda: HnnPresentation(-1, [], []), "base rank -1"),
            (lambda: AmalgamPresentation(-1, 2, [], []), "factor rank -1"),
            (lambda: AmalgamPresentation(2, -1, [], []), "factor rank -1"),
            (lambda: AmalgamPresentation(-1, -1, [], []), "factor rank -1"),
            (lambda: _gog([GogEdge("u", "v", (), ())], u=-2, v=1),
             "vertex rank -2"),
            (lambda: _gog([], u=1, v=-1), "vertex rank -1")):
        with pytest.raises(ValueError, match=f"^{what} is negative$"):
            build()


def test_trivial_edges_cut_the_tree():
    """A tree cut at its trivial edges is the free product of the pieces:
    (F(a, b) *_{a = d} Z) * Z is csa* by the piece u - w, and the 1 ~ 1
    edge leaves no relator."""
    trivial = GogEdge("u", "v", ((),), ((),))
    tree = fundamental_group_presentation(
        _gog([trivial, GogEdge("u", "w", ((1,),), ((1,),))], u=2, v=1, w=1))
    assert (tree.csa, tree.citation) == ("csa*", "Thm-amalgiff")
    assert tree.generator_names == ["u_1", "u_2", "v_1", "w_1"]
    assert tree.relators == [(1, -4)]
    # one not-csa piece decides, even after an unknown one
    bad = [GogEdge("x", "u", ((1,), (2,)), ((3,), (4,))),
           GogEdge("v", "x", ((),), ((),)),
           GogEdge("v", "w", ((1,),), ((1, 1),)),
           GogEdge("v", "y", ((1,),), ((1, 1),))]
    tree = fundamental_group_presentation(
        _gog(bad, x=2, u=4, v=2, w=2, y=2))
    assert (tree.csa, tree.citation) == ("not-csa", "Prop-BadTree")
    # an unknown piece beside free ones leaves the verdict unknown
    tree = fundamental_group_presentation(
        _gog([trivial, GogEdge("u", "w", ((1,), (2,)), ((1,), (2,)))],
             u=2, v=1, w=2))
    assert (tree.csa, tree.citation) == ("unknown", None)
    # a vertex alone is free
    tree = fundamental_group_presentation(_gog([], u=2))
    assert (tree.csa, tree.citation, tree.relators) == ("csa*", None, [])


def test_gog_quasi_malnormal_abelian():
    g = _gog([GogEdge("u", "v", ((1,),), ((1,),))], u=2, v=2)
    rep = gog_predicates(g)
    assert rep.quasi_malnormal is True
    assert rep.malnormal is True
    g2 = _gog([GogEdge("u", "v", ((1, 1),), ((1,),))], u=2, v=2)
    rep2 = gog_predicates(g2)
    assert rep2.quasi_malnormal is False


def test_gog_predicates_checks_each_graph_once(monkeypatch):
    # a ~ c^2 folds <a> and <c^2>, and the closure of <c^2> joins c; the
    # closure starts from the report on <c^2> instead of computing it again
    seen = []
    closed = []

    def counting(H):
        seen.append(H)
        return is_malnormal(H)

    def closing(H, *args, **kwargs):
        closed.append(H)
        return malnormal_closure(H, *args, **kwargs)

    monkeypatch.setattr(amalgam, "is_malnormal", counting)
    monkeypatch.setattr(stallings, "is_malnormal", counting)
    monkeypatch.setattr(amalgam, "malnormal_closure", closing)
    g = _gog([GogEdge("u", "v", ((1,),), ((1, 1),))], u=2, v=2)
    rep = gog_predicates(g)
    assert len(seen) == len({id(H) for H in seen}) == 3
    assert len(closed) == 1
    assert (rep.quasi_malnormal, rep.malnormal) == (True, False)
    assert rep.per_edge[0].normal_in_closure is True
    # <c^2, d^2> needs two joins, so one leaves the closure undecided
    del seen[:]
    g = _gog([GogEdge("u", "v", ((1,), (2,)), ((1, 1), (2, 2)))], u=2, v=2)
    rep = gog_predicates(g, cap=1)
    assert rep.per_edge[0].normal_in_closure is None
    assert len(seen) == len({id(H) for H in seen}) == 3
    # the two edges of badtree-gog share <a> in u, which is folded and
    # checked once: <a>, <c^2>, the closure of <c^2>, <f^2> and its closure
    del seen[:]
    g = _gog([GogEdge("u", "v", ((1,),), ((1, 1),)),
              GogEdge("u", "w", ((1,),), ((1, 1),))], u=2, v=2, w=2)
    rep = gog_predicates(g)
    assert (rep.quasi_malnormal, rep.malnormal) == (True, False)
    assert len(seen) == len({id(H) for H in seen}) == 5
    # c ~ a^2 and f ~ a^2 share the image <a^2> in u, which is closed
    # once: <c>, <a^2>, <a> in its closure, and <f>; each edge reports
    # what it reports alone
    del seen[:], closed[:]
    edges = [GogEdge("v", "u", ((1,),), ((1, 1),)),
             GogEdge("w", "u", ((1,),), ((1, 1),))]
    rep = gog_predicates(_gog(edges, u=2, v=2, w=2))
    assert len(seen) == len({id(H) for H in seen}) == 4
    assert len(closed) == 1
    for idx, e in enumerate(edges):
        alone = gog_predicates(_gog([e], u=2, v=2, w=2))
        assert rep.per_edge[idx] == alone.per_edge[0]


def test_gog_loop_separated():
    g = _gog([GogEdge("u", "u", ((1,),), ((1, 1),))], u=2)
    rep = gog_predicates(g)
    assert rep.separated is False


def test_gog_badtree_not_malnormal():
    g = _gog([GogEdge("u", "v", ((1,),), ((1, 1),)),
              GogEdge("u", "w", ((1,),), ((1, 1),))],
             u=2, v=2, w=2)
    rep = gog_predicates(g)
    assert rep.malnormal is False
    assert rep.quasi_malnormal is True
    tree = fundamental_group_presentation(g)
    assert tree.csa == "not-csa"
    assert tree.citation == "Prop-BadTree"


def test_tree_verdicts():
    single = _gog([GogEdge("u", "v", ((1,),), ((1, 1),))], u=2, v=2)
    tree = fundamental_group_presentation(single)
    assert tree.csa == "csa*" and tree.citation == "Thm-amalgiff"
    # the amalgam reads its one edge without building the tree, and
    # answers as the tree does on every u ~ v with 1 <= |u|, |v| <= 2
    # and on 1 ~ 1
    short = reduced_words(2, 2)[1:]
    for u, v in [(u, v) for u in short for v in short] + [((), ())]:
        P = AmalgamPresentation(2, 2, [u], [v])
        tree = fundamental_group_presentation(
            _gog([GogEdge("u", "v", (u,), (v,))], u=2, v=2))
        assert amalgam_csa_verdict(P) == (tree.csa, tree.citation), (u, v)

    both_max = _gog([GogEdge("u", "v", ((1,),), ((1,),)),
                     GogEdge("u", "w", ((2,),), ((1,),))],
                    u=2, v=2, w=2)
    assert fundamental_group_presentation(both_max).csa == "csa*"

    line = _gog([GogEdge("u", "v", ((1,),), ((1, 1),)),
                 GogEdge("v", "w", ((2,),), ((1, 1),))],
                u=2, v=2, w=2)
    t3 = fundamental_group_presentation(line)
    assert t3.csa == "csa*" and t3.citation == "Thm-GraphGroups"


def test_graph_groups_needs_an_oriented_line():
    """Thm-GraphGroups covers two edges whose sources are a vertex's
    first or second letter, maximal abelian, and whose images are the
    square of a letter, not, only when they run along one oriented line;
    no other rule covers the other three orientations."""
    a, b, c2, d2 = ((1,),), ((2,),), ((1, 1),), ((2, 2),)
    for edges, want in (
            ([GogEdge("u", "v", a, c2), GogEdge("v", "w", b, c2)],
             ("csa*", "Thm-GraphGroups")),
            ([GogEdge("v", "u", a, c2), GogEdge("w", "u", b, d2)],
             ("unknown", None)),
            ([GogEdge("u", "v", a, c2), GogEdge("u", "w", b, c2)],
             ("unknown", None)),
            ([GogEdge("u", "v", a, c2), GogEdge("w", "v", b, d2)],
             ("unknown", None))):
        tree = fundamental_group_presentation(_gog(edges, u=2, v=2, w=2))
        assert (tree.csa, tree.citation) == want, edges


def test_extension_reads_the_shifted_factor_graphs():
    """The extension's A and B are the factor graphs moved into the free
    product: equal, tags included, to the folds of the pairs over the
    free-product rank with B's letters shifted past the left factor's,
    so Britton reduction and normal_form read the same graphs."""
    rng = random.Random(67)
    built = 0
    for _ in range(1500):
        left, right = rng.randint(1, 3), rng.randint(1, 3)
        n = rng.randint(1, 2)
        a_gens = [rand_word(rng, left, rng.randint(1, 4)) for _ in range(n)]
        b_gens = [rand_word(rng, right, rng.randint(1, 4)) for _ in range(n)]
        try:
            P = AmalgamPresentation(left, right, a_gens, b_gens)
        except ValueError:
            continue
        built += 1
        rank = P.free_product_rank
        for got, words in (
                (P.extension.A, a_gens),
                (P.extension.B, [shift_word(w, left) for w in b_gens])):
            want = fold(words, rank)
            assert (got.succ, got.tree_paths, got.edges, got.generators,
                    got.num_vertices, got.rank) == \
                (want.succ, want.tree_paths, want.edges, want.generators,
                 want.num_vertices, want.rank), (a_gens, b_gens)
    assert built > 700


def test_edges_are_checked_and_folded_once(monkeypatch):
    """Only the constructors check pairs: the tree verdicts read the
    checked edges, and gog_predicates reads the graphs that check_pairs
    folded, so it folds only the joins of malnormal closures."""
    calls = {"check_pairs": 0, "fold": 0}

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    for module in (hnn, amalgam, stallings):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    badtree = _gog([GogEdge("u", "v", ((1,),), ((1, 1),)),
                    GogEdge("u", "w", ((1,),), ((1, 1),))], u=2, v=2, w=2)
    P = AmalgamPresentation(2, 2, [(1,)], [(1, 1)])
    calls.update(check_pairs=0, fold=0)
    assert fundamental_group_presentation(badtree).csa == "not-csa"
    assert amalgam_csa_verdict(P) == ("csa*", "Thm-amalgiff")
    assert calls == {"check_pairs": 0, "fold": 0}
    # badtree-gog folds <a> on each edge, <c^2>, <f^2> and the join of
    # each closure; an amalgam folds A and B over the factors once, and
    # its extension shifts those graphs into the free product
    goldens = {g["name"]: g.get("source") for g in cli.load_goldens()}
    for name, checks, folds in (("badtree-gog", 2, 6),
                                ("treeprodab-gog", 2, 4),
                                ("mustmax-amalgam", 1, 2),
                                ("amalgiff-amalgam", 1, 2)):
        calls.update(check_pairs=0, fold=0)
        cli.run("gog-check", goldens[name])
        assert calls == {"check_pairs": checks, "fold": folds}, name
    calls.update(check_pairs=0, fold=0)
    AmalgamPresentation(2, 2, [(1,)], [(1, 1)])
    assert calls == {"check_pairs": 1, "fold": 2}


def test_tree_presentation_relators():
    single = _gog([GogEdge("u", "v", ((1,),), ((1, 1),))], u=2, v=2)
    tree = fundamental_group_presentation(single)
    assert tree.generator_names == ["u_1", "u_2", "v_1", "v_2"]
    assert tree.relators == [free_reduce((1, -3, -3))]


def test_non_tree_rejected():
    loop = _gog([GogEdge("u", "u", ((1,),), ((2,),))], u=2)
    with pytest.raises(UnsupportedShapeError):
        fundamental_group_presentation(loop)


def test_persistence_checks():
    P = AmalgamPresentation(2, 2, [(1,)], [(1,)])
    ok, wit = malnormal_persistence_check(P, [(1,), (2,)], radius=2)
    assert ok and wit is None
    ok2, _ = malnormal_persistence_check(P, [(1,)], radius=3)
    assert ok2
    ok3, _ = malnormal_persistence_check(P, [], radius=2)
    assert ok3
    with pytest.raises(ValueError):
        malnormal_persistence_check(
            AmalgamPresentation(2, 2, [(1, 1)], [(1,)]), [(1,)])
