import random
import time
import tracemalloc
from collections import deque

from csakit import amalgam, stallings
from csakit.amalgam import GogEdge, GraphOfGroups
from csakit.errors import CapExceededError
from csakit.stallings import CoreGraph, _witnesses
from csakit.stallings import (conj_intersection_trivial, fold, is_malnormal,
                              malnormal_closure)
from csakit.words import (concat, conjugate, free_reduce, inverse,
                          is_maximal_abelian_in_free, letter_key,
                          shift_word, shortlex_key)


def rand_word(rng, rank=3, max_len=4):
    w = []
    for _ in range(rng.randrange(1, max_len + 1)):
        w.append(rng.choice([g * s for g in range(1, rank + 1)
                             for s in (1, -1)]))
    return free_reduce(w)


def test_fold_membership_basics():
    H = fold([(1,), (2,)], 3)
    assert H.member((1,))
    assert H.member((1, 2, -1))
    assert not H.member((3,))
    assert not H.member((1, 3))
    assert H.member(())


def test_fold_rank():
    assert fold([(1,), (2,)], 2).free_rank == 2
    assert fold([(1,), (2,), (1, 2)], 2).free_rank == 2
    assert fold([(1, 2), (2, 1)], 2).free_rank == 2
    assert fold([(1,), ()], 2).free_rank == 1
    assert fold([], 2).is_trivial


def substitute(expr, basis):
    """The word an expression over 1..len(basis) stands for."""
    return concat(*(basis[i - 1] if i > 0 else inverse(basis[-i - 1])
                    for i in expr))


def expresses_back(H, word):
    expr = H.express(word)
    return expr is not None and substitute(expr, H.generators) == word


def test_express_substitutes_back():
    rng = random.Random(5)
    for _ in range(50):
        gens = [rand_word(rng) for _ in range(rng.randrange(1, 4))]
        H = fold(gens, 3)
        # random product of the generators
        word = ()
        for _ in range(rng.randrange(5)):
            g = rng.choice(gens)
            word = concat(word, g if rng.random() < 0.5 else inverse(g))
        # expression indices refer to the graph's nontrivial generators
        assert expresses_back(H, word)


def test_express_rejects_non_members():
    H = fold([(1, 2)], 3)
    assert H.express((1,)) is None
    assert H.express((3,)) is None


def test_coset_rep_is_canonical():
    rng = random.Random(23)
    H = fold([(1,), (2, 2)], 3)
    for _ in range(200):
        w = rand_word(rng, max_len=6)
        h = rand_word(rng, max_len=4)
        if not H.member(h):
            continue
        # same right coset -> same representative
        assert H.coset_rep(w) == H.coset_rep(concat(h, w))
    for _ in range(100):
        w = rand_word(rng, max_len=6)
        rep = H.coset_rep(w)
        assert H.member(concat(w, inverse(rep)))


def test_conj_intersection_example():
    A = fold([(1,), (2,)], 3)
    B = fold([(2,), (1, 3)], 3)
    ok, wit = conj_intersection_trivial(A, B)
    assert not ok
    g, h = wit
    assert h and A.member(h)
    assert B.member(concat(g, h, inverse(g)))


def test_conj_intersection_trivial_case():
    A = fold([(1,)], 2)
    B = fold([(2,)], 2)
    ok, wit = conj_intersection_trivial(A, B)
    assert ok and wit is None


def test_malnormal_examples():
    assert is_malnormal(fold([(1,)], 2)).verdict
    assert not is_malnormal(fold([(1, 1)], 2)).verdict
    assert not is_malnormal(fold([(1,), (2, 1, -2)], 2)).verdict
    rep = is_malnormal(fold([(1, 1)], 2))
    g, h = rep.witness
    H = fold([(1, 1)], 2)
    assert h and H.member(h)
    assert H.member(conjugate(h, g))
    assert not H.member(g)


def test_malnormal_closure_of_power():
    H = fold([(1, 1)], 2)
    C = malnormal_closure(H)
    assert C.member((1,))
    assert is_malnormal(C).verdict
    assert C.free_rank == 1


def test_malnormal_closure_cap():
    H = fold([(1, 1), (2, 2)], 2)
    try:
        malnormal_closure(H, cap=1)
    except CapExceededError as exc:
        assert exc.cap == 1
    else:
        raise AssertionError("expected CapExceededError")


def test_random_membership_against_products():
    """Folded membership agrees with brute-force product enumeration."""
    rng = random.Random(42)
    for _ in range(20):
        gens = [rand_word(rng) for _ in range(rng.randrange(1, 4))]
        H = fold(gens, 3)
        syms = [g for g in gens] + [inverse(g) for g in gens]
        prods = {()}
        frontier = {()}
        for _ in range(4):
            frontier = {concat(p, s) for p in frontier for s in syms}
            prods |= frontier
        for p in prods:
            assert H.member(p)


class _Edge:
    __slots__ = ("src", "letter", "dst", "tag", "alive")

    def __init__(self, src, letter, dst, tag):
        self.src = src          # vertex id
        self.letter = letter    # positive generator index
        self.dst = dst
        self.tag = tag          # expression word contributed by src->dst traversal
        self.alive = True


def _merge_pair(first, second, second_edge, find, absorb, work, queued, v):
    (w1, t1), _e1 = first
    (w2, t2) = second
    w1, w2 = find(w1), find(w2)
    if w1 == w2:
        second_edge.alive = False
    else:
        delta = concat(inverse(t1), t2)
        if w2 == 0 or (w1 != 0 and w2 < w1):
            w1, w2 = w2, w1
            delta = inverse(delta)
        second_edge.alive = False
        # re-add the second edge's contribution through the kept edge:
        # nothing to add; paths now route through e1 with corrected tags.
        absorb(w1, w2, delta)
        for u in (v, w1):
            if u not in queued:
                work.append(u)
                queued.add(u)


def trimming_finish(incident, find, rank, gens):
    """fold's last step while it still trimmed vertices of degree <= 1,
    which no folded flower has."""
    # collect live edges with canonical endpoints
    edges = []
    seen = set()
    for lst in incident:
        for e in lst:
            if e.alive and id(e) not in seen:
                seen.add(id(e))
                edges.append((find(e.src), e.letter, find(e.dst), e.tag))

    # trim non-basepoint vertices of degree <= 1
    base = find(0)
    while True:
        deg = {}
        for (a, _l, b, _t) in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        removable = {v for v, d in deg.items() if d <= 1 and v != base}
        if not removable:
            break
        edges = [e for e in edges
                 if e[0] not in removable and e[2] not in removable]

    # canonical BFS renumbering from the basepoint
    adj = {}
    for (a, l, b, t) in edges:
        adj.setdefault(a, {})[l] = (b, t)
        adj.setdefault(b, {})[-l] = (a, inverse(t))
    order = {base: 0}
    queue = deque([base])
    while queue:
        v = queue.popleft()
        for l in sorted(adj.get(v, ()), key=letter_key):
            w = adj[v][l][0]
            if w not in order:
                order[w] = len(order)
                queue.append(w)

    succ = {}
    for (a, l, b, t) in edges:
        if a not in order or b not in order:
            continue  # disconnected junk cannot occur for flowers
        succ[(order[a], l)] = (order[b], t)
        succ[(order[b], -l)] = (order[a], inverse(t))
    return CoreGraph(rank, succ, gens)


def three_branch_fold(generators, rank):
    """fold before its merge branches became one loop over an edge's
    ends: an out-edge, an in-edge and a self-loop each had their own
    copy of the merge; it also still trimmed."""
    gens = []
    for g in generators:
        r = free_reduce(g, rank)
        if r:
            gens.append(r)
    gens = tuple(gens)

    parent = [0]
    incident = [[]]

    def find(v):
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def new_vertex():
        parent.append(len(parent))
        incident.append([])
        return len(parent) - 1

    def add_edge(src, letter, dst, tag):
        if letter < 0:
            src, dst = dst, src
            letter = -letter
            tag = inverse(tag)
        e = _Edge(src, letter, dst, tag)
        incident[src].append(e)
        if dst != src:
            incident[dst].append(e)
        return e

    for i, g in enumerate(gens):
        v = 0
        for j, l in enumerate(g):
            nxt = 0 if j == len(g) - 1 else new_vertex()
            tag = (i + 1,) if j == len(g) - 1 else ()
            add_edge(v, l, nxt, tag)
            v = nxt

    def absorb(keep, gone, delta):
        for e in incident[gone]:
            if not e.alive:
                continue
            if e.src == gone and e.dst == gone:
                e.tag = concat(delta, e.tag, inverse(delta))
                e.src = e.dst = keep
            elif e.src == gone:
                e.tag = concat(delta, e.tag)
                e.src = keep
            else:
                e.tag = concat(e.tag, inverse(delta))
                e.dst = keep
            incident[keep].append(e)
        incident[gone] = []
        parent[gone] = keep

    work = deque(range(len(parent)))
    queued = set(work)
    while work:
        v = work.popleft()
        queued.discard(v)
        if find(v) != v:
            continue
        by_label = {}
        dirty = True
        while dirty:
            dirty = False
            by_label.clear()
            live = []
            live_ids = set()
            for e in incident[v]:
                if e.alive and (e.src == v or e.dst == v) \
                        and id(e) not in live_ids:
                    live.append(e)
                    live_ids.add(id(e))
            incident[v] = live
            for e in live:
                if e.src == v:
                    key = e.letter
                    out = (e.dst, e.tag)
                    if key in by_label:
                        _merge_pair(by_label[key], out, e, find, absorb,
                                    work, queued, v)
                        dirty = True
                        break
                    by_label[key] = (out, e)
                if e.dst == v and e.src != v:
                    key = -e.letter
                    out = (e.src, inverse(e.tag))
                    if key in by_label:
                        _merge_pair(by_label[key], out, e, find, absorb,
                                    work, queued, v)
                        dirty = True
                        break
                    by_label[key] = (out, e)
                elif e.dst == v and e.src == v:
                    key = -e.letter
                    out = (e.src, inverse(e.tag))
                    if key in by_label:
                        _merge_pair(by_label[key], out, e, find, absorb,
                                    work, queued, v)
                        dirty = True
                        break
                    by_label[key] = (out, e)

    return trimming_finish(incident, find, rank, gens)


def seeded_fold_sets(seed, count):
    """(generators, rank) of random flowers with self-loops and
    multi-edges to merge."""
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(1, 4)
        gens = [rand_word(rng, rank, max_len=rng.randint(1, 8))
                for _ in range(rng.randint(1, 4))]
        # proper powers and repeated generators give self-loops and
        # multi-edges to merge
        if rng.random() < 0.3:
            gens.append(gens[0] * rng.randint(2, 3))
        yield gens, rank


def test_express_substitutes_back_on_seeded_flowers():
    """Every generator, and seeded random products of them, expresses
    back; flowers whose folds merge a vertex carrying a self-loop are
    among them."""
    rng = random.Random(64)
    for seed in (61, 62, 63):
        for gens, rank in seeded_fold_sets(seed, 2000):
            H = fold(gens, rank)
            basis = H.generators
            for g in basis:
                assert expresses_back(H, g), gens
            for _ in range(5):
                expr = [rng.choice((1, -1)) * rng.randint(1, len(basis))
                        for _ in range(rng.randint(1, 6))] if basis else []
                assert expresses_back(H, substitute(expr, basis)), gens


def tag_free(H):
    return {key: w for key, (w, _t) in H.succ.items()}


def test_fold_matches_three_branch_fold():
    """The reference re-tags a self-loop twice when the vertex carrying
    it is merged away while listed twice, so its tags are wrong on a few
    flowers; there fold agrees with it up to tags and expresses back."""
    wrong = 0
    for gens, rank in seeded_fold_sets(61, 2000):
        got, want = fold(gens, rank), three_branch_fold(gens, rank)
        assert got.num_vertices == want.num_vertices
        assert got.generators == want.generators
        if all(expresses_back(want, g) for g in want.generators):
            assert got.succ == want.succ
        else:
            wrong += 1
            assert tag_free(got) == tag_free(want)
            assert all(expresses_back(got, g) for g in got.generators)
    assert wrong == 7


def test_fold_leaves_no_vertex_to_trim():
    """Every vertex but the basepoint has degree >= 2 (a self-loop counts
    twice), so the trimming that fold used to run removes nothing."""
    checked = 0
    for seed in (61, 62, 63):
        for gens, rank in seeded_fold_sets(seed, 2000):
            H = fold(gens, rank)
            degree = [0] * H.num_vertices
            for (v, _l), (w, _t) in H.succ.items():
                assert 0 <= w < H.num_vertices
                degree[v] += 1
            assert all(d >= 2 for d in degree[1:]), gens
            assert H.free_rank == len(H.succ) // 2 - H.num_vertices + 1
            checked += H.num_vertices > 1
    assert checked > 2000


def edges_by_letter(G):
    """Positive letter l -> the (source, target) of each l-edge of G, in
    succ order: the lists each fiber product built anew before CoreGraph
    recorded them while numbering the graph."""
    out = {}
    for (v, l), (w, _tag) in G.succ.items():
        if l > 0:
            out.setdefault(l, []).append((v, w))
    return out


def bfs_tree_paths(G):
    """BFS path word from the basepoint to each vertex, trying letters in
    letter_key order, in the order the BFS discovers the vertices."""
    letters = sorted({l for (_, l) in G.succ}, key=letter_key)
    paths = {0: ()}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for l in letters:
            hit = G.succ.get((v, l))
            if hit is not None and hit[0] not in paths:
                paths[hit[0]] = paths[v] + (l,)
                queue.append(hit[0])
    return paths


def test_core_graph_records_edges_and_tree_paths_when_built():
    """A folded graph is BFS-numbered, each vertex's tree path is its BFS
    path and each letter's edges are listed by source; shifted gives the
    fold of the shifted words."""
    for seed in (61, 62, 63):
        for gens, rank in seeded_fold_sets(seed, 2000):
            H = fold(gens, rank)
            assert H.edges == {l: sorted(e, key=lambda e: e[0])
                               for l, e in edges_by_letter(H).items()}
            paths = bfs_tree_paths(H)
            assert list(paths) == list(range(H.num_vertices))
            assert H.tree_paths == list(paths.values())
            assert H.num_edges == sum(1 for (_v, l) in H.succ if l > 0)
            # a shift renames letters in the order of letter_key, so it
            # numbers and tags the graph as fold does the shifted words
            for k in range(5):
                G = H.shifted(k, rank + k)
                want = fold([shift_word(g, k) for g in gens], rank + k)
                assert (G.succ, G.tree_paths, G.edges, G.generators,
                        G.rank) == (want.succ, want.tree_paths, want.edges,
                                    want.generators, want.rank), (gens, k)


def test_core_graph_keeps_a_bfs_numbering_and_renumbers_any_other():
    """A graph already BFS-numbered keeps its numbering; renamed
    vertices, the basepoint kept at 0, are numbered back to it."""
    rng = random.Random(65)
    for gens, rank in seeded_fold_sets(64, 1000):
        H = fold(gens, rank)
        names = [0] + rng.sample(range(1, 10 * H.num_vertices),
                                 H.num_vertices - 1)
        renamed = {(names[v], l): (names[w], t)
                   for (v, l), (w, t) in H.succ.items()}
        for succ in (H.succ, renamed):
            G = CoreGraph(rank, succ, H.generators)
            assert G.succ == H.succ
            assert (G.num_vertices, G.tree_paths, G.edges) == \
                (H.num_vertices, H.tree_paths, H.edges)


def two_pass_components(A, B):
    """The fiber-product components before the spanning tree was recorded
    during the one BFS: (sorted pairs, positive edges) per component."""
    pairs = [(u, v) for u in range(A.num_vertices)
             for v in range(B.num_vertices)]
    seen = set()
    for start in pairs:
        if start in seen:
            continue
        comp = []
        comp_edges = []
        queue = deque([start])
        seen.add(start)
        while queue:
            (u, v) = queue.popleft()
            comp.append((u, v))
            for l in range(1, max(A.rank, B.rank) + 1):
                for sl in (l, -l):
                    a = A.succ.get((u, sl))
                    b = B.succ.get((v, sl))
                    if a is None or b is None:
                        continue
                    tgt = (a[0], b[0])
                    if sl > 0:
                        comp_edges.append(((u, v), sl, tgt))
                    if tgt not in seen:
                        seen.add(tgt)
                        queue.append(tgt)
        yield sorted(comp), comp_edges


def two_pass_witnesses(A, B, comp, comp_edges):
    """The second BFS over a component's edges, rebuilding the same tree,
    and a free reduction per edge to tell tree edges apart."""
    root = comp[0]
    tree = {root: ()}
    queue = deque([root])
    adj = {}
    for (p, l, q) in comp_edges:
        adj.setdefault(p, []).append((l, q))
        adj.setdefault(q, []).append((-l, p))
    while queue:
        p = queue.popleft()
        for (l, q) in sorted(adj.get(p, ()), key=lambda x: letter_key(x[0])):
            if q not in tree:
                tree[q] = tree[p] + (l,)
                queue.append(q)
    pa = A.tree_paths
    pb = B.tree_paths
    for (p, l, q) in comp_edges:
        cyc = free_reduce(tree[p] + (l,) + inverse(tree[q]))
        if not cyc:
            continue  # tree edge
        u, v = root
        h = concat(pa[u], cyc, inverse(pa[u]))
        g = concat(pb[v], inverse(pa[u]))
        if h:
            yield (g, h)


def two_pass_conj(A, B):
    if A.is_trivial or B.is_trivial:
        return True, None
    best = None
    for comp, comp_edges in two_pass_components(A, B):
        for (g, h) in two_pass_witnesses(A, B, comp, comp_edges):
            key = (shortlex_key(h), shortlex_key(g))
            if best is None or key < best[0]:
                best = (key, (g, h))
    if best is None:
        return True, None
    return False, best[1]


def two_pass_malnormal(H):
    if H.is_trivial:
        return True, None
    best = None
    for comp, comp_edges in two_pass_components(H, H):
        if comp[0][0] == comp[0][1]:
            continue  # the diagonal is a full component
        for (g, h) in two_pass_witnesses(H, H, comp, comp_edges):
            gp = inverse(g)
            if H.member(gp):
                continue
            key = (shortlex_key(h), shortlex_key(gp))
            if best is None or key < best[0]:
                best = (key, (gp, h))
    if best is None:
        return True, None
    return False, best[1]


def two_pass_pointed(A, B):
    if A.is_trivial or B.is_trivial:
        return False
    for comp, comp_edges in two_pass_components(A, B):
        if (0, 0) in comp:
            return len(comp_edges) - len(comp) + 1 >= 1
    return False


def rand_maximal_cyclic(rng, rank):
    """A random word that generates a maximal cyclic subgroup of F(rank)."""
    while True:
        w = rand_word(rng, rank)
        if w and is_maximal_abelian_in_free(w):
            return w


def test_shared_maximal_cyclic_edge_groups_meet_iff_equal():
    # edges u -> v : u1 ~ c^2 and u -> w : u2 ~ f^2 with <u1>, <u2>
    # maximal cyclic are Prop-BadTree's tree exactly when <u1> cap <u2> != 1,
    # which the basepoint component of the fiber product decides; the
    # verdict compares the reduced words instead
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    for n in range(400):
        rank = rng.randint(1, 3)
        u1 = rand_maximal_cyclic(rng, rank)
        g = rand_word(rng, rank)
        # equal, inverted, conjugated (written unreduced) and unrelated
        u2 = (u1, inverse(u1), inverse(g) + u1 + g,
              rand_maximal_cyclic(rng, rank))[n % 4]
        gog = GraphOfGroups({"u": rank, "v": 1, "w": 1},
                            [GogEdge("u", "v", (u1,), ((1, 1),)),
                             GogEdge("u", "w", (u2,), ((1, 1),))])
        meets = two_pass_pointed(fold([u1], rank), fold([u2], rank))
        want = ("not-csa", "Prop-BadTree") if meets else ("unknown", None)
        assert amalgam._tree_csa_verdict(gog) == want, (u1, u2)
        seen[meets] += 1
    assert min(seen.values()) > 50, seen


def assert_matches_two_pass(A, B):
    # every fundamental cycle, in order, not just the least witness
    assert list(_witnesses(A, B)) == [
        w for comp, comp_edges in two_pass_components(A, B)
        for w in two_pass_witnesses(A, B, comp, comp_edges)]
    rep = is_malnormal(A)
    assert (rep.verdict, rep.witness) == two_pass_malnormal(A)
    assert conj_intersection_trivial(A, B) == two_pass_conj(A, B)


def long_word(rng, rank, length):
    """A freely reduced word of exactly the given length."""
    w = []
    while len(w) < length:
        l = rng.choice([g * s for g in range(1, rank + 1) for s in (1, -1)])
        if not (w and w[-1] == -l):
            w.append(l)
    return tuple(w)


def test_fiber_products_match_two_pass_bfs():
    rng = random.Random(83)
    witnesses = 0
    for _ in range(1500):
        rank = rng.randint(1, 4)
        gens = [[rand_word(rng, rank, max_len=rng.randint(1, 6))
                 for _ in range(rng.randint(1, 3))] for _ in range(2)]
        # a proper power in place of a generator makes malnormality fail
        if rng.random() < 0.4:
            gens[0][0] = gens[0][0] * 2
        A, B = fold(gens[0], rank), fold(gens[1], rank)
        assert_matches_two_pass(A, B)
        witnesses += not is_malnormal(A).verdict
    assert witnesses > 200
    big = fold([long_word(rng, 3, 40) for _ in range(4)] + [(1, 2) * 2], 3)
    other = fold([long_word(rng, 3, 30) for _ in range(3)] + [(1, 2)], 3)
    assert big.num_vertices > 100
    assert not is_malnormal(big).verdict
    assert not conj_intersection_trivial(big, other)[0]
    assert_matches_two_pass(big, other)


def test_fiber_products_of_a_2000_vertex_graph():
    """is_malnormal and conj_intersection_trivial on a seeded subgroup of
    F3 with about 2,000 vertices finish in under 20 s: only the
    components that have a cycle are walked."""
    start = time.perf_counter()
    rng = random.Random(14)
    H = fold([long_word(rng, 3, 500) for _ in range(4)], 3)
    K = fold([long_word(rng, 3, 333) for _ in range(3)], 3)
    assert H.num_vertices > 1900, H.num_vertices
    assert is_malnormal(H).verdict
    assert conj_intersection_trivial(H, K) == (True, None)
    assert time.perf_counter() - start < 20


def large_graphs():
    """A malnormal and a non-malnormal core graph of over 300 vertices."""
    rng = random.Random(300)
    mal = fold([long_word(rng, 3, 110) for _ in range(3)], 3)
    bad = fold([long_word(rng, 3, 80) for _ in range(4)]
               + [(1, 2, -3) * 2], 3)
    assert min(mal.num_vertices, bad.num_vertices) >= 300
    return mal, bad


def test_large_fiber_products_match_two_pass_bfs():
    """The large graphs, each against the other: every fundamental cycle
    in order, the least witnesses and the pointed test agree with the
    two-pass reference."""
    mal, bad = large_graphs()
    assert is_malnormal(mal).verdict and not is_malnormal(bad).verdict
    assert_matches_two_pass(mal, bad)
    assert_matches_two_pass(bad, mal)


def recording_fiber_cycles(monkeypatch):
    """Replace stallings._fiber_cycles by a wrapper that records the
    start pair of each call."""
    starts = []
    walk = stallings._fiber_cycles

    def recorded(A, B, start, seen):
        starts.append(start)
        return walk(A, B, start, seen)

    monkeypatch.setattr(stallings, "_fiber_cycles", recorded)
    return starts


def cyclic_off_diagonal(H):
    """The cyclic components of H x H other than the diagonal, each as
    its sorted pairs."""
    return [comp for comp, comp_edges in two_pass_components(H, H)
            if comp[0][0] != comp[0][1]
            and len(comp_edges) > len(comp) - 1]


def test_walked_roots_are_least_pairs_of_cyclic_components(monkeypatch):
    """The ordered pass walks the least pair of each cyclic component,
    in increasing order; the mirror pass walks, once each, the least
    pairs of the cyclic off-diagonal components of H x H, both those
    mapped to themselves by the swap sigma(u, v) = (v, u) and both
    members of each orbit {C, sigma C}."""
    starts = recording_fiber_cycles(monkeypatch)
    rng = random.Random(84)
    cyclic = 0
    kinds = {"fixed": 0, "orbit": 0}
    for _ in range(300):
        rank = rng.randint(1, 3)
        gens = [[rand_word(rng, rank, max_len=rng.randint(1, 6))
                 for _ in range(rng.randint(1, 3))] for _ in range(2)]
        if rng.random() < 0.4:
            gens[0][0] = gens[0][0] * 2
        A, B = fold(gens[0], rank), fold(gens[1], rank)
        starts.clear()
        list(_witnesses(A, B))
        # comp is sorted, so comp[0] is the least pair
        assert starts == [comp[0] for comp, comp_edges
                          in two_pass_components(A, B)
                          if len(comp_edges) > len(comp) - 1]
        cyclic += len(starts)
        starts.clear()
        list(_witnesses(A, A, mirrored=True))
        want = cyclic_off_diagonal(A)
        assert len(starts) == len(want)
        assert set(starts) == {comp[0] for comp in want}
        for comp in want:
            u, v = comp[0]
            kinds["fixed" if (v, u) in comp else "orbit"] += 1
    assert cyclic > 200
    assert min(kinds.values()) > 10


def test_forest_products_walk_nothing(monkeypatch):
    """A product with edges but no cycle is never walked: <ab> against
    <a^2 b>, and the off-diagonal product of a malnormal graph of over
    300 vertices."""
    starts = recording_fiber_cycles(monkeypatch)
    A, B = fold([(1, 2)], 2), fold([(1, 1, 2)], 2)
    assert conj_intersection_trivial(A, B) == (True, None)
    mal, _bad = large_graphs()
    assert is_malnormal(mal).verdict
    assert starts == []


def test_malnormality_witnesses_lie_outside_the_subgroup():
    """Every non-diagonal component of H x H is rooted at a pair (u, v)
    with u != v, and in a folded graph H p_u = H p_v only when u = v, so
    no witness g = p_v p_u^-1 lies in H: is_malnormal keeps each one
    without a membership test.  The mirror pass walks both components of
    each orbit {C, sigma C}, so this holds for the witnesses of the
    second walk too."""
    rng = random.Random(61)
    witnesses = 0
    for _ in range(4000):
        rank = rng.randint(1, 4)
        gens = [rand_word(rng, rank, max_len=rng.randint(1, 6))
                for _ in range(rng.randint(1, 3))]
        # a proper power in place of a generator makes malnormality fail
        if rng.random() < 0.4:
            gens[0] = gens[0] * 2
        H = fold(gens, rank)
        for g, _h in _witnesses(H, H, mirrored=True):
            assert not H.member(g) and not H.member(inverse(g))
            witnesses += 1
    assert witnesses > 800


def least_witness_component(H):
    """The cyclic off-diagonal component of H x H whose walk gives
    is_malnormal's witness, from the two-pass reference."""
    best = is_malnormal(H).witness
    for comp, comp_edges in two_pass_components(H, H):
        if comp[0][0] != comp[0][1] and best in [
                (inverse(g), h)
                for g, h in two_pass_witnesses(H, H, comp, comp_edges)]:
            return comp


def test_mirror_pass_yields_the_ordered_witnesses():
    """The mirror pass over unordered pairs yields the witnesses of the
    ordered pass over H x H less the diagonal, whose witnesses alone
    have g = 1 (the diagonal is rooted at (0, 0), and an off-diagonal
    root (u, v) gives g = p_v p_u^-1 != 1).  Seeded subgroups, half with
    a proper power, and two inputs whose least witness comes from each
    orbit kind: <y, y^-1 x^2> from a component with sigma C = C, and
    <x^4, y> from the second component walked of an orbit {C, sigma
    C}, the one not holding the orbit's least unordered pair."""
    fixed = fold([(2,), (-2, 1, 1), (2, 2)], 2)
    comp = least_witness_component(fixed)
    u, v = comp[0]
    assert (v, u) in comp
    assert is_malnormal(fixed).witness == ((-1,), (1, 1))
    second = fold([(1, 1, 1, 1), (2,)], 2)
    comp = least_witness_component(second)
    assert (comp[0][1], comp[0][0]) not in comp
    assert min((b, a) for a, b in comp) < comp[0]
    assert is_malnormal(second).witness == ((1,), (1, 1, 1, 1))
    rng = random.Random(85)
    graphs = [fixed, second]
    for _ in range(1000):
        rank = rng.randint(1, 3)
        gens = [rand_word(rng, rank, max_len=rng.randint(1, 6))
                for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            gens[0] = gens[0] * rng.randint(2, 3)
        graphs.append(fold(gens, rank))
    witnesses = 0
    for H in graphs:
        mirrored = sorted(_witnesses(H, H, mirrored=True))
        assert mirrored == sorted(w for w in _witnesses(H, H) if w[0])
        witnesses += len(mirrored)
    assert witnesses > 600


def recording_work(monkeypatch):
    """Replace stallings._walk_cyclic, the step every join pass hands its
    union-find forest to, by a wrapper that records the pass's work:
    (node slots in the forest, completed segment reads).  Each completed
    read either makes one root a child, turning one -1 entry of parent
    into a parent id (x >= 0), or closes a cycle, adding one entry to
    cyclic."""
    work = []
    walk = stallings._walk_cyclic

    def recorded(A, B, parent, cyclic, width, mirrored):
        work.append((len(parent), sum(x >= 0 for x in parent) + len(cyclic)))
        return walk(A, B, parent, cyclic, width, mirrored)

    monkeypatch.setattr(stallings, "_walk_cyclic", recorded)
    return work


def test_self_product_forest_is_one_flat_list():
    """On <x^1000 y>, whose 1,001-vertex graph is one cycle, the basepoint
    is the only marked vertex, so the self product's forest is one flat
    list of 1 * 1,001 node slots, and the Python heap peaks under 1 MB
    (a forest over the product's vertex pairs would hold 1,001^2 slots,
    8 MB)."""
    H = fold([(1,) * 1000 + (2,)], 2)
    assert H.num_vertices == 1001
    assert H._skeleton() == ([0], [(0, (-2,) + (-1,) * 1000, 0)])
    tracemalloc.start()
    try:
        report = is_malnormal(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict
    assert peak < 10 ** 6


def test_skeleton_pass_work_is_below_the_product_edge_count(monkeypatch):
    """On the large graphs, the pass over |marked| * |V| node slots
    completes fewer segment reads than the slots it has, and both stay
    below the product's sum_l |E_l| (|E_l| - 1) / 2 off-diagonal edges
    up to the swap (sum_l |E_l|^2 edges for the ordered pass).  The
    ordered pass completes each segment's diagonal read as well."""
    work = recording_work(monkeypatch)
    pinned = [(2, 4, (652, 18)), (5, 9, (1560, 306))]
    for H, (marks, segments, mirrored) in zip(large_graphs(), pinned):
        marked, segs = H._skeleton()
        assert (len(marked), len(segs)) == (marks, segments)
        sizes = {}
        for (_v, l) in H.succ:
            if l > 0:
                sizes[l] = sizes.get(l, 0) + 1
        work.clear()
        is_malnormal(H)
        assert work == [mirrored]
        assert mirrored[0] == len(marked) * H.num_vertices
        assert max(mirrored) < sum(e * (e - 1) // 2 for e in sizes.values())
        work.clear()
        list(_witnesses(H, H))
        assert work == [(mirrored[0], mirrored[1] + len(segs))]
        assert max(work[0]) < sum(e * e for e in sizes.values())


def thin_graph():
    """The fold of two seeded 1,800-letter words in F3: about 3,600
    vertices, almost all of degree 2."""
    rng = random.Random(7)
    return fold([long_word(rng, 3, 1800) for _ in range(2)], 3)


def test_thin_graph_is_read_by_segments():
    """is_malnormal on a thin graph of about 3,600 vertices reads a few
    long segments instead of joining the product's 4.3 million edges:
    under 1 s, and a Python heap peak under 5 MB (a forest over its
    vertex pairs would hold 3,597^2 slots, about 100 MB)."""
    H = thin_graph()
    assert H.num_vertices > 3500
    marked, segments = H._skeleton()
    assert len(marked) < 10 and len(segments) < 10
    H = thin_graph()
    start = time.perf_counter()
    assert is_malnormal(H).verdict
    assert time.perf_counter() - start < 1
    H = thin_graph()
    tracemalloc.start()
    try:
        report = is_malnormal(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict
    assert peak < 5 * 10 ** 6


def test_sparse_products_allocate_by_marked_vertices():
    """Two 4,000-vertex products with no edge, or one: the forest has a
    slot per marked vertex of A and vertex of B, so each call peaks under
    2 MB (a forest over the vertex pairs would hold 16 million slots,
    128 MB)."""
    n = 4000
    for gens_a, gens_b, rank in (([(1,) * n], [(2,) * n], 2),
                                 ([(1,) * n + (2,)], [(3,) * n + (2,)], 3)):
        A, B = fold(gens_a, rank), fold(gens_b, rank)
        tracemalloc.start()
        try:
            answer = conj_intersection_trivial(A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer == (True, None)
        assert peak < 2 * 10 ** 6, peak


def test_skeleton_edge_shapes_match_two_pass_bfs():
    """Graphs whose skeleton is degenerate, each against every other and
    against itself, agree with the two-pass reference: a rose (one
    vertex, each edge a segment), <x^5 y> (no vertex of degree other
    than 2: the basepoint is the only marked vertex, and one segment
    runs from it back to it), conjugated generators (a basepoint of
    degree 1) and rank 1."""
    rose = fold([(1,), (2,), (3,)], 3)
    assert rose.num_vertices == 1
    assert rose._skeleton() == ([0], [(0, (-1,), 0), (0, (-2,), 0),
                                      (0, (-3,), 0)])
    cycle = fold([(1,) * 5 + (2,)], 2)
    assert cycle._skeleton() == ([0], [(0, (-2,) + (-1,) * 5, 0)])
    conjugated = [fold([(3, 1, -3), (3, 2, -3)], 3),
                  fold([(3, 1, 1, -3), (3, 2, -3)], 3)]
    for H in conjugated:
        assert sum(v == 0 for (v, _l) in H.succ) == 1
    rank1 = [fold([(1,)], 1), fold([(1, 1)], 1), fold([(1,) * 3], 1)]
    shapes = [rose, fold([(1,), (2,)], 3), cycle,
              fold([(1,) * 2 + (2,)], 2)] + conjugated + rank1
    witnesses = 0
    for A in shapes:
        for B in shapes:
            assert_matches_two_pass(A, B)
            witnesses += len(list(_witnesses(A, B)))
        mirrored = sorted(_witnesses(A, A, mirrored=True))
        assert mirrored == sorted(w for w in _witnesses(A, A) if w[0])
        witnesses += len(mirrored)
    assert witnesses > 50
    assert not is_malnormal(conjugated[1]).verdict
    assert not is_malnormal(rank1[1]).verdict
