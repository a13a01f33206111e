"""Folded core graphs for finitely generated subgroups of free groups.

Folding keeps expression tags on every edge, so a basepoint loop can be
rewritten as a product of the original generators (needed to transport
elements through a subgroup isomorphism).  Tags are words over the
abstract alphabet 1..k indexing the input generator list.
"""

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import CLOSURE_CAP, CapExceededError
from .words import (concat, free_reduce, inverse, letter_key, shift_word,
                    shortlex_key)


class CoreGraph:
    """Folded, trimmed Stallings automaton with basepoint 0.

    ``succ[(v, letter)] -> (w, tag)`` for letters of both signs; the tag is
    the expression-word contribution of traversing that edge.

    The constructor numbers the vertices of the connected graph succ,
    whatever their names: one BFS from the basepoint 0, trying letters
    in letter_key order, numbers each vertex as it is discovered.  The same
    pass records each vertex's tree path (``tree_paths[v]``, each vertex
    listed after its tree parent) and each positive letter's
    ``(source, target)`` edges, sorted by source (``edges[l]``).
    """

    def __init__(self, rank, succ, generators):
        self.rank = rank
        self.generators = generators  # input words, reduced and nontrivial
        letters = sorted({l for (_, l) in succ}, key=letter_key)
        self.succ = {}
        self.edges = {l: [] for l in letters if l > 0}
        self.tree_paths = paths = [()]
        names = [0]     # the name in succ of each numbered vertex
        number = {0: 0}
        for v, name in enumerate(names):
            for l in letters:
                hit = succ.get((name, l))
                if hit is None:
                    continue
                w = number.get(hit[0])
                if w is None:
                    w = number[hit[0]] = len(names)
                    names.append(hit[0])
                    paths.append(paths[v] + (l,))
                self.succ[(v, l)] = (w, hit[1])
                if l > 0:
                    self.edges[l].append((v, w))
        self.num_vertices = len(names)
        self._tree_back_exprs = None

    def shifted(self, offset, rank):
        """The graph of the generators shifted by offset, over rank
        letters, numbered and tagged as fold would: shift_word keeps the
        order of letter_key, which orders letters by |l|."""
        succ = {(v,) + shift_word((l,), offset): hit
                for (v, l), hit in self.succ.items()}
        return CoreGraph(rank, succ, tuple(shift_word(g, offset)
                                           for g in self.generators))

    # -- basic automaton queries -------------------------------------------

    def _read(self, word):
        """Read a freely reduced word over 1..rank from the basepoint
        until it leaves the graph: (the vertex where reading stops, the
        number of letters read, the reduced product of the tags read)."""
        succ = self.succ
        v = 0
        expr = []
        for i, l in enumerate(word):
            hit = succ.get((v, l))
            if hit is None:
                return v, i, expr
            v, tag = hit
            for t in tag:
                if expr and expr[-1] == -t:
                    expr.pop()
                else:
                    expr.append(t)
        return v, len(word), expr

    def member(self, word):
        """Whether word reads a loop at the basepoint."""
        word = free_reduce(word, self.rank)
        v, i, _ = self._read(word)
        return v == 0 and i == len(word)

    def express(self, word):
        """Rewrite a basepoint loop as a word over the generator alphabet
        (1..len(generators)); None if word is not in the subgroup."""
        word = free_reduce(word, self.rank)
        v, i, expr = self._read(word)
        return tuple(expr) if v == 0 and i == len(word) else None

    @property
    def num_edges(self):
        return len(self.succ) // 2

    @property
    def free_rank(self):
        return self.num_edges - self.num_vertices + 1

    @property
    def is_trivial(self):
        return not self.succ

    # -- spanning tree ------------------------------------------------------

    def _tree_back(self):
        """For each vertex, the expression of its tree path inverted:
        the tags read from the vertex back to the basepoint along the
        tree (computed once, on first use)."""
        if self._tree_back_exprs is None:
            back = [()]
            for v, path in enumerate(self.tree_paths[1:], 1):
                u, tag = self.succ[(v, -path[-1])]
                back.append(concat(tag, back[u]))
            self._tree_back_exprs = back
        return self._tree_back_exprs

    def coset_rep(self, word):
        """Canonical representative of the right coset H*word.

        Reads word through the graph, spilling into a spur once it leaves;
        the rep is tree-path-to-exit plus the unread tail.  The two join
        reduced: the graph has the edge out of the exit v that undoes v's
        tree edge, so the letter where the read stops is not that one.
        """
        word = free_reduce(word, self.rank)
        v, i, _ = self._read(word)
        return self.tree_paths[v] + word[i:]

    def _coset_split(self, word):
        """(coset_rep(word), express(word * rep^-1)) from one read, for a
        freely reduced word over 1..rank, unchecked.

        The read stops at the vertex v where word leaves the graph (or
        ends); word * rep^-1 is the read prefix followed by v's tree path
        backwards, so its expression is the tags read followed by v's
        inverted tree-path expression.  The rep joins reduced as in
        coset_rep; the two expression parts are reduced, so only their
        seam cancels."""
        v, i, expr = self._read(word)
        back = self._tree_back()[v]
        k = 0
        while k < len(back) and expr and expr[-1] == -back[k]:
            expr.pop()
            k += 1
        expr.extend(back[k:])
        return self.tree_paths[v] + word[i:], tuple(expr)


def fold(generators, rank):
    """Fold the flower on the given generator words into a core graph.

    One edge table maps an edge id to [src, positive letter, dst, tag];
    each vertex has an insertion-ordered dict of its incident edge ids,
    or None once it is merged away.  Merges happen in a fixed order:
    vertices are scanned from a work queue, each scan stops at the first
    two edge ends with the same out-label in incident order, and the
    higher-numbered far vertex is merged into the lower one, re-tagging
    each of its edges once.
    """
    gens = tuple(w for w in (free_reduce(g, rank) for g in generators) if w)
    edges = {}
    incident = [{}]

    for i, g in enumerate(gens):
        v = 0
        for j, l in enumerate(g):
            if j == len(g) - 1:
                nxt, tag = 0, (i + 1,)
            else:
                nxt, tag = len(incident), ()
                incident.append({})
            eid = len(edges)
            edges[eid] = ([v, l, nxt, tag] if l > 0
                          else [nxt, -l, v, inverse(tag)])
            incident[v][eid] = incident[nxt][eid] = None
            v = nxt

    def first_collision(v):
        """The first two edge ends at v with the same out-label, in
        incident order: ((far, tag), (far, tag), the second's edge id),
        or None when v is folded."""
        by_label = {}
        for eid in incident[v]:
            src, letter, dst, tag = edges[eid]
            ends = []
            if src == v:
                ends.append((letter, dst, tag))
            if dst == v:
                ends.append((-letter, src, inverse(tag)))
            for key, far, t in ends:
                if key in by_label:
                    return by_label[key], (far, t), eid
                by_label[key] = (far, t)
        return None

    def absorb(keep, gone, delta):
        """Merge vertex gone into keep; out-edge tags of gone are
        premultiplied by delta."""
        for eid in incident[gone]:
            e = edges[eid]
            if e[0] == gone:
                e[0] = keep
                e[3] = concat(delta, e[3])
            if e[2] == gone:
                e[2] = keep
                e[3] = concat(e[3], inverse(delta))
            incident[keep][eid] = None
        incident[gone] = None

    work = deque(range(len(incident)))
    queued = set(work)
    while work:
        v = work.popleft()
        queued.discard(v)
        while incident[v] is not None:
            hit = first_collision(v)
            if hit is None:
                break
            (w1, t1), (w2, t2), eid = hit
            # drop the second edge; paths through it route through the first
            src, _, dst, _ = edges.pop(eid)
            incident[src].pop(eid)
            incident[dst].pop(eid, None)
            if w1 == w2:
                continue
            delta = concat(inverse(t1), t2)
            if w2 < w1:
                w1, w2, delta = w2, w1, inverse(delta)
            absorb(w1, w2, delta)
            for u in (v, w1):
                if u not in queued:
                    work.append(u)
                    queued.add(u)

    # the basepoint is never merged away, and CoreGraph numbers the rest;
    # nothing to trim: every other vertex lies on a reduced loop at the
    # basepoint (the folded image of a petal), so has degree >= 2
    succ = {}
    for src, letter, dst, tag in edges.values():
        succ[(src, letter)] = (dst, tag)
        succ[(dst, -letter)] = (src, inverse(tag))
    return CoreGraph(rank, succ, gens)


# -- fiber products ---------------------------------------------------------


def _fiber_cycles(A, B, start, seen):
    """Fundamental cycles of the component of start in the unpointed fiber
    product of A and B, one that _witnesses found cyclic.

    One BFS from start, trying letters in letter_key order, records each
    pair's tree path as it discovers the pair and adds the pair to seen.
    Each positive edge to a pair discovered earlier, other than the tree
    edge back to the parent, closes a cycle; it is yielded as the loop
    word at start, which is already freely reduced."""
    letters = [sl for l in range(1, max(A.rank, B.rank) + 1)
               for sl in (l, -l)]
    tree = {start: ()}
    seen.add(start)
    queue = deque([start])
    while queue:
        p = queue.popleft()
        u, v = p
        path = tree[p]
        for sl in letters:
            a = A.succ.get((u, sl))
            b = B.succ.get((v, sl))
            if a is None or b is None:
                continue
            q = (a[0], b[0])
            if q not in tree:
                tree[q] = path + (sl,)
                seen.add(q)
                queue.append(q)
            elif sl > 0 and not (path and path[-1] == -sl):
                yield path + (sl,) + inverse(tree[q])


def _find(parent, p):
    """Root of pair id p in the union-find forest parent, which maps each
    non-root to its parent; halves the path on the way."""
    while True:
        q = parent.get(p, p)
        if q == p:
            return p
        r = parent.get(q, q)
        parent[p] = r
        p = r


def _walk_cyclic(A, B, parent, cyclic, width, mirrored):
    """Witness words from the components that _witnesses found cyclic.

    Yields (g, h) with h != 1, h in A and g h g^-1 in B, one per
    fundamental cycle.  parent and cyclic are the pass's union-find
    forest over pair ids, each root the least id of its class, and the
    ids whose edges closed a cycle; a root r names the pair
    divmod(r, width).  Roots are walked in increasing order with
    _fiber_cycles, each component from its least pair.

    mirrored marks the pass over the unordered off-diagonal pairs of
    A x A: a root is then the least pair of one component C of the
    orbit {C, sigma C}, sigma(u, v) = (v, u), and when (v, u) is not in
    C the walk goes on to sigma C, from its own least pair, the least
    mirrored pair of C."""
    pa = A.tree_paths
    pb = B.tree_paths

    def rooted(start, comp):
        u, v = start
        g = concat(pb[v], inverse(pa[u]))
        for cyc in _fiber_cycles(A, B, start, comp):
            yield g, concat(pa[u], cyc, inverse(pa[u]))

    for root in sorted({_find(parent, p) for p in cyclic}):
        u, v = divmod(root, width)
        comp = set()
        yield from rooted((u, v), comp)
        if mirrored and (v, u) not in comp:
            yield from rooted(min((b, a) for a, b in comp), set())


def _witnesses(A, B, mirrored=False):
    """Witness words from every cyclic component of the fiber product of
    A and B, as _walk_cyclic yields them.

    One union-find pass over the product's positive edges finds those
    components: each letter's edges of A are joined with that letter's
    edges of B, pair (u, v) has id u * |V_B| + v, a union keeps the
    smaller id as the root, and an edge whose ends already share a root
    closes a cycle.  The other components have no fundamental cycle and
    are never walked.  Neither the roots nor which components are cyclic
    depend on the order of the joins.

    mirrored, with B = A, leaves out the diagonal component and joins
    each mirror pair of edges once.  The diagonal pairs (w, w) form a
    component on their own: an edge (w, w) -> (x, y) would need two
    edges with one label out of w.  Off it, the swap sigma(u, v) = (v, u)
    moves every pair and every edge, so the pass runs over the unordered
    pairs: {u, v}, u < v, has id u * |V| + v, each letter's edges are
    sorted by source and edge i is joined only with the edges j > i.  A
    component C with sigma C != C maps isomorphically onto its image,
    and one with sigma C = C double-covers it, with chi(C) = 2 chi(C /
    sigma), so neither is a tree: C has a cycle exactly when its image
    does.  The least id of a cyclic image is the least pair of a
    component C over it, and _walk_cyclic walks C and then, when it is
    not C itself, sigma C, so the witnesses are those of the ordered
    pass less the diagonal's, which alone have g = 1."""
    nb = B.num_vertices
    a_edges = A.edges
    b_edges = a_edges if mirrored else B.edges
    parent = {}
    cyclic = []
    for l, edges in a_edges.items():
        others = b_edges.get(l, ())
        # mirrored: the edges are sorted by source and a folded graph has
        # one edge of each label out of each vertex, so the sources of
        # j > i exceed u and the ends differ
        for i, (u, w) in enumerate(edges):
            src, dst = u * nb, w * nb
            # an unordered end pair {w, x} is numbered from its less end
            lo = w if mirrored else -1
            for v, x in others[i + 1:] if mirrored else others:
                p = src + v
                q = dst + x if x > lo else x * nb + w
                if p in parent:
                    p = _find(parent, p)
                if q in parent:
                    q = _find(parent, q)
                if p < q:
                    parent[q] = p
                elif q < p:
                    parent[p] = q
                else:
                    cyclic.append(p)
    return _walk_cyclic(A, B, parent, cyclic, nb, mirrored)


def _witness_key(witness):
    g, h = witness
    return shortlex_key(h), shortlex_key(g)


def conj_intersection_trivial(A, B):
    """Decide whether A cap g^-1 B g = 1 for every g in the ambient free
    group.  Returns (True, None) or (False, (g, h)) with
    1 != h in A cap g^-1 B g (equivalently g h g^-1 in B)."""
    if A.is_trivial or B.is_trivial:
        return True, None
    best = min(_witnesses(A, B), key=_witness_key, default=None)
    return best is None, best


@dataclass
class SubgroupReport:
    """Verdict of a malnormality or separation check.

    For is_malnormal the witness (g, h) has h in H, g^-1 h g in H and g
    not in H; for separation, 1 != h in A cap g^-1 B g."""
    verdict: bool
    witness: Optional[tuple] = None


def is_malnormal(H):
    """H cap H^g = 1 for every g outside H, via the self fiber product
    less its diagonal component, whose pairs (w, w) give g = 1.

    _witnesses(H, H, mirrored=True) joins each mirror pair of product
    edges once and yields the witnesses of the ordered pass less the
    diagonal's.  Every walk starts at (u, v) with u != v, and H p_u =
    H p_v only when u = v in a folded graph, so no g = p_v p_u^-1 lies
    in H."""
    if H.is_trivial:
        return SubgroupReport(True)
    found = ((inverse(g), h) for g, h in _witnesses(H, H, True))
    best = min(found, key=_witness_key, default=None)
    return SubgroupReport(best is None, best)


def malnormal_closure(H, cap=CLOSURE_CAP, report=None):
    """Join malnormality witnesses until the subgroup is malnormal;
    report, when given, is is_malnormal(H), so it is not computed again.

    Raises CapExceededError when cap joins leave it not malnormal."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    for joins in range(cap + 1):
        if report is None:
            report = is_malnormal(H)
        if report.verdict:
            return H
        if joins == cap:
            raise CapExceededError(cap)
        g, _h = report.witness
        H = fold(H.generators + (g,), H.rank)
        report = None
