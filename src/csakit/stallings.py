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
        self._skeleton_parts = None

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

    def _skeleton(self):
        """(marked, segments): the marked vertices, the basepoint and
        every vertex of degree other than 2, in increasing order, and each
        maximal path between two of them through unmarked vertices, once,
        as (i, label word, j) from marked[i] to marked[j] (computed once,
        on first use)."""
        if self._skeleton_parts is None:
            succ = self.succ
            out = [[] for _ in range(self.num_vertices)]
            for (v, l) in succ:
                out[v].append(l)
            marked = [v for v, ls in enumerate(out) if not v or len(ls) != 2]
            index = {v: i for i, v in enumerate(marked)}
            segments = []
            for a in marked:
                for first in out[a]:
                    word = [first]
                    v = succ[(a, first)][0]
                    while v not in index:
                        l, k = out[v]
                        word.append(k if l == -word[-1] else l)
                        v = succ[(v, word[-1])][0]
                    # the path read from its other end starts (v, -last)
                    if (a, first) < (v, -word[-1]):
                        segments.append((index[a], tuple(word), index[v]))
            self._skeleton_parts = marked, segments
        return self._skeleton_parts

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

    def end(eid, key):
        """(far vertex, tag) of the end of edge eid with out-label key."""
        src, letter, dst, tag = edges[eid]
        return (dst, tag) if key == letter else (src, inverse(tag))

    def first_collision(v):
        """The first two edge ends at v with the same out-label, in
        incident order (an edge's outgoing end before its incoming one):
        ((far, tag), (far, tag), the second's edge id), or None when v is
        folded.  The scan keeps each label's first edge id; only the two
        ends returned are read, so only theirs can have a tag inverted."""
        by_label = {}
        for eid in incident[v]:
            src, letter, dst, _ = edges[eid]
            for key in ((letter, -letter) if src == dst
                        else (letter,) if src == v else (-letter,)):
                first = by_label.setdefault(key, eid)
                if first != eid:
                    return end(first, key), end(eid, key), eid
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


def _component(A, B, start):
    """The pairs of the component of start in the fiber product of A and
    B (letter 0 labels no edge)."""
    letters = range(-max(A.rank, B.rank), max(A.rank, B.rank) + 1)
    comp, todo = {start}, [start]
    for u, v in todo:
        for l in letters:
            a = A.succ.get((u, l))
            b = a and B.succ.get((v, l))
            if b and (a[0], b[0]) not in comp:
                comp.add((a[0], b[0]))
                todo.append((a[0], b[0]))
    return comp


def _find(parent, p):
    """Root of id p in the union-find forest parent, a flat list indexed
    by id that holds -1 at a root and its parent at every other id;
    halves the path on the way."""
    while True:
        q = parent[p]
        if q < 0:
            return p
        r = parent[q]
        if r < 0:
            return q
        parent[p] = r
        p = r


def _walk_cyclic(A, B, parent, cyclic, width, mirrored):
    """Witness words from the components that _witnesses found cyclic.

    Yields (g, h) with h != 1, h in A and g h g^-1 in B, one per
    fundamental cycle.  parent and cyclic are the pass's union-find
    forest, the flat list over node ids that _find reads, and the ids
    whose reads closed a cycle; id i * width + v names the pair
    (marked[i], v) of A's skeleton.  One scan of each cyclic component
    finds its least pair, and the components are walked with
    _fiber_cycles from those, in increasing order.

    mirrored marks the pass over the off-diagonal pairs of A x A: the
    least pair is then that of the orbit {C, sigma C}, sigma(u, v) =
    (v, u), and when (v, u) is not in the component C walked from it,
    the walk goes on to sigma C, from its own least pair."""
    marked = A._skeleton()[0]
    pa = A.tree_paths
    pb = B.tree_paths

    def rooted(start, comp):
        u, v = start
        g = concat(pb[v], inverse(pa[u]))
        for cyc in _fiber_cycles(A, B, start, comp):
            yield g, concat(pa[u], cyc, inverse(pa[u]))

    roots = set()
    for r in {_find(parent, p) for p in cyclic}:
        i, v = divmod(r, width)
        comp = _component(A, B, (marked[i], v))
        roots.add(min(comp | {(b, a) for a, b in comp} if mirrored else comp))
    for u, v in sorted(roots):
        comp = set()
        yield from rooted((u, v), comp)
        if mirrored and (v, u) not in comp:
            yield from rooted(min((b, a) for a, b in comp), set())


def _witnesses(A, B, mirrored=False):
    """Witness words from every cyclic component of the fiber product of
    A and B, as _walk_cyclic yields them.

    One union-find pass over A's skeleton finds those components: each
    segment's word is read through B from every vertex of B with an edge
    of its first letter, and a read that completes joins node
    (marked[i], v) to node (marked[j], v') in a flat forest of
    |marked| * |V_B| entries, -1 at a root, or closes a cycle when they
    share a root.  A reduced cycle of the product projects to a reduced
    closed walk in A, which passes a marked vertex, so it is a chain of
    completed reads; the other components have no fundamental cycle.

    mirrored, with B = A, leaves out the diagonal component: the pairs
    (w, w) form one on their own, since an edge (w, w) -> (x, y) would
    need two edges with one label out of w, so no read starts at one."""
    nb = B.num_vertices
    marked, segments = A._skeleton()
    succ = B.succ
    parent = [-1] * (len(marked) * nb)
    cyclic = []
    for i, word, j in segments:
        first, rest = word[0], word[1:]
        edges = B.edges.get(abs(first), ())
        for v, x in edges if first > 0 else [(x, v) for v, x in edges]:
            if mirrored and v == marked[i]:
                continue
            for l in rest:
                hit = succ.get((x, l))
                if hit is None:
                    break
                x = hit[0]
            else:
                p, q = _find(parent, i * nb + v), _find(parent, j * nb + x)
                if p != q:
                    parent[q] = p
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

    _witnesses(H, H, mirrored=True) yields the witnesses of the ordered
    pass less the diagonal's.  Every walk starts at (u, v) with u != v,
    and H p_u = H p_v only when u = v in a folded graph, so no g = p_v
    p_u^-1 lies in H."""
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
