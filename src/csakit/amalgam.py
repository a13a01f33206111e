"""Amalgamated products of free groups through their stable-letter
embedding, plus the oriented graph-of-groups model with its
quasi-malnormal / malnormal / separated predicates and CSA verdicts.
"""

from dataclasses import dataclass
from typing import Optional

from . import words
from .errors import CLOSURE_CAP, CapExceededError, UnsupportedShapeError
from .hnn import HnnPresentation, TWord, check_pairs
from .stallings import (_find, conj_intersection_trivial, is_malnormal,
                        malnormal_closure)
from .words import concat, free_reduce, inverse, shift_word


class AmalgamPresentation:
    """G *_phi H with both factors free; A lives in the left factor,
    B in the right (local letters each starting at 1)."""

    def __init__(self, left_rank, right_rank, a_gens, b_gens):
        if (least := min(left_rank, right_rank)) < 0:
            raise ValueError(f"factor rank {least} is negative")
        self.left_rank, self.right_rank = left_rank, right_rank
        A, B = check_pairs(a_gens, b_gens, "amalgamated subgroup",
                           left_rank, right_rank)
        self.a_gens, self.b_gens = A.generators, B.generators
        self.free_product_rank = rank = left_rank + right_rank
        self.extension = HnnPresentation.from_graphs(
            A.shifted(0, rank), B.shifted(left_rank, rank))

    def embed(self, word):
        """Word over the amalgam's displayed generators (left 1..rl, then
        right) into the extension <G*H, t | t^-1 a t = phi(a)>: left-factor
        letters map to their t-conjugates, right-factor letters to
        themselves.  The word is freely reduced, so each maximal run of
        left letters becomes one syllable t^-1 run t and no segment needs
        reducing again."""
        head = []
        tail = []
        cur = head
        in_left = False
        for l in free_reduce(word, self.free_product_rank):
            if (-self.left_rank <= l <= self.left_rank) != in_left:
                in_left = not in_left
                cur = []
                tail.append((-1 if in_left else 1, cur))
            cur.append(l)
        if in_left:
            tail.append((1, []))
        return TWord(tuple(head), tuple((e, tuple(g)) for (e, g) in tail))


def amalgam_csa_verdict(P: AmalgamPresentation):
    """(verdict, tag) of the amalgam, read off its one-edge tree, so
    that it answers as the same group spelled as a graph of groups; over
    the trivial subgroup the tree falls apart into two free pieces."""
    edge = GogEdge("left", "right", P.a_gens, P.b_gens)
    return _piece_csa_verdict([edge] if P.a_gens else [])


# -- graphs of groups -------------------------------------------------------


@dataclass
class GogEdge:
    src: str
    dst: str
    gens: tuple    # edge subgroup generators, words in G(src)
    images: tuple  # their monomorphism images, words in G(dst)


@dataclass
class GraphOfGroups:
    vertices: dict  # name -> free rank (vertex groups are free)
    edges: list     # of GogEdge, stored with the pairs check_pairs returns

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a graph of groups needs a vertex")
        if (least := min(self.vertices.values())) < 0:
            raise ValueError(f"vertex rank {least} is negative")
        edges = []
        # (vertex, edge words) -> the folded graph check_pairs returned
        self.graphs = {}
        for e in self.edges:
            if e.src not in self.vertices or e.dst not in self.vertices:
                raise ValueError(f"edge {e.src}->{e.dst} references "
                                 "an unknown vertex")
            G, H = check_pairs(e.gens, e.images, "edge subgroup",
                               self.vertices[e.src], self.vertices[e.dst])
            edges.append(GogEdge(e.src, e.dst, G.generators, H.generators))
            self.graphs.setdefault((e.src, G.generators), G)
            self.graphs.setdefault((e.dst, H.generators), H)
        self.edges = edges


@dataclass
class EdgeReport:
    malnormal_in_src: Optional[bool]
    normal_in_closure: Optional[bool]
    malnormal_in_dst: Optional[bool]
    separated: Optional[bool]      # loops only, else None
    witness: Optional[tuple] = None


@dataclass
class GogReport:
    quasi_malnormal: Optional[bool]
    malnormal: Optional[bool]
    separated: Optional[bool]
    per_edge: dict


def _normal_in_closure(images_graph, closure, sub_gens):
    for g in closure.generators:
        for b in sub_gens:
            if not images_graph.member(words.conjugate(b, g)):
                return False
            if not images_graph.member(words.conjugate(b, inverse(g))):
                return False
    return True


def gog_predicates(gog: GraphOfGroups, cap=CLOSURE_CAP) -> GogReport:
    graphs = gog.graphs
    reports = {key: is_malnormal(H) for key, H in graphs.items()}
    normal_in = {}  # the keys of images -> normal in the malnormal closure
    per_edge = {}
    for idx, e in enumerate(gog.edges):
        src, dst = (e.src, e.gens), (e.dst, e.images)
        mal_src, mal_dst = reports[src], reports[dst]
        witness = mal_src.witness or mal_dst.witness
        if dst not in normal_in:
            im = graphs[dst]
            try:
                closure = malnormal_closure(im, cap, report=mal_dst)
                normal_in[dst] = _normal_in_closure(im, closure, e.images)
            except CapExceededError:
                normal_in[dst] = None
        normal = normal_in[dst]
        separated = None
        if e.src == e.dst:
            ok, wit = conj_intersection_trivial(graphs[src], graphs[dst])
            separated = ok
            witness = witness or wit
        per_edge[idx] = EdgeReport(mal_src.verdict, normal,
                                   mal_dst.verdict, separated, witness)

    def agg(vals):
        if any(v is False for v in vals):
            return False
        if any(v is None for v in vals):
            return None
        return True

    quasi = agg([r.malnormal_in_src for r in per_edge.values()]
                + [r.normal_in_closure for r in per_edge.values()])
    mal = agg([quasi] + [r.malnormal_in_dst for r in per_edge.values()])
    sep = agg([r.separated for r in per_edge.values()
               if r.separated is not None] or [True])
    return GogReport(quasi, mal, sep, per_edge)


# -- fundamental groups of finite trees and lines ---------------------------


@dataclass
class TreePresentation:
    generator_names: list
    relators: list        # words over the combined alphabet
    csa: str              # "csa*", "not-csa" or "unknown"
    citation: Optional[str] = None


def _components(vertices, edges):
    """Each vertex's label, the position of the first vertex of its
    component, and whether an edge closed a cycle (or a multi-edge)."""
    position = {v: i for i, v in enumerate(vertices)}
    parent, cycle = [-1] * len(position), False
    for e in edges:
        a, b = _find(parent, position[e.src]), _find(parent, position[e.dst])
        if a == b:
            cycle = True
        else:
            parent[max(a, b)] = min(a, b)
    return {v: _find(parent, i) for v, i in position.items()}, cycle


def _is_oriented_line(edges):
    """Whether the edges of a tree leave each vertex at most once and
    enter it at most once, so that they run along one oriented line."""
    srcs, dsts = [e.src for e in edges], [e.dst for e in edges]
    return len(set(srcs)) == len(srcs) and len(set(dsts)) == len(dsts)


def fundamental_group_presentation(gog: GraphOfGroups):
    """Presentation of the fundamental group of a finite tree (or line) of
    free groups by iterated amalgamation, with a CSA verdict when all edge
    groups are cyclic."""
    label, cycle = _components(gog.vertices, gog.edges)
    if cycle or len(set(label.values())) != 1:
        raise UnsupportedShapeError("underlying graph must be a finite tree")

    names = sorted(gog.vertices)
    offsets, gen_names = {}, []
    total = 0
    for v in names:
        offsets[v] = total
        rank = gog.vertices[v]
        gen_names.extend(f"{v}_{i + 1}" for i in range(rank))
        total += rank
    relators = [concat(shift_word(g, offsets[e.src]),
                       inverse(shift_word(im, offsets[e.dst])))
                for e in gog.edges for g, im in zip(e.gens, e.images)]

    csa, cite = _tree_csa_verdict(gog)
    return TreePresentation(gen_names, relators, csa, cite)


def _tree_csa_verdict(gog):
    """(verdict, tag) of a tree of free groups.  Cut at its trivial edges,
    the tree's fundamental group is the free product of its pieces', and
    a free product is CSA iff every factor is: one not-csa piece decides,
    all csa* pieces make it csa*, anything else is unknown.  The tag is
    the deciding piece's (for csa*, the first piece's that has one)."""
    verdicts = [_piece_csa_verdict(piece) for piece in _pieces(gog)]
    for verdict, tag in verdicts:
        if verdict == "not-csa":
            return verdict, tag
    if all(verdict == "csa*" for verdict, _tag in verdicts):
        return "csa*", next((tag for _v, tag in verdicts if tag), None)
    return "unknown", None


def _pieces(gog):
    """The edge lists of the subtrees left when the tree is cut at its
    trivial edges, those with no pair, in the order of their first
    vertices; a vertex left alone gives an empty list."""
    kept = [e for e in gog.edges if e.gens]
    label, _ = _components(gog.vertices, kept)
    return [[e for e in kept if label[e.src] == i]
            for i in sorted(set(label.values()))]


def _piece_csa_verdict(edges):
    """(verdict, tag) of the tree of free groups on these edges, none of
    them trivial: with no edge it is a vertex alone, free, so csa*."""
    if not edges:
        return "csa*", None
    if not all(len(e.gens) == 1 for e in edges):
        return "unknown", None

    edge_data = [(e, words.is_maximal_abelian_in_free(e.gens[0]),
                  words.is_maximal_abelian_in_free(e.images[0]))
                 for e in edges]

    if len(edge_data) == 1:
        # G *_{u = v} H is csa* iff u or v is maximal abelian
        _e, src_max, dst_max = edge_data[0]
        if src_max or dst_max:
            return "csa*", "Thm-amalgiff"
        return "not-csa", "Prop-MustMax"

    if all(src_max and dst_max for (_e, src_max, dst_max) in edge_data):
        return "csa*", "Prop-TreeProdAb"

    if _is_oriented_line(edges) and all(src_max for (_e, src_max, _d)
                                        in edge_data):
        return "csa*", "Thm-GraphGroups"

    # two coincident maximal abelian edge groups at a common initial
    # vertex, with neither image maximal abelian
    for i, (e1, s1, d1) in enumerate(edge_data):
        for (e2, s2, d2) in edge_data[i + 1:]:
            if e1.src != e2.src or not (s1 and s2) or d1 or d2:
                continue
            u1 = e1.gens[0]
            # maximal cyclic subgroups of a free group are malnormal, so
            # <u1> and <u2> meet only when equal: when u2 = u1^+-1
            if e2.gens[0] in (u1, inverse(u1)):
                return "not-csa", "Prop-BadTree"
    return "unknown", None
