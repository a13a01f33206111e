"""The benchmark's three workloads: seeded inputs, queries and reference
checks.

``generate(workload, seed, goldens)`` makes every input from the seed as
plain tuples and strings, without touching csakit.  ``build(workload,
data, m)`` turns them into queries against the csakit modules in ``m``;
that is the set-up the benchmark times as ``setup_s``, since it builds
each presentation, spec and parsed source.  A query is one call into the
library or into ``cli.run``; queries look csakit functions up when they
run, so the traced run sees every call.  A query's reference check runs
after the pass, outside the timed region.
"""

import json
import random

from bench_ref import (FoldedGraph, cyclic_hnn_class, inverse, product,
                       reduce_word)

WORKLOADS = ("falsify", "subgroups", "wordproblem")

EX1 = "< x1, x2, x3, t | t^-1 x1 t = x2, t^-1 x2 t = x1 x3 >"
AMALGAM = "amalgam(< a, b >, < c, d >; a ~ c^2)"

# which workload replays each golden fixture, by command
FIXTURE_WORKLOAD = {
    "falsify-csa": "falsify", "falsify-ct": "falsify",
    "classify": "falsify", "verify-obstacle": "falsify",
    "check-malnormal": "subgroups", "check-separated": "subgroups",
    "check-strict-separated": "subgroups", "gog-check": "subgroups",
    "reduce": "wordproblem", "abelianize": "wordproblem",
    "resp-obstruction": "wordproblem",
}

# -- falsify: sizes --------------------------------------------------------
# (base rank, a generator, b generator, classifier case, CSA verdict)
QUADRANTS = [
    (2, (1,), (2,), "CASE1-SEPARATED", "csa*"),
    (2, (1,), (1,), "CASE2-CENTRALIZER-EXT", "csa*"),
    (1, (1,), (-1,), "CASE3", "not-csa"),
    (1, (1,), (1, 1), "CASE4", "not-csa"),
]
# lengths of u, v for the csa* extensions t^-1 u t = v of F2, whose
# searches scan the whole ball; their falsify_csa calls hold latency_p90
FULL_LENGTHS = [(2, 2), (2, 3), (3, 2), (3, 3)] * 3
# extensions t^-1 u t = u^k with u a letter: a CSA witness (u, t) sits at
# the start of the ball, so falsify_csa exits early.  They are more than
# half the queries, so latency_p50 falls among them; three in four use
# u = x2^+-1 so that the median lies inside that cluster.  The letter, its
# sign (which decides how many rows the search scans first) and k cycle
# through fixed lists and the seed only shuffles them, so each seed has
# the same mix; every eighth one also gets falsify_ct.
EARLY_COUNT = 64
EARLY_EXPONENTS = (-3, -2, -1, 2, 3)
EARLY_CT_EVERY = 8

# -- subgroups: sizes ------------------------------------------------------
# total generator length per subgroup of F3, about its core-graph size.
# The small ones are many and of similar size, so latency_p90 falls inside
# their cluster of fiber products rather than between size classes.
SMALL_LENGTHS = [30 + (20 * i) // 23 for i in range(24)]
MEDIUM_LENGTHS = [100, 150, 200, 250]
LARGE_LENGTHS = [300, 400]
MEMBER_FACTORS = 3              # generators per member word
RANDOM_READ_LENGTHS = [8, 20]   # random words read through each graph
GOG_COUNT = 6

# -- wordproblem: sizes ----------------------------------------------------


def _ladder(low, high, steps):
    """Geometric sizes from low to high."""
    return [round(low * (high / low) ** (i / (steps - 1)))
            for i in range(steps)]


# ladders of sizes with close steps, so that many queries of similar cost
# surround the latency percentiles
EQUALITY_TLENGTHS = _ladder(100, 2000, 16)
KEY_TLENGTHS = _ladder(100, 1000, 10)
FC_LENGTHS = _ladder(500, 2000, 7)
FPC_LENGTHS = [500, 1000, 2000]
FPC_ORDERS = (2, 3, 0)
POWER_EXPONENTS = [250, 500, 1000, 2000, 4000]


class Query:
    """One timed call.  ``run(results)`` gets the results of the pass's
    earlier queries; ``check(result, results)`` returns an error message
    or None; ``summary(result)`` is what the output digest covers.
    ``seeded`` marks queries whose inputs depend on the seed."""

    __slots__ = ("cls", "run", "check", "summary", "seeded")

    def __init__(self, cls, run, check, summary, seeded=True):
        self.cls = cls
        self.run = run
        self.check = check
        self.summary = summary
        self.seeded = seeded


def generate(workload, seed, goldens):
    """Every input of the workload, made from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    fixtures = [fx for fx in goldens
                if FIXTURE_WORKLOAD[fx["command"]] == workload]
    gen = {"falsify": _gen_falsify, "subgroups": _gen_subgroups,
           "wordproblem": _gen_wordproblem}[workload]
    data = gen(rng)
    data["fixtures"] = fixtures
    return data


def build(workload, data, m):
    """Queries of the workload against the csakit modules in ``m``."""
    queries = [_fixture_query(m, fx) for fx in data["fixtures"]]
    add_queries = {"falsify": _build_falsify, "subgroups": _build_subgroups,
                   "wordproblem": _build_wordproblem}[workload]
    add_queries(data, m, queries)
    return queries


# -- shared helpers --------------------------------------------------------


def _random_word(rng, length, rank, cyclic=False):
    """Uniform freely reduced word (cyclically reduced if asked)."""
    letters = [g * s for g in range(1, rank + 1) for s in (1, -1)]
    while True:
        w = []
        while len(w) < length:
            l = rng.choice(letters)
            if not (w and w[-1] == -l):
                w.append(l)
        if not cyclic or length < 2 or w[0] != -w[-1]:
            return tuple(w)


def _fixture_query(m, fx):
    expect = fx["expect"]

    def run(results):
        return m.cli.run(fx["command"], fx.get("source", ""),
                         fx.get("flags", {}))

    def check(result, results):
        report, code = result
        got = {"verdict": report.verdict, "witnesses": report.witnesses,
               "citations": report.citations, "exit": code}
        bad = [k for k in expect if got[k] != expect[k]]
        if bad:
            return f"fixture {fx['name']}: {bad} differ from the golden"
        return None

    def summary(result):
        report, code = result
        return json.dumps([report.verdict, report.witnesses,
                           report.citations, code], sort_keys=True)

    return Query(f"fixture:{fx['name']}", run, check, summary, seeded=False)


# -- falsify ---------------------------------------------------------------


def _gen_falsify(rng):
    full = []
    for lu, lv in FULL_LENGTHS:
        while True:
            u = _random_word(rng, lu, 2)
            v = _random_word(rng, lv, 2)
            if cyclic_hnn_class(u, v) == "csa*":
                break
        full.append((u, v))
    early = []
    for i in range(EARLY_COUNT):
        u = ((2 if i % 4 else 1) * (1 if i % 8 < 4 else -1),)
        k = EARLY_EXPONENTS[i % len(EARLY_EXPONENTS)]
        early.append((u, u * k if k > 0 else inverse(u) * -k,
                      i % EARLY_CT_EVERY == EARLY_CT_EVERY - 1))
    family = [(u, v, "csa*", True) for u, v in full] + \
        [(u, v, "not-csa", with_ct) for u, v, with_ct in early]
    rng.shuffle(family)
    return {"family": family}


def _build_falsify(data, m, queries):
    HnnSpec = m.wpengine.HnnSpec
    Hnn = m.hnn.HnnPresentation

    for rank, a, b, case, csa in QUADRANTS:
        spec = HnnSpec(Hnn(rank, [a], [b]))
        queries.append(_search_query(
            m, f"quadrant-r4:{case}", "csa", spec, 4, csa, case=case,
            seeded=False))
    ex1 = m.cli.parse_source(EX1).spec
    queries.append(_search_query(m, "ex1-r3:falsify_ct", "ct", ex1, 3, None,
                                 seeded=False))
    amalgam = m.cli.parse_source(AMALGAM).spec
    # a ~ c^2 with a maximal abelian in <a, b>: csa* (Thm-amalgiff)
    queries.append(_search_query(m, "amalgam-r3:falsify_ct", "ct", amalgam,
                                 3, "csa*", seeded=False))
    for u, v, csa, with_ct in data["family"]:
        spec = HnnSpec(Hnn(2, [u], [v]))
        kind = "full" if csa == "csa*" else "early"
        queries.append(_search_query(m, f"family-{kind}:falsify_csa", "csa",
                                     spec, 3, csa))
        if with_ct:
            queries.append(_search_query(m, f"family-{kind}:falsify_ct",
                                         "ct", spec, 3, csa))


def _search_query(m, cls, kind, spec, radius, csa, case=None, seeded=True):
    """falsify_csa or falsify_ct on an HNN or amalgam spec.  ``csa`` is the
    known verdict ("csa*", "not-csa" or None when unknown); ``case`` the
    expected classifier case of a cyclic-edge extension."""
    if kind == "csa":
        def run(results):
            return m.csa.falsify_csa(spec, radius)
    else:
        def run(results):
            return m.csa.falsify_ct(spec, radius)

    def check(result, results):
        if result is not None:
            verify = m.csa.verify_csa_witness if kind == "csa" \
                else m.csa.verify_ct_witness
            if not verify(result, spec):
                return f"{cls}: witness {result} does not verify"
            if csa == "csa*":
                return f"{cls}: witness {result} in a csa* group"
        elif csa == "not-csa" and kind == "csa":
            # (u, t) is a witness inside the ball, so the search must hit
            return f"{cls}: no CSA witness in a not-csa group"
        if isinstance(spec, m.wpengine.HnnSpec) and csa is not None:
            got = m.hnn.classify_abelian_hnn(spec.pres)
            if got.csa != csa or (case is not None and got.case != case):
                return f"{cls}: classified {got.case} {got.csa}"
        return None

    def summary(result):
        if result is None:
            return "none"
        if kind == "csa":
            return repr((result.a, result.v))
        return repr((result.a, result.b, result.c))

    return Query(cls, run, check, summary, seeded)


# -- subgroups -------------------------------------------------------------


def _gen_subgroup(rng, total, count):
    """``count`` random generators of F3 with about ``total`` letters."""
    sizes = [total // count + (i < total % count) for i in range(count)]
    return [_random_word(rng, max(1, s), 3) for s in sizes]


def _member_word(rng, gens):
    """A product of MEMBER_FACTORS generators and inverses, without
    adjacent cancelling pairs."""
    picks = []
    while len(picks) < MEMBER_FACTORS:
        p = rng.randrange(len(gens)) + 1
        p = p if rng.random() < 0.5 else -p
        if not (picks and picks[-1] == -p):
            picks.append(p)
    return product(*(gens[p - 1] if p > 0 else inverse(gens[-p - 1])
                     for p in picks))


def _gen_subgroups(rng):
    slots = []
    sizes = [("small", n) for n in SMALL_LENGTHS] + \
        [("medium", n) for n in MEDIUM_LENGTHS] + \
        [("large", n) for n in LARGE_LENGTHS]
    for i, (size, total) in enumerate(sizes):
        gens = _gen_subgroup(rng, total, 2 + i % 3)
        if size == "small" and i % 2 == 0:
            # a proper power makes the subgroup fail malnormality, so the
            # closure has joins to do
            root = _random_word(rng, rng.randint(2, 3), 3, cyclic=True)
            gens[-1] = root + root
        other = _gen_subgroup(rng, max(2, total // 2), 1 + i % 3)
        members = [_member_word(rng, gens)
                   for _ in range(len(RANDOM_READ_LENGTHS))]
        randoms = [_random_word(rng, n, 3) for n in RANDOM_READ_LENGTHS]
        vertices, _ = FoldedGraph(gens).core_size()
        slots.append({"size": size, "gens": gens, "other": other,
                      "reads": members + randoms, "vertices": vertices})
    gogs = []
    for _ in range(GOG_COUNT):
        names = ["u", "v", "w"][:rng.randint(2, 3)]
        edges = []
        for j in range(1, len(names)):
            src = names[rng.randrange(j)]
            edges.append((src, names[j]))
        loop = rng.random() < 0.5
        if loop:
            node = rng.choice(names)
            edges.append((node, node))
        gogs.append({
            "vertices": {nm: 2 for nm in names},
            "edges": [(s, d, (_random_word(rng, rng.randint(1, 3), 2),),
                       (_random_word(rng, rng.randint(1, 3), 2),))
                      for s, d in edges],
            "tree": not loop})
    return {"slots": slots, "gogs": gogs}


def _bucket(vertices):
    if vertices < 64:
        return "v<64"
    if vertices < 200:
        return "v64-199"
    return "v>=200"


def _build_subgroups(data, m, queries):
    for slot in data["slots"]:
        _subgroup_queries(m, slot, queries)
    for gog in data["gogs"]:
        g = m.amalgam.GraphOfGroups(
            dict(gog["vertices"]),
            [m.amalgam.GogEdge(s, d, gens, ims)
             for s, d, gens, ims in gog["edges"]])
        queries.append(Query("gog_predicates",
                             lambda results, g=g: m.amalgam.gog_predicates(g),
                             _check_gog, _summary_gog))
        if gog["tree"]:
            queries.append(Query(
                "fundamental_group_presentation",
                lambda results, g=g:
                    m.amalgam.fundamental_group_presentation(g),
                _tree_checker(gog),
                lambda r: repr((r.relators, r.csa, r.citation))))


def _subgroup_queries(m, slot, queries):
    gens = [w for w in (reduce_word(g) for g in slot["gens"]) if w]
    other = slot["other"]
    ref = _reference_graph(gens)
    ref_other = _reference_graph(other)
    bucket = _bucket(slot["vertices"])
    i_h = len(queries)

    def graph_summary(graph):
        return f"{graph.num_vertices},{graph.num_edges}"

    def check_fold(reference, words):
        def check(graph, results):
            size = reference().core_size()
            if (graph.num_vertices, graph.num_edges) != size:
                return f"fold: size {graph_summary(graph)} != reference {size}"
            if not all(graph.member(w) for w in words):
                return "fold: a generator is not a member"
            return None
        return check

    queries.append(Query(f"fold:{bucket}",
                         lambda results: m.stallings.fold(gens, 3),
                         check_fold(ref, gens), graph_summary))
    i_k = len(queries)
    queries.append(Query(f"fold:{bucket}",
                         lambda results: m.stallings.fold(other, 3),
                         check_fold(ref_other, other), graph_summary))

    for w in slot["reads"]:
        w = reduce_word(w)

        def check_member(result, results, w=w):
            return None if result == ref().member(w) else \
                "member: wrong answer"

        def check_express(expr, results, w=w):
            inside = ref().member(w)
            if expr is None:
                return "express: member not expressed" if inside else None
            if not inside:
                return "express: expressed a non-member"
            back = product(*(gens[p - 1] if p > 0 else inverse(gens[-p - 1])
                             for p in expr))
            return None if back == w else "express: does not reproduce word"

        def check_coset(rep, results, w=w):
            if not ref().member(product(w, inverse(rep))):
                return "coset_rep: not in the coset of the word"
            return None

        queries.append(Query("member", lambda results, w=w:
                             results[i_h].member(w), check_member, repr))
        queries.append(Query("express", lambda results, w=w:
                             results[i_h].express(w), check_express,
                             lambda r: "none" if r is None else "expr"))
        queries.append(Query("coset_rep", lambda results, w=w:
                             results[i_h].coset_rep(w), check_coset, repr))

    def check_malnormal(report, results):
        if report.verdict:
            return None
        g, h = report.witness
        r = ref()
        if h and r.member(h) and r.member(product(inverse(g), h, g)) \
                and not r.member(g):
            return None
        return f"is_malnormal: witness {report.witness} does not verify"

    def check_conj(result, results):
        ok, wit = result
        if ok:
            return None
        g, h = wit
        if h and ref().member(h) and \
                ref_other().member(product(g, h, inverse(g))):
            return None
        return f"conj_intersection_trivial: witness {wit} does not verify"

    queries.append(Query(f"is_malnormal:{bucket}",
                         lambda results: m.stallings.is_malnormal(results[i_h]),
                         check_malnormal,
                         lambda r: repr((r.verdict, r.witness))))
    queries.append(Query(
        f"conj_intersection_trivial:{bucket}",
        lambda results: m.stallings.conj_intersection_trivial(results[i_h],
                                                              results[i_k]),
        check_conj, repr))
    if slot["size"] == "small":
        def check_closure(closure, results):
            closed = FoldedGraph(closure.generators)
            if not all(closed.member(g) for g in gens):
                return "malnormal_closure: lost a generator"
            if not m.stallings.is_malnormal(closure).verdict:
                return "malnormal_closure: result is not malnormal"
            return None

        queries.append(Query(
            f"malnormal_closure:{bucket}",
            lambda results: m.stallings.malnormal_closure(results[i_h]),
            check_closure, lambda c: repr(c.generators)))


def _reference_graph(gens):
    """The reference folding of ``gens``, built on first use, which is in
    a check and so outside both the timed region and the set-up."""
    built = []

    def get():
        if not built:
            built.append(FoldedGraph(gens))
        return built[0]

    return get


def _tree_checker(gog):
    """One generator per vertex-group generator and one relator per
    edge-group generator."""
    gens = sum(gog["vertices"].values())
    rels = sum(len(e[2]) for e in gog["edges"])

    def check(pres, results):
        if (len(pres.generator_names), len(pres.relators)) != (gens, rels):
            return "fundamental_group_presentation: wrong generator or " \
                   "relator count"
        return None

    return check


def _check_gog(report, results):
    def agg(vals):
        if any(v is False for v in vals):
            return False
        if any(v is None for v in vals):
            return None
        return True

    edges = list(report.per_edge.values())
    quasi = agg([e.malnormal_in_src for e in edges] +
                [e.normal_in_closure for e in edges])
    if report.quasi_malnormal != quasi:
        return "gog_predicates: quasi-malnormal disagrees with its edges"
    if report.malnormal != agg([quasi] + [e.malnormal_in_dst for e in edges]):
        return "gog_predicates: malnormal disagrees with its edges"
    return None


def _summary_gog(report):
    return repr((report.quasi_malnormal, report.malnormal, report.separated,
                 [(k, e.malnormal_in_src, e.normal_in_closure,
                   e.malnormal_in_dst, e.separated, e.witness)
                  for k, e in sorted(report.per_edge.items())]))


# -- wordproblem -----------------------------------------------------------
# EX1: x1, x2, x3 = 1..3, t = 4; relators t^-1 x1 t x2^-1, t^-1 x2 t (x1 x3)^-1
EX1_T = 4
EX1_RELATORS = [(-4, 1, 4, -2), (-4, 2, 4, -3, -1)]
# AMALGAM: a, b = 1, 2 (left), c, d = 3, 4 (right); relator a c^-2
AMALGAM_RELATORS = [(1, -3, -3)]
# free-by-cyclic: x = 1, y = 2, d = 3 with y x y^-1 = x d^-1, y d y^-1 = d
FBC_REWRITES = {1: (-2, 1, -3, 2), -1: (-2, 3, -1, 2), 3: (-2, 3, 2),
                -3: (-2, -3, 2)}


def _ex1_word(rng, t_length):
    out = []
    for _ in range(t_length):
        out.extend(_random_word(rng, rng.randint(0, 2), 3))
        out.append(EX1_T * rng.choice((1, -1)))
    out.extend(_random_word(rng, rng.randint(0, 2), 3))
    return reduce_word(out)


def _amalgam_word(rng, syllables):
    """Alternating left (a, b) and right (c, d) syllables; each left
    syllable adds two stable letters to the image in the HNN extension."""
    out = []
    for i in range(2 * syllables):
        w = _random_word(rng, rng.randint(1, 3), 2)
        out.extend(w if i % 2 == 0 else tuple(l + 2 * (1 if l > 0 else -1)
                                              for l in w))
    return reduce_word(out)


def _insert_relators(rng, word, relators, rate):
    """The same element: conjugates of relators spliced in between
    letters."""
    out = []
    for l in word:
        out.append(l)
        if rng.random() < rate:
            r = rng.choice(relators)
            out.extend(r if rng.random() < 0.5 else inverse(r))
    return reduce_word(out)


def _rewrite(rng, word, rules, rate):
    """The same element: letters replaced by equal words."""
    out = []
    for l in word:
        if l in rules and rng.random() < rate:
            out.extend(rules[l])
        else:
            out.append(l)
    return reduce_word(out)


def _perturb(word, letter):
    """A different element: one more ``letter`` changes an exponent sum
    that every relator keeps.  It goes in front, so that u v^-1 still
    cancels all the way down before the extra letter stops it and the
    cost does not depend on where a random insertion fell."""
    return reduce_word((letter,) + word)


def _fc_word(rng, length):
    """Random word over x, y, d whose prefixes keep the y-exponent in
    [-2, 2], so the twisted fiber word grows linearly with the length."""
    out, k = [], 0
    while len(out) < length:
        l = rng.choice((1, -1, 3, -3, 2, -2))
        if abs(l) == 2 and abs(k + (1 if l > 0 else -1)) > 2:
            continue
        if out and out[-1] == -l:
            continue
        out.append(l)
        if abs(l) == 2:
            k += 1 if l > 0 else -1
    return tuple(out)


def _ex1_pair(rng, t_length):
    u = _ex1_word(rng, t_length)
    v = _rewrite(rng, u, {2: (-4, 1, 4), -2: (-4, -1, 4)}, 0.5)
    v = _insert_relators(rng, v, EX1_RELATORS, 0.05)
    return u, v, _perturb(v, EX1_T)


def _amalgam_pair(rng, t_length):
    u = _amalgam_word(rng, t_length // 2)
    v = _rewrite(rng, u, {1: (3, 3), -1: (-3, -3)}, 0.5)
    v = _insert_relators(rng, v, AMALGAM_RELATORS, 0.05)
    return u, v, _perturb(v, 2)


def _gen_wordproblem(rng):
    equality = []
    for i, t_length in enumerate(EQUALITY_TLENGTHS):
        for group, pair in (("ex1", _ex1_pair), ("amalgam", _amalgam_pair)):
            # u v^-1 has about twice the stable letters of u
            u, v, w = pair(rng, t_length // 2)
            equality.append((group, t_length, u, v, w, i % 2 == 0))
    keys = []
    for t_length in KEY_TLENGTHS:
        for group, pair in (("ex1", _ex1_pair), ("amalgam", _amalgam_pair)):
            keys.append((group, t_length) + pair(rng, t_length))
    fc = []
    for n in FC_LENGTHS:
        u = _fc_word(rng, n)
        v = _rewrite(rng, u, FBC_REWRITES, 0.2)
        fc.append((n, u, v, _perturb(v, 1)))
    fpc = []
    for n in FPC_LENGTHS:
        u = _random_word(rng, n, 3)
        v = _insert_relators(rng, u, [(1, 1), (2, 2, 2)], 0.1)
        fpc.append((n, u, v, _perturb(v, 3)))
    return {"equality": equality, "keys": keys, "fc": fc, "fpc": fpc}


def _build_wordproblem(data, m, queries):
    specs = {"ex1": m.cli.parse_source(EX1).spec,
             "amalgam": m.cli.parse_source(AMALGAM).spec}
    wp = m.wpengine
    for group, t_length, u, v, w, trivial_first in data["equality"]:
        spec = specs[group]
        same, other = (v, w) if trivial_first else (w, v)
        uv = product(u, inverse(same))
        queries.append(_known_query(
            f"is_trivial:{group}", trivial_first,
            lambda results, uv=uv, spec=spec: wp.is_trivial(uv, spec)))
        queries.append(_known_query(
            f"equal:{group}", not trivial_first,
            lambda results, u=u, o=other, spec=spec: wp.equal(u, o, spec)))
    for group, t_length, u, v, w in data["keys"]:
        spec = specs[group]
        _triple_queries(queries, f"canonical_key:{group}",
                        lambda x, spec=spec: wp.canonical_key(x, spec),
                        u, v, w)
    for n, u, v, w in data["fc"]:
        _triple_queries(queries, "fc_normal_form",
                        lambda x: wp.fc_normal_form(x), u, v, w)
    for n, u, v, w in data["fpc"]:
        _triple_queries(queries, "fpc_normal_form",
                        lambda x: wp.fpc_normal_form(x, FPC_ORDERS), u, v, w)
    for n in POWER_EXPONENTS:
        expected = f"x1^{n}"

        def check(result, results, expected=expected):
            report, code = result
            if (report.verdict, code) != (expected, 0):
                return f"reduce x1^N: got {report.verdict!r}, exit {code}"
            return None

        queries.append(Query(
            f"reduce-x1^{n}",
            lambda results, n=n: m.cli.run("reduce", "< x1, x2 >",
                                           {"word": f"x1^{n}"}),
            check, lambda r: r[0].verdict, seeded=False))


def _known_query(cls, expected, run):
    def check(result, results):
        return None if result is expected else \
            f"{cls}: got {result}, known {expected} by construction"

    return Query(cls, run, check, repr)


def _triple_queries(queries, cls, key, u, v, w):
    """key(u), key(v), key(w) with u = v known and v != w known; the checks
    compare the three keys."""
    i = len(queries)

    def check_same(result, results):
        return None if result == results[i] else f"{cls}: equal words, " \
                                                 "different keys"

    def check_other(result, results):
        return None if result != results[i] else f"{cls}: unequal words, " \
                                                 "same key"

    queries.append(Query(cls, lambda results: key(u), lambda r, rs: None,
                         repr))
    queries.append(Query(cls, lambda results: key(v), check_same, repr))
    queries.append(Query(cls, lambda results: key(w), check_other, repr))
