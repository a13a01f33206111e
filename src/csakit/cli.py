"""Command line front end: presentation parser, verdict commands, JSON
reports, and the bundled golden-fixture suite.

Grammar (ASCII, whitespace insensitive)::

    group    := '<' gens ('|' relators)? '>'
              | 'hnn' '(' free ';' NAME '->' NAME 'via' word '->' word
                          (',' word '->' word)* ')'
              | 'amalgam' '(' free ',' free ';' word '~' word
                          (',' word '~' word)* ')'
              | 'fbc' '(' ')'
              | 'gog' '{' (vertex | edge)* '}'
    free     := '<' gens '>'
    vertex   := 'vertex' NAME '=' free ';'
    edge     := 'edge' NAME '->' NAME ':' word '~' word
                          (',' word '~' word)* ';'
    relator  := word ('=' word)?
    word     := atom+ | '1'
    atom     := NAME ('^' INT)? | '[' word ',' word ']' ('^' INT)?
              | '(' word ')' ('^' INT)?
    sub      := 'sub' NAME '=' '{' word (',' word)* '}'

Relators over an angle-bracket presentation resolve to a free group (no
relators), a free product of cyclics (single-generator power relators), or
an HNN extension (each relator uses the last generator exactly twice with
opposite signs).
"""

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field, fields
from functools import partial
from importlib import resources
from itertools import chain, count
from math import gcd

from . import amalgam as amalgam_mod
from . import csa as csa_mod
from . import hnn as hnn_mod
from . import stallings, wpengine
from .amalgam import AmalgamPresentation, GogEdge, GraphOfGroups
from .csa import DEFAULT_RADIUS
from .errors import (CLOSURE_CAP, NESTING_LIMIT, CsakitError, ParseError,
                     UnsupportedShapeError, check_budget)
from .hnn import HnnPresentation
from .words import concat, cyclic_reduce, free_reduce, inverse, power
from .wpengine import (AmalgamSpec, FreeByCyclicSpec, FreeProductCyclicsSpec,
                       FreeSpec, HnnSpec)

# the errors that mean rejected input: main exits 2 on them and repro
# records them as a fixture's mismatch
INPUT_ERRORS = (CsakitError, ValueError, OSError)

KEYWORDS = {"sub", "hnn", "amalgam", "fbc", "gog", "vertex", "edge", "via"}

CASE_CITATIONS = {
    hnn_mod.CASE1_SEPARATED: "Thm-SepExt",
    hnn_mod.CASE2_CENTRALIZER_EXT: "Prop-ConjExt",
    hnn_mod.CASE3: "Prop-TFObstacles",
    hnn_mod.CASE4: "Prop-TFObstacles",
    hnn_mod.NOT_MAXIMAL_A: "Prop-MustMax",
}


# -- tokens ------------------------------------------------------------------


@dataclass
class Token:
    kind: str   # name | int | sym | arrow | end
    value: str
    pos: int


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<arrow>->)"
    r"|(?P<int>-?\d+)"
    r"|(?P<sym>[<>|,=^{}();:~\[\]])")


def tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        out.append(Token(m.lastgroup, m.group(), m.start()))
    out.append(Token("end", "", len(text)))
    return out


# -- parsed source -----------------------------------------------------------


@dataclass
class ParsedSource:
    kind: str                 # free | fpc | hnn | amalgam | fbc | gog
    spec: object = None       # wpengine GroupSpec (None for gog)
    names: list = field(default_factory=list)
    relators: list = field(default_factory=list)  # reduced relator words
    subs: dict = field(default_factory=dict)      # name -> list of words
    gog: object = None
    vertex_names: dict = field(default_factory=dict)
    factor_names: tuple = ()  # amalgam: (left names, right names)
    subgroup_names: tuple = ("A", "B")  # hnn: the names of A and B

    @property
    def name_map(self):
        return letters_of(self.names)


def letters_of(names):
    """Generator name -> letter, 1 for the first name."""
    return {nm: i + 1 for i, nm in enumerate(names)}


def stable_name(names):
    """The name of a stable letter added to the generator names: the
    first of t, s, u, t1, t2, ... that is not one of them."""
    return next(nm for nm in chain(("t", "s", "u"),
                                   (f"t{i}" for i in count(1)))
                if nm not in names)


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.value!r}",
                             tok.pos)
        return self.advance()

    def at_sym(self, value):
        tok = self.peek()
        return tok.kind == "sym" and tok.value == value

    def at_keyword(self, word):
        tok = self.peek()
        return tok.kind == "name" and tok.value == word

    # words

    def parse_word(self, name_map, depth=0):
        tok = self.peek()
        check_budget(depth, NESTING_LIMIT,
                     f"a word nested in {{}} brackets (at position {tok.pos})")
        if tok.kind == "int" and tok.value == "1":
            self.advance()
            return ()
        letters = []
        consumed = False
        while True:
            tok = self.peek()
            if tok.kind == "name" and tok.value in name_map:
                self.advance()
                atom = (name_map[tok.value],)
            elif tok.kind == "name" and tok.value not in KEYWORDS:
                raise ParseError(f"unknown generator {tok.value!r}", tok.pos)
            elif tok.kind == "sym" and tok.value == "[":
                self.advance()
                u = self.parse_word(name_map, depth + 1)
                self.expect("sym", ",")
                v = self.parse_word(name_map, depth + 1)
                self.expect("sym", "]")
                check_budget(2 * (len(u) + len(v)))
                atom = concat(inverse(u), inverse(v), u, v)
            elif tok.kind == "sym" and tok.value == "(":
                self.advance()
                atom = self.parse_word(name_map, depth + 1)
                self.expect("sym", ")")
            else:
                break
            if self.at_sym("^"):
                self.advance()
                e = int(self.expect("int").value)
                c = cyclic_reduce(atom)[0]
                check_budget(len(atom) - len(c) + len(c) * abs(e))
                atom = power(atom, e)
            check_budget(len(letters) + len(atom))
            letters.extend(atom)
            consumed = True
        if not consumed:
            raise ParseError("expected a word", self.peek().pos)
        return free_reduce(letters)

    def parse_word_list(self, name_map):
        out = [self.parse_word(name_map)]
        while self.at_sym(","):
            self.advance()
            out.append(self.parse_word(name_map))
        return out

    def parse_pairs(self, left_map, right_map, *sep):
        """word sep word (',' word sep word)* -> (left words, right words),
        where sep is the kind and value of the separator token."""
        lefts, rights = [], []
        while True:
            lefts.append(self.parse_word(left_map))
            self.expect(*sep)
            rights.append(self.parse_word(right_map))
            if not self.at_sym(","):
                return lefts, rights
            self.advance()

    # presentations

    def parse_angle(self):
        """'<' names ('|' relators)? '>' -> (names, relator words)."""
        self.expect("sym", "<")
        names = []
        while True:
            tok = self.expect("name")
            if tok.value in KEYWORDS:
                raise ParseError(f"reserved generator name {tok.value!r}",
                                 tok.pos)
            if tok.value in names:
                raise ParseError(f"duplicate generator name {tok.value!r}",
                                 tok.pos)
            names.append(tok.value)
            if not self.at_sym(","):
                break
            self.advance()
        name_map = letters_of(names)
        relators = []
        if self.at_sym("|"):
            self.advance()
            while not self.at_sym(">"):
                lhs = self.parse_word(name_map)
                if self.at_sym("="):
                    self.advance()
                    rhs = self.parse_word(name_map)
                    lhs = concat(lhs, inverse(rhs))
                if lhs:
                    relators.append(lhs)
                if self.at_sym(","):
                    self.advance()
                else:
                    break
        self.expect("sym", ">")
        return names, relators

    def parse_free(self, what):
        """'<' names '>' -> names; any other group raises a ParseError at
        its first token naming what must be free."""
        pos = self.peek().pos
        if self.at_sym("<"):
            names, relators = self.parse_angle()
            if not relators:
                return names
        raise ParseError(f"{what} must be free", pos)

    def parse_group(self):
        if self.at_sym("<"):
            names, relators = self.parse_angle()
            return resolve_presentation(names, relators)
        if self.at_keyword("hnn"):
            return self.parse_hnn()
        if self.at_keyword("amalgam"):
            return self.parse_amalgam()
        if self.at_keyword("fbc"):
            self.advance()
            self.expect("sym", "(")
            self.expect("sym", ")")
            return ParsedSource("fbc", FreeByCyclicSpec(),
                                ["x", "y", "d"])
        if self.at_keyword("gog"):
            return self.parse_gog()
        tok = self.peek()
        raise ParseError(f"expected a group, found {tok.value!r}", tok.pos)

    def parse_hnn(self):
        self.advance()
        self.expect("sym", "(")
        base = self.parse_free("hnn base")
        self.expect("sym", ";")
        a_name = self.expect("name").value
        self.expect("arrow")
        b_name = self.expect("name")
        if b_name.value == a_name:
            raise ParseError(f"duplicate subgroup name {a_name!r}",
                             b_name.pos)
        if not self.at_keyword("via"):
            raise ParseError("expected 'via'", self.peek().pos)
        self.advance()
        name_map = letters_of(base)
        a_gens, b_gens = self.parse_pairs(name_map, name_map, "arrow")
        self.expect("sym", ")")
        pres = HnnPresentation(len(base), a_gens, b_gens)
        src = ParsedSource("hnn", HnnSpec(pres), base + [stable_name(base)])
        src.subs = {a_name: a_gens, b_name.value: b_gens}
        src.subgroup_names = (a_name, b_name.value)
        t = len(base) + 1
        src.relators = [concat((-t,), a, (t,), inverse(b))
                        for a, b in zip(pres.a_gens, pres.b_gens)]
        return src

    def parse_amalgam(self):
        self.advance()
        self.expect("sym", "(")
        left = self.parse_free("amalgam factors")
        self.expect("sym", ",")
        right = self.parse_free("amalgam factors")
        self.expect("sym", ";")
        a_gens, b_gens = self.parse_pairs(letters_of(left), letters_of(right),
                                          "sym", "~")
        self.expect("sym", ")")
        pres = AmalgamPresentation(len(left), len(right), a_gens, b_gens)
        names = list(left)
        for nm in right:
            while nm in names:
                nm += "_"
            names.append(nm)
        return ParsedSource("amalgam", AmalgamSpec(pres), names,
                            factor_names=(left, right))

    def parse_gog(self):
        self.advance()
        self.expect("sym", "{")
        vertex_names, edges = {}, []
        while not self.at_sym("}"):
            if self.at_keyword("vertex"):
                self.advance()
                tok = self.expect("name")
                if tok.value in vertex_names:
                    raise ParseError(
                        f"duplicate vertex name {tok.value!r}", tok.pos)
                self.expect("sym", "=")
                vertex_names[tok.value] = self.parse_free("vertex groups")
                self.expect("sym", ";")
            elif self.at_keyword("edge"):
                self.advance()
                src_v = self.expect("name").value
                self.expect("arrow")
                dst_v = self.expect("name").value
                self.expect("sym", ":")
                if src_v not in vertex_names or dst_v not in vertex_names:
                    raise ParseError("edge references an unknown vertex",
                                     self.peek().pos)
                gens, images = self.parse_pairs(
                    letters_of(vertex_names[src_v]),
                    letters_of(vertex_names[dst_v]), "sym", "~")
                edges.append(GogEdge(src_v, dst_v, tuple(gens),
                                     tuple(images)))
                self.expect("sym", ";")
            else:
                tok = self.peek()
                raise ParseError(
                    f"expected 'vertex' or 'edge', found {tok.value!r}",
                    tok.pos)
        self.expect("sym", "}")
        vertices = {v: len(names) for v, names in vertex_names.items()}
        return ParsedSource("gog", gog=GraphOfGroups(vertices, edges),
                            vertex_names=vertex_names)


def resolve_presentation(names, relators):
    n = len(names)
    if not relators:
        return ParsedSource("free", FreeSpec(n), names, relators)

    if all(len({abs(l) for l in r}) == 1 for r in relators):
        orders = [0] * n
        for r in relators:
            g = abs(r[0])
            e = abs(sum(1 if l > 0 else -1 for l in r))
            orders[g - 1] = gcd(orders[g - 1], e)
        return ParsedSource("fpc", FreeProductCyclicsSpec(tuple(orders)),
                            names, relators)

    # HNN shape: last generator is the stable letter, appearing in every
    # relator exactly twice with opposite signs
    t = n
    a_gens, b_gens = [], []
    for r in relators:
        occ = sorted(l for l in r if abs(l) == t)
        if occ != [-t, t]:
            # not a recognized construction; keep the raw presentation so
            # relator-level commands still work
            return ParsedSource("pres", None, names, relators)
        i = r.index(-t)
        r2 = r[i:] + r[:i]
        j = r2.index(t)
        a_gens.append(r2[1:j])
        b_gens.append(inverse(r2[j + 1:]))
    spec = HnnSpec(HnnPresentation(n - 1, a_gens, b_gens))
    return ParsedSource("hnn", spec, names, relators)


def parse_source(text):
    p = Parser(text)
    deferred = []
    src = None
    while p.peek().kind != "end":
        if p.at_keyword("sub"):
            p.advance()
            name = p.expect("name")
            p.expect("sym", "=")
            p.expect("sym", "{")
            deferred.append((name, p.i))
            # a sub block holds only words, so its first '}' ends it
            while not p.at_sym("}"):
                tok = p.advance()
                if tok.kind == "end":
                    raise ParseError("unterminated sub block", tok.pos)
            p.advance()
        elif src is None:
            src = p.parse_group()
        else:
            tok = p.peek()
            raise ParseError(f"unexpected {tok.value!r} after group",
                             tok.pos)
    if src is None:
        raise ParseError("no group in input", 0)
    end = p.i
    name_map = src.name_map
    for name, start in deferred:
        if name.value in src.subs:
            raise ParseError(f"duplicate subgroup name {name.value!r}",
                             name.pos)
        p.i = start
        src.subs[name.value] = p.parse_word_list(name_map)
        p.expect("sym", "}")
    p.i = end
    return src


# -- printing ----------------------------------------------------------------


def word_to_str(w, names):
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        l = w[i]
        j = i
        while j < len(w) and w[j] == l:
            j += 1
        e = (j - i) * (1 if l > 0 else -1)
        nm = names[abs(l) - 1]
        parts.append(nm if e == 1 else f"{nm}^{e}")
        i = j
    return " ".join(parts)


def render_source(src: ParsedSource):
    """Canonical text; parses back to an equivalent source."""
    # an hnn(...) header that renamed A and B is printed as a header, with
    # the pairs as its sub lists hold them, so that the names survive
    header = () if src.subgroup_names == ("A", "B") else src.subgroup_names
    if header:
        base = src.names[:-1]
        pairs = ", ".join(
            f"{word_to_str(a, base)} -> {word_to_str(b, base)}"
            for a, b in zip(*(src.subs[nm] for nm in header)))
        text = f"hnn(< {', '.join(base)} >; {' -> '.join(header)} via {pairs})"
    elif src.kind in ("free", "fpc", "hnn", "pres"):
        body = ", ".join(src.names)
        rels = [word_to_str(r, src.names) for r in src.relators]
        if rels:
            body += " | " + ", ".join(rels)
        text = f"< {body} >"
    elif src.kind == "fbc":
        text = "fbc()"
    elif src.kind == "amalgam":
        ln, rn = src.factor_names
        pres = src.spec.pres
        # a trivial amalgamated or edge subgroup has no pair left: 1 ~ 1
        pairs = ", ".join(
            f"{word_to_str(a, ln)} ~ {word_to_str(b, rn)}"
            for a, b in zip(pres.a_gens, pres.b_gens)) or "1 ~ 1"
        text = f"amalgam(< {', '.join(ln)} >, < {', '.join(rn)} >; {pairs})"
    else:   # gog
        parts = []
        for v, rank in src.gog.vertices.items():
            parts.append(f"vertex {v} = < {', '.join(src.vertex_names[v])} >;")
        for e in src.gog.edges:
            sn = src.vertex_names[e.src]
            dn = src.vertex_names[e.dst]
            pairs = ", ".join(f"{word_to_str(g, sn)} ~ {word_to_str(im, dn)}"
                              for g, im in zip(e.gens, e.images)) or "1 ~ 1"
            parts.append(f"edge {e.src} -> {e.dst} : {pairs};")
        text = "gog { " + " ".join(parts) + " }"
    for nm, gens in src.subs.items():
        if nm in header:
            continue
        text += f" sub {nm} = {{ " + \
            ", ".join(word_to_str(g, src.names) for g in gens) + " }"
    return text


# -- reports -----------------------------------------------------------------


@dataclass
class Report:
    verdict: str
    witnesses: list = field(default_factory=list)
    citations: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    # a violation witness or a failed check: run exits 1 on it; not printed
    violation: bool = False
    command: str = ""       # filled in by run
    timing: float = 0.0     # filled in by run

    def to_dict(self):
        return {"command": self.command, "verdict": self.verdict,
                "witnesses": self.witnesses, "citations": self.citations,
                "timing": self.timing, "details": self.details}

    def render(self, as_json=False):
        if as_json:
            return json.dumps(self.to_dict(), indent=2, sort_keys=True)
        lines = [f"command: {self.command}", f"verdict: {self.verdict}"]
        for w in self.witnesses:
            body = ", ".join(f"{k} = {v}" for k, v in w.items())
            lines.append(f"witness: {body}")
        if self.citations:
            lines.append("citations: " + ", ".join(self.citations))
        for k, v in self.details.items():
            lines.append(f"{k}: {v}")
        lines.append(f"time: {self.timing:.3f}s")
        return "\n".join(lines)


# -- command implementations -------------------------------------------------


def _cmd_reduce(src, flags):
    p = Parser(flags["word"])
    w = p.parse_word(src.name_map)
    if p.peek().kind != "end":
        raise ParseError("trailing input after word", p.peek().pos)
    # an amalgam's normal form also uses its extension's stable letter
    names = src.names + [stable_name(src.names)]
    return Report(word_to_str(src.spec.normal_word(w), names))


def _sep_witness(wit, names):
    g, h = wit
    return {"h": word_to_str(h, names), "g": word_to_str(g, names)}


def _cmd_check_malnormal(src, flags):
    """A and B of an hnn source, under the names an hnn(...) header
    gives them, then every sub block over the base under its own name
    but one that has A's or B's name and restates that subgroup's
    generators, as the header's do."""
    if src.kind == "hnn":
        pres = src.spec.pres
        targets = dict(zip(src.subgroup_names, (pres.A, pres.B)))
        restated = dict(zip(src.subgroup_names, (pres.a_gens, pres.b_gens)))
        names = src.names[:-1]
    elif src.subs:
        targets, names = {}, src.names
    else:
        raise CsakitError("check-malnormal needs sub blocks or an hnn source")
    for nm, gens in src.subs.items():
        if nm in targets:
            if tuple(g for g in gens if g) == restated[nm]:
                continue
            raise CsakitError(f"sub block {nm} is named like an "
                              "associated subgroup")
        if any(abs(l) > len(names) for g in gens for l in g):
            raise CsakitError(f"sub block {nm} uses the stable letter; "
                              "check-malnormal needs base words")
        targets[nm] = stallings.fold(gens, len(names))
    witnesses, details = [], {}
    for nm, graph in targets.items():
        rep = stallings.is_malnormal(graph)
        details[nm] = "malnormal" if rep.verdict else "not-malnormal"
        if rep.witness is not None:
            w = _sep_witness(rep.witness, names)
            w["subgroup"] = nm
            witnesses.append(w)
    ok = all(v == "malnormal" for v in details.values())
    return Report("malnormal" if ok else "not-malnormal", witnesses,
                  details=details, violation=not ok)


def _cmd_check_separated(src, flags, strict=False):
    pres = src.spec.pres
    rep = hnn_mod.is_strictly_separated(pres, flags["cap"]) if strict \
        else hnn_mod.is_separated(pres)
    witnesses = []
    if rep.witness is not None:
        witnesses.append(_sep_witness(rep.witness, src.names[:-1]))
    verdict = "separated" if rep.verdict else "not-separated"
    return Report(verdict, witnesses, ["Thm-SepExt"],
                  violation=not rep.verdict)


def _cmd_classify(src, flags):
    cls = hnn_mod.classify_abelian_hnn(src.spec.pres)
    cite = CASE_CITATIONS.get(cls.case)
    witnesses = []
    if cls.conjugator is not None:
        witnesses.append({"s": word_to_str(cls.conjugator, src.names[:-1])})
    return Report(f"{cls.case} {cls.csa}", witnesses, [cite] if cite else [],
                  details={"case": cls.case, "csa": cls.csa},
                  violation=cls.csa == "not-csa")


def _cmd_falsify(src, flags, search):
    # looked up at call time, so a wrapper installed on csa is the one run
    wit = getattr(csa_mod, search)(src.spec,
                                   flags.get("radius", DEFAULT_RADIUS))
    if wit is None:
        return Report("no-witness")
    w = {f.name: word_to_str(getattr(wit, f.name), src.names)
         for f in fields(wit)}
    return Report("witness-found", [w], violation=True)


def _cmd_verify_obstacle(src, flags):
    kind = flags["obstacle"]
    p = Parser(flags["images"])
    images = p.parse_word_list(src.name_map)
    if p.peek().kind != "end":
        raise ParseError("trailing input after images", p.peek().pos)
    witness = csa_mod.ObstacleWitness(
        kind, dict(enumerate(images, 1)),
        radius=flags.get("radius", DEFAULT_RADIUS), n=flags.get("n"))
    ok = csa_mod.verify_obstacle(witness, src.spec)
    details = {}
    if kind == csa_mod.OBSTACLE_CALB and src.kind == "fbc":
        # two free images in the fiber F2 must generate a rank-2 subgroup
        forms = [wpengine.fc_normal_form(img) for img in images[:2]]
        if all(k == 0 for _, k in forms):
            rank = stallings.fold([fib for fib, _ in forms], 2).free_rank
            details["fiber-rank"] = rank
            ok = ok and rank == 2
    wit_out = [{"images": ", ".join(word_to_str(w, src.names)
                                    for w in images)}]
    return Report("verified" if ok else "not-verified", wit_out,
                  [csa_mod.OBSTACLE_CITATIONS[kind]], details=details,
                  violation=not ok)


def _cmd_gog_check(src, flags):
    if src.kind == "amalgam":
        verdict, cite = amalgam_mod.amalgam_csa_verdict(src.spec.pres)
        return Report(verdict, [], [cite] if cite else [],
                      violation=verdict == "not-csa")
    gog = src.gog
    rep = amalgam_mod.gog_predicates(gog, flags["cap"])
    details = {"quasi-malnormal": rep.quasi_malnormal,
               "malnormal": rep.malnormal, "separated": rep.separated}
    citations = []
    verdict = "unknown"
    try:
        tree = amalgam_mod.fundamental_group_presentation(gog)
        verdict = tree.csa
        if tree.citation:
            citations.append(tree.citation)
        details["generators"] = ", ".join(tree.generator_names)
        if tree.relators:
            details["relators"] = "; ".join(
                word_to_str(r, tree.generator_names) for r in tree.relators)
    except UnsupportedShapeError:
        details["shape"] = "not a tree; csa verdict unavailable"
    return Report(verdict, [], citations, details,
                  violation=verdict == "not-csa")


def _cmd_abelianize(src, flags):
    if len(src.relators) != 1:
        raise UnsupportedShapeError("abelianize needs exactly one relator")
    torsion, free_rank = csa_mod.abelianization_one_relator(
        src.relators[0], len(src.names))
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append(f"Z^{free_rank}")
    parts.extend(f"Z/{d}" for d in torsion)
    return Report(" + ".join(parts) if parts else "0",
                  details={"free-rank": free_rank, "torsion": list(torsion)})


def _cmd_resp(flags):
    m, n, p = flags["m"], flags["n"], flags["p"]
    blocked = csa_mod.residually_p_obstruction(m, n, p)
    return Report("obstructed" if blocked else "no-obstruction", [],
                  ["Prop-res"], {"m": m, "n": n, "p": p}, violation=blocked)


# -- golden fixtures ---------------------------------------------------------


def load_goldens():
    path = resources.files("csakit").joinpath("goldens.json")
    try:
        data = path.read_text()
    except FileNotFoundError:
        raise CsakitError("bundled goldens.json is missing")
    return json.loads(data)


def _cmd_repro(flags):
    fixtures = load_goldens()
    mismatches = []
    matched = 0
    for fx in fixtures:
        try:
            report, code = run(fx["command"], fx.get("source", ""),
                               fx.get("flags", {}))
        except INPUT_ERRORS as exc:
            mismatches.append(f"{fx['name']}: error {exc}")
            continue
        got = {"verdict": report.verdict, "witnesses": report.witnesses,
               "citations": report.citations, "exit": code}
        bad = [f"{fx['name']}: {key} {got[key]!r} != {want!r}"
               for key, want in fx["expect"].items() if got[key] != want]
        mismatches.extend(bad)
        matched += not bad
    return Report(f"{matched}/{len(fixtures)} fixtures match",
                  details={"mismatches": mismatches} if mismatches else {},
                  violation=bool(mismatches))


# -- dispatch ----------------------------------------------------------------

_GROUP_KINDS = ("free", "fpc", "hnn", "amalgam", "fbc")

# command -> (implementation, the source kinds it accepts, the flags it
# needs); kinds None marks the commands that read no source and take the
# flags alone
COMMANDS = {
    "reduce": (_cmd_reduce, _GROUP_KINDS, ("word",)),
    "check-malnormal": (_cmd_check_malnormal, ("free", "hnn"), ()),
    "check-separated": (_cmd_check_separated, ("hnn",), ()),
    "check-strict-separated": (partial(_cmd_check_separated, strict=True),
                               ("hnn",), ()),
    "classify": (_cmd_classify, ("hnn",), ()),
    "falsify-csa": (partial(_cmd_falsify, search="falsify_csa"),
                    _GROUP_KINDS, ()),
    "falsify-ct": (partial(_cmd_falsify, search="falsify_ct"),
                   _GROUP_KINDS, ()),
    "verify-obstacle": (_cmd_verify_obstacle, _GROUP_KINDS,
                        ("obstacle", "images")),
    "gog-check": (_cmd_gog_check, ("gog", "amalgam"), ()),
    "abelianize": (_cmd_abelianize, ("free", "fpc", "hnn", "pres"), ()),
    "resp-obstruction": (_cmd_resp, None, ("m", "n", "p")),
    "repro": (_cmd_repro, None, ()),
}


def run(command, text, flags=None):
    """Execute one command; returns (Report, exit_code), the code 1 when
    the report holds a violation and 0 otherwise."""
    if command not in COMMANDS:
        raise CsakitError(f"unknown command {command!r}")
    impl, kinds, needs = COMMANDS[command]
    flags = dict(flags or {})
    if any(flags.get(f) is None for f in needs):
        names = [f"--{f}" for f in needs]
        listed = f"{', '.join(names[:-1])} and {names[-1]}" \
            if len(names) > 1 else names[0]
        raise CsakitError(f"{command} needs {listed}")
    # --m and --n are exponents that resp-obstruction and verify-obstacle
    # write out as powers of a letter
    for f in ("m", "n"):
        if flags.get(f) is not None:
            check_budget(abs(flags[f]), flag=f"--{f}")
    if flags.get("cap") is None:
        flags["cap"] = CLOSURE_CAP
    elif flags["cap"] < 1:
        raise CsakitError("cap must be >= 1")
    t0 = time.monotonic()
    if kinds is None:
        report = impl(flags)
    else:
        src = parse_source(text)
        if src.kind not in kinds:
            raise UnsupportedShapeError(
                f"{command} does not support a {src.kind} source")
        report = impl(src, flags)
    report.command = command
    report.timing = time.monotonic() - t0
    return report, int(report.violation)


# -- entry point -------------------------------------------------------------


def _read_source(arg, command):
    if COMMANDS[command][1] is None:
        return ""
    if arg is None:
        raise CsakitError(f"{command} needs a presentation source")
    if arg == "-":
        return sys.stdin.read()
    # a file's path may hold the characters that mark inline text; the
    # grammar has no path separator, so text that holds one is a path
    if (os.sep not in arg and any(c in arg for c in "<({")
            and not os.path.isfile(arg)):
        return arg
    with open(arg, encoding="utf-8") as fh:
        return fh.read()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="csakit",
        description="subgroup separation and CSA toolkit for free-group "
                    "constructions")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("source", nargs="?",
                        help="presentation file, '-' for stdin, or inline "
                             "text")
    parser.add_argument("--word", help="word to reduce")
    parser.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    parser.add_argument("--cap", type=int, default=None)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--obstacle", choices=csa_mod.OBSTACLE_CITATIONS)
    parser.add_argument("--images", help="comma-separated obstacle "
                                         "generator images")
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--p", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        text = _read_source(args.source, args.command)
        report, code = run(args.command, text, vars(args))
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(report.render(as_json=args.json))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early; send what is left to devnull so the
        # interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
