"""HNN extensions over free bases: Britton reduction, normal forms,
separation tests, and the classifier for cyclic associated subgroups.

An extension is <G, t | t^-1 a t = phi(a), a in A> with G free; A and B are
given by generator words and phi by the generator correspondence.  Elements
are TWords g0 t^e1 g1 ... t^en gn with base words between stable letters.
"""

from dataclasses import dataclass
from typing import Optional

from .errors import CLOSURE_CAP, WORD_LETTER_LIMIT, check_budget
from .stallings import (SubgroupReport, conj_intersection_trivial, fold,
                        malnormal_closure)
from .words import (concat, conjugating_element, free_reduce, inverse,
                    is_proper_power, cyclic_reduce)


def check_pairs(gens, images, what, rank, image_rank):
    """The folded graphs (G, H) of the two sides of the pairs gens[i] ~
    images[i], over rank and image_rank (a letter outside raises
    MalformedWordError); fold drops the 1 ~ 1 pairs.  ValueError unless
    the lists pair off one to one, trivial with trivial, and each side is
    a free basis, so that the pairing extends to an isomorphism G -> H."""
    if len(gens) != len(images):
        raise ValueError(f"{what} generator counts differ")
    G, H = fold(gens, rank), fold(images, image_rank)
    if any(bool(free_reduce(g)) != bool(free_reduce(w))
           for g, w in zip(gens, images)):
        raise ValueError("phi cannot pair a trivial generator with "
                         "a nontrivial one")
    if G.free_rank != len(G.generators) or H.free_rank != len(G.generators):
        raise ValueError(f"{what} generators are not a basis")
    return G, H


class HnnPresentation:
    """HNN extension of a free group of rank base_rank.

    phi extends to an isomorphism A -> B, and the i-th of a_gens or
    b_gens is the i-th basis element of its folded graph A or B.
    """

    def __new__(cls, base_rank, a_gens, b_gens):
        if base_rank < 0:
            raise ValueError(f"base rank {base_rank} is negative")
        return cls.from_graphs(*check_pairs(
            a_gens, b_gens, "associated subgroup", base_rank, base_rank))

    @classmethod
    def from_graphs(cls, A, B):
        """The extension over graphs check_pairs returned, or their shifts."""
        self = super().__new__(cls)
        self.base_rank = A.rank
        self.A, self.B = A, B
        self.a_gens, self.b_gens = A.generators, B.generators
        # generator index (negative for inverses) -> image word, keyed by
        # the sign e of the pinch t^e g t^-e it resolves
        self._images = {-1: _index_images(self.b_gens),
                        1: _index_images(self.a_gens)}
        # an expression of at most limit / _longest parts writes out no more
        # letters than the word limit, so _image counts only longer ones
        self._longest = max(map(len, self.a_gens + self.b_gens), default=0)
        return self

    def pinch(self, e, g):
        """Image of the base word g across the pinch t^e g t^-e: phi(g)
        for e = -1, phi^-1(g) for e = 1; None when g lies outside A
        (e = -1) or B (e = 1), so that there is no pinch.  g must be
        freely reduced over the base letters; it is not checked."""
        v, i, expr = (self.A if e < 0 else self.B)._read(g)
        if v or i < len(g):
            return None
        return tuple(self._image(e, expr, []))

    def _image(self, e, expr, into):
        """Append to the freely reduced list into, and return it, the word
        that an expression over the basis of A (e = -1) or B (e = 1) maps
        to across the stable letter, reducing as it writes, once the
        letters the images write out are held to the word limit."""
        images = self._images[e]
        if len(expr) * self._longest > WORD_LETTER_LIMIT:
            check_budget(sum(len(images[i]) for i in expr))
        push, pop = into.append, into.pop
        for i in expr:
            for l in images[i]:
                if into and into[-1] == -l:
                    pop()
                else:
                    push(l)
        return into

    def phi(self, a):
        """Image of a in B; a must lie in A."""
        b = self.pinch(-1, free_reduce(a, self.base_rank))
        if b is None:
            raise ValueError(f"{a} is not in the associated subgroup A")
        return b

    def phi_inv(self, b):
        a = self.pinch(1, free_reduce(b, self.base_rank))
        if a is None:
            raise ValueError(f"{b} is not in the associated subgroup B")
        return a


def _index_images(basis):
    images = {}
    for i, w in enumerate(basis, 1):
        images[i] = w
        images[-i] = inverse(w)
    return images


@dataclass(frozen=True)
class TWord:
    """Alternating form g0 t^e1 g1 ... t^en gn; head = g0,
    tail = ((e1, g1), ..., (en, gn))."""
    head: tuple
    tail: tuple = ()

    @property
    def t_length(self):
        return len(self.tail)

    def inv(self):
        """g0 t^e1 ... t^en gn inverts to gn^-1 t^-en ... t^-e1 g0^-1:
        each sign, negated, pairs with the inverse of the segment before
        it, and one reversal puts the pairs in order."""
        syls = []
        g = self.head
        for e, h in self.tail:
            syls.append((-e, inverse(g)))
            g = h
        return TWord(inverse(g), tuple(reversed(syls)))

    def mul(self, other):
        if not self.tail:
            return TWord(concat(self.head, other.head), other.tail)
        last_e, last_g = self.tail[-1]
        merged = self.tail[:-1] + ((last_e, concat(last_g, other.head)),)
        return TWord(self.head, merged + other.tail)

    def flatten(self, t_letter):
        """Back to a single word with the stable letter as t_letter."""
        out = list(self.head)
        for (e, g) in self.tail:
            out.append(e * t_letter)
            out.extend(g)
        return free_reduce(out)

    @staticmethod
    def _split_reduced(word, t_letter):
        """Split a freely reduced word over base letters plus +-t_letter
        into a TWord; its segments are freely reduced already, so one
        pass reduces none of them again."""
        head = []
        tail = []
        cur = head
        for l in word:
            if abs(l) == t_letter:
                cur = []
                tail.append((1 if l > 0 else -1, cur))
            else:
                cur.append(l)
        return TWord(tuple(head), tuple((e, tuple(g)) for (e, g) in tail))


_UNSEEN = object()


def britton_reduce(w: TWord, P: HnnPresentation, *factors, memo=None) -> TWord:
    """Britton-reduce the product w * factors[0] * factors[1] * ...

    One left-to-right pass keeps a pinch-free stack of syllables; each
    stable letter read is checked for a pinch t^-1 a t (a in A) or
    t b t^-1 (b in B) against the top of the stack only (Britton's lemma).
    This removes the same leftmost pinches, in the same order, as
    rescanning the product built with TWord.mul, so the reduced word is
    the same.  ``memo`` maps (sign, base word) to the result of
    P.pinch; a caller that reduces many words over P may pass one dict
    to all of them.
    """
    if memo is None:
        memo = {}
    cached = memo.get
    stack = [(0, ())]  # the head as t^0 g0, which no pinch pops (no sign is 0)
    push = stack.append
    for f in (w,) + factors:
        # segments are freely reduced, so an empty top takes f.head as is
        e, g = stack[-1]
        stack[-1] = (e, concat(g, f.head) if g else f.head)
        for syl in f.tail:
            top = stack[-1]
            if top[0] == -syl[0]:
                mid = cached(top, _UNSEEN)
                if mid is _UNSEEN:
                    mid = memo[top] = P.pinch(*top)
                if mid is not None:
                    stack.pop()
                    e, g = stack[-1]
                    stack[-1] = (e, concat(g, mid, syl[1]))
                    continue
            push(syl)
    return TWord(stack[0][1], tuple(stack[1:]))


def is_identity(w: TWord, P: HnnPresentation, *factors, memo=None) -> bool:
    """True iff the product w * factors[0] * ... is trivial."""
    r = britton_reduce(w, P, *factors, memo=memo)
    return r.t_length == 0 and not r.head


def normal_form(w: TWord, P: HnnPresentation) -> tuple:
    """Canonical form: after Britton reduction, replace each base segment
    (right to left) by its canonical coset representative, hopping the
    subgroup part leftward across the adjacent stable letter into the
    segment before it, the head being segment 0, syllable t^0 g0.

    Two TWords are equal in the extension iff their normal forms match.
    """
    r = britton_reduce(w, P)
    syls = [(0, r.head), *r.tail]
    for i in range(len(syls) - 1, 0, -1):
        # t * b = phi^-1(b) * t ; t^-1 * a = phi(a) * t^-1, with b = g rep^-1
        # in B or a = g rep^-1 in A, both from one walk along g
        e, g = syls[i]
        rep, expr = (P.A if e < 0 else P.B)._coset_split(g)
        syls[i] = (e, rep)
        pe, pg = syls[i - 1]
        syls[i - 1] = (pe, tuple(P._image(e, expr, list(pg))))
    return (syls[0][1], tuple(syls[1:]))


def is_separated(P: HnnPresentation) -> SubgroupReport:
    return SubgroupReport(*conj_intersection_trivial(P.A, P.B))


def is_strictly_separated(P: HnnPresentation,
                          cap=CLOSURE_CAP) -> SubgroupReport:
    B1 = malnormal_closure(P.B, cap)
    return SubgroupReport(*conj_intersection_trivial(P.A, B1))


CASE1_SEPARATED = "CASE1-SEPARATED"
CASE2_CENTRALIZER_EXT = "CASE2-CENTRALIZER-EXT"
CASE3 = "CASE3"
CASE4 = "CASE4"
NOT_MAXIMAL_A = "NOT-MAXIMAL(A)"
FREE_PRODUCT = "FREE-PRODUCT"


@dataclass
class Classification:
    case: str
    csa: str              # "csa*" or "not-csa"
    conjugator: Optional[tuple] = None  # s with u^s = phi(u), for case 2


def classify_abelian_hnn(P: HnnPresentation) -> Classification:
    """Sort an extension with cyclic associated subgroups <u> -> <v> into
    the four mutually exclusive cases and predict the CSA verdict.  When
    u is a proper power and v is not, the extension is read the other way
    round, as <v> -> <u>.  With no pair, A and B are trivial and the
    extension is a free product."""
    if not P.a_gens:
        return Classification(FREE_PRODUCT, "csa*")
    if len(P.a_gens) != 1:
        raise ValueError("classifier needs cyclic associated subgroups")
    u, v = P.a_gens[0], P.b_gens[0]
    cu, _ = cyclic_reduce(u)
    cv, _ = cyclic_reduce(v)
    if is_proper_power(cu):
        if is_proper_power(cv):
            return Classification(NOT_MAXIMAL_A, "not-csa")
        # with s = t^-1 the group is s^-1 v s = u, and the cases below
        # assume only that u is not a proper power
        u, v, cv = v, u, cu
    # <u> and <v> are P.A and P.B, in one order or the other, and whether
    # they meet up to conjugation does not depend on the order
    if conj_intersection_trivial(P.A, P.B)[0]:
        return Classification(CASE1_SEPARATED, "csa*")
    s = conjugating_element(u, v)
    if s is not None:
        return Classification(CASE2_CENTRALIZER_EXT, "csa*", conjugator=s)
    if is_proper_power(cv):
        return Classification(CASE4, "not-csa")
    return Classification(CASE3, "not-csa")
