"""The word problem of each supported group class behind one interface,
``GroupSpec``.

Element expressions are words (tuples of nonzero ints) over a group's
displayed generators:

* free(rank): generators 1..rank, an HNN extension with stable letter rank
* free product of cyclics(orders): generators 1..k, order 0 = infinite
* hnn(P): base generators 1..rank, stable letter rank+1
* amalgam(P): left factor 1..rl, right factor rl+1..rl+rr
* free-by-cyclic: x=1, y=2, d=3 with y acting by x -> x d^-1, d -> d
"""

from dataclasses import dataclass
from functools import cached_property

from . import hnn as hnn_mod
from .errors import WORD_LETTER_LIMIT, UnsupportedBaseError, check_budget
from .words import commutator, concat, free_reduce, inverse, power

FBC_X, FBC_Y, FBC_D = 1, 2, 3
# the quotient onto the trivial group; searches know it by its b"" identity
TRIVIAL = b"", {}
# fiber alphabet of the free-by-cyclic group: d = 1, x = 2
FIB_D, FIB_X = 1, 2


class GroupSpec:
    """The word problem of one group class.

    ``rank`` is the number of displayed generators; ``key(word)`` is a
    hashable normal form, equal for two words exactly when they are equal
    elements; ``normal_word(word)`` writes that normal form back as a word
    over the displayed generators (an amalgam adds its stable letter,
    rank + 1).  ``quotient`` is the (identity, letter tables) pair that a
    falsifier search filters pairs through: TRIVIAL, which passes every
    pair, unless the class draws its own."""

    quotient = TRIVIAL

    def is_trivial(self, word):
        return self.key(word) == self.key(())

    def search_forms(self):
        """(form, trivial) for one search: form(word) gives (x, x^-1) in
        the group's working form, here the word itself, and trivial(*xs)
        says whether the product of such forms is 1."""
        return (lambda w: (w, inverse(w))), \
            (lambda *xs: self.is_trivial(concat(*xs)))


@dataclass(frozen=True)
class FreeProductCyclicsSpec(GroupSpec):
    orders: tuple  # per-generator order, 0 = infinite

    @property
    def rank(self):
        return len(self.orders)

    def key(self, word):
        return fpc_normal_form(free_reduce(word, self.rank), self.orders)

    def normal_word(self, word):
        return tuple(l for (g, e) in self.key(word) for l in power((g,), e))


class BrittonSpec(GroupSpec):
    """A group whose word problem is Britton reduction in the HNN
    extension ``ext`` of a free group; ``tword(word)`` maps a word over
    the displayed generators into ``ext``."""

    @cached_property
    def quotient(self):
        """quotients.letter_tables(self), drawn on first use and kept."""
        from . import quotients     # imported on first use, as in csa
        return quotients.letter_tables(self)

    def key(self, word):
        return hnn_mod.normal_form(self.tword(word), self.ext)

    def is_trivial(self, word):
        return hnn_mod.is_identity(self.tword(word), self.ext)

    def normal_word(self, word):
        return hnn_mod.TWord(*self.key(word)).flatten(self.ext.base_rank + 1)

    def search_forms(self):
        """The form is the Britton-reduced TWord; a product of forms
        streams through the kernel, with one pinch memo for the search."""
        P, memo = self.ext, {}

        def form(word):
            x = hnn_mod.britton_reduce(self.tword(word), P, memo=memo)
            return x, x.inv()

        return form, lambda x, *xs: hnn_mod.is_identity(x, P, *xs, memo=memo)


class HnnSpec(BrittonSpec):
    def __init__(self, pres: "hnn_mod.HnnPresentation"):
        self.pres = self.ext = pres
        self.rank = pres.base_rank + 1

    def tword(self, word):
        return hnn_mod.TWord._split_reduced(free_reduce(word, self.rank),
                                            self.rank)


class FreeSpec(HnnSpec):
    """F(rank) as the HNN extension of F(rank - 1) over trivial
    associated subgroups, its last generator the stable letter."""

    def __init__(self, rank):
        super().__init__(hnn_mod.HnnPresentation(rank - 1, (), ()))


class AmalgamSpec(BrittonSpec):
    def __init__(self, pres):
        self.pres = pres  # amalgam.AmalgamPresentation
        self.ext = pres.extension
        self.rank = pres.free_product_rank
        self.tword = pres.embed


@dataclass(frozen=True)
class FreeByCyclicSpec(GroupSpec):
    rank = 3

    def key(self, word):
        return fc_normal_form(word)

    def normal_word(self, word):
        fib, k = fc_normal_form(word)
        disp = tuple((FBC_D if abs(l) == FIB_D else FBC_X) *
                     (1 if l > 0 else -1) for l in fib)
        return concat(disp, power((FBC_Y,), k))


# -- free products of cyclic groups ----------------------------------------


def fpc_normal_form(word, orders):
    """Syllable normal form with exponents reduced modulo the factor
    orders; finite factors use representatives in [0, order)."""
    syll = []
    for l in word:
        g = abs(l)
        e = 1 if l > 0 else -1
        if syll and syll[-1][0] == g:
            syll[-1][1] += e
        else:
            syll.append([g, e])
        # adjacent syllables never share a generator, so a syllable that
        # cancels leaves nothing to merge
        order = orders[g - 1]
        if order:
            syll[-1][1] %= order
        if syll[-1][1] == 0:
            syll.pop()
    return tuple((g, e) for (g, e) in syll)


# -- the fixed free-by-cyclic group ----------------------------------------


def fc_normal_form(word):
    """Unique (fiber word over {d=1, x=2}, y-exponent) for a word over
    the displayed generators x, y, d.

    One pass keeps the running y-exponent k and a freely reduced stack
    of fiber letters: y^k f = twist^k(f) y^k with twist^k = (x -> x d^-k,
    x^-1 -> d^k x^-1, d -> d), so each fiber letter pushes at most two
    runs (letter, signed count), each cancelled against the stack top
    and then pushed whole.  The cost is linear in the input plus the
    d-runs the twists push, under the word limit."""
    out = []
    k = written = 0
    for l in free_reduce(word, 3):
        s = 1 if l > 0 else -1
        if abs(l) == FBC_Y:
            k += s
            continue
        if abs(l) == FBC_D:
            runs = ((FIB_D, s),)
        else:
            written += 1 + abs(k)
            if written > WORD_LETTER_LIMIT:     # no call per x letter
                check_budget(written)
            runs = ((FIB_X, 1), (FIB_D, -k)) if s > 0 else \
                ((FIB_D, k), (FIB_X, -1))
        for step, n in runs:
            if n < 0:
                step, n = -step, -n
            while n and out and out[-1] == -step:
                out.pop()
                n -= 1
            out.extend([step] * n)
    return tuple(out), k


# -- the interface as functions ---------------------------------------------


def _spec(spec):
    if not isinstance(spec, GroupSpec):
        raise UnsupportedBaseError(f"unsupported group spec {spec!r}")
    return spec


def num_generators(spec):
    return _spec(spec).rank


def is_trivial(word, spec):
    """True iff the element expression equals the identity."""
    return _spec(spec).is_trivial(word)


def canonical_key(word, spec):
    """Hashable key, equal exactly for words representing the same
    element."""
    return _spec(spec).key(word)


def commutes(u, v, spec):
    return is_trivial(commutator(u, v), spec)


def equal(u, v, spec):
    return is_trivial(concat(u, inverse(v)), spec)
