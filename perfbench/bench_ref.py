"""Reference computations the benchmark checks csakit's answers against.

Nothing here imports csakit: words are tuples of nonzero ints (letter k is
the k-th generator, -k its inverse), as in ``csakit.words``.
"""


def reduce_word(letters):
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def inverse(w):
    return tuple(-l for l in reversed(w))


def product(*ws):
    return reduce_word([l for w in ws for l in w])


def cyclic_core(w):
    w = reduce_word(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def primitive_root(c):
    """(root, k) with c = root^k for a cyclically reduced nonempty c."""
    n = len(c)
    for d in range(1, n + 1):
        if n % d == 0 and c == c[:d] * (n // d):
            return c[:d], n // d
    raise ValueError("empty word has no root")


def cyclically_conjugate(c1, c2):
    """True iff cyclically reduced c1, c2 are rotations of each other."""
    return len(c1) == len(c2) and (not c1 or c2 in
                                   {c1[r:] + c1[:r] for r in range(len(c1))})


def cyclic_hnn_class(u, v):
    """CSA verdict for <F, t | t^-1 u t = v> with u, v nontrivial in a
    free group F, from the primitive roots of u and v alone.

    Returns "csa*" when <u> is maximal abelian and either <u>, <v> have no
    conjugates that meet, or u is conjugate to v; "not-csa" when u is not
    a proper power and v is conjugate to u^-k, or to u^k with k >= 2 (a
    CSA witness (u, t) then exists); "unknown" otherwise.
    """
    cu, cv = cyclic_core(u), cyclic_core(v)
    ru, ku = primitive_root(cu)
    rv, kv = primitive_root(cv)
    if ku > 1:
        return "unknown"
    same = cyclically_conjugate(ru, rv)
    opposite = cyclically_conjugate(ru, cyclic_core(inverse(rv)))
    if not (same or opposite):
        return "csa*"
    if same and kv == 1:
        return "csa*"
    return "not-csa"


class FoldedGraph:
    """Stallings folding by union-find, without expression tags.

    Independent of ``csakit.stallings``; used to re-check membership and
    the size of the core graph.
    """

    def __init__(self, generators):
        self.parent = [0]
        self.out = [{}]
        pending = []
        for g in generators:
            g = reduce_word(g)
            v = 0
            for j, l in enumerate(g):
                if j == len(g) - 1:
                    w = 0
                else:
                    w = self._new_vertex()
                pending.append((v, l, w))
                v = w
        while pending:
            a, l, b = pending.pop()
            for (x, letter, y) in ((a, l, b), (b, -l, a)):
                x, y = self.find(x), self.find(y)
                z = self.out[x].get(letter)
                if z is None:
                    self.out[x][letter] = y
                    continue
                z = self.find(z)
                if z != y:
                    keep, gone = (z, y) if z < y else (y, z)
                    self.parent[gone] = keep
                    pending.extend((keep, m, t)
                                   for m, t in self.out[gone].items())
                    self.out[gone] = {}

    def _new_vertex(self):
        self.parent.append(len(self.parent))
        self.out.append({})
        return len(self.parent) - 1

    def find(self, v):
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def member(self, word):
        v = self.find(0)
        for l in reduce_word(word):
            w = self.out[v].get(l)
            if w is None:
                return False
            v = self.find(w)
        return v == self.find(0)

    def core_size(self):
        """(vertices, edges) after trimming non-base vertices of degree
        <= 1; a trivial subgroup has one vertex."""
        base = self.find(0)
        edges = {(v, l, self.find(w)) for v in range(len(self.out))
                 if self.find(v) == v
                 for l, w in self.out[v].items() if l > 0}
        while True:
            deg = {}
            for (a, _l, b) in edges:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            leaves = {v for v, d in deg.items() if d <= 1 and v != base}
            if not leaves:
                break
            edges = {e for e in edges
                     if e[0] not in leaves and e[2] not in leaves}
        verts = {a for (a, _l, _b) in edges} | {b for (_a, _l, b) in edges}
        return max(len(verts), 1), len(edges)
