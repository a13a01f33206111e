"""The cyclic-edge classifier checked against the bounded falsifiers.

    python3 sweeps/cyclic.py

Run from the root of a checkout; csakit is imported from its ``src``.
The sweep covers the 16,384 HNN extensions t^-1 u t = v of F(x, y) with
u and v cyclically reduced words of length 1-4.  Each group gets
``classify_abelian_hnn``, then ``falsify_csa`` and ``falsify_ct`` at
radius 3; a not-csa group with no witness there is searched again at
radius 4.  A csa* group must have no witness, and a not-csa group must
have one by radius 4.  The table printed is ``sweeps/cyclic-4.txt``.
Each group that breaks the rule is printed as a miss, never given
another verdict, and any miss makes the exit status 1.
"""

import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from csakit import csa  # noqa: E402
from csakit.cli import word_to_str  # noqa: E402
from csakit.hnn import HnnPresentation, classify_abelian_hnn  # noqa: E402
from csakit.wpengine import HnnSpec  # noqa: E402

MAX_LENGTH = 4
RADIUS = 3
RETRY_RADIUS = 4


def cyclic_words(max_length):
    """The cyclically reduced words of length 1..max_length over F(x, y)."""
    return [w for n in range(1, max_length + 1)
            for w in itertools.product((1, -1, 2, -2), repeat=n)
            if all(a != -b for a, b in zip(w, w[1:] + w[:1]))]


def witness(spec, radius):
    return csa.falsify_csa(spec, radius) or csa.falsify_ct(spec, radius)


def main():
    words = cyclic_words(MAX_LENGTH)
    rows = {}       # (case, verdict) -> [groups, radius-3 hits, radius-4 hits]
    misses = []
    for u, v in itertools.product(words, repeat=2):
        P = HnnPresentation(2, [u], [v])
        cls = classify_abelian_hnn(P)
        spec = HnnSpec(P)
        row = rows.setdefault((cls.case, cls.csa), [0, 0, 0])
        row[0] += 1
        if witness(spec, RADIUS):
            row[1] += 1
            found = True
        else:
            found = cls.csa == "not-csa" and bool(witness(spec, RETRY_RADIUS))
            row[2] += found
        if found != (cls.csa == "not-csa"):
            misses.append((u, v, cls, found))

    print(f"t^-1 u t = v over F(x, y), u and v cyclically reduced of "
          f"length 1-{MAX_LENGTH}: {len(words) ** 2} groups")
    print(f"{'case':<22} {'verdict':<8} {'groups':>6} "
          f"{'radius-3 witness':>16} {'radius-4 witness':>16}")
    for (case, verdict), (groups, hits, retried) in sorted(rows.items()):
        late = retried if verdict == "not-csa" else "-"
        print(f"{case:<22} {verdict:<8} {groups:>6} {hits:>16} {late:>16}")
    names = ("x", "y")
    for u, v, cls, found in misses:
        print(f"miss: u = {word_to_str(u, names)}, "
              f"v = {word_to_str(v, names)}, {cls.case} {cls.csa}, "
              f"{'a witness' if found else 'no witness'}")
    print(f"misses: {len(misses)}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
