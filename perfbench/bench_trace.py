"""Span tracing for the benchmark's traced run, installed from outside csakit.

``Tracer.install`` replaces each traced function on its module, every
alias another csakit module bound with ``from ... import``, and the traced
methods on their classes.  Each call opens a span (name, start, end,
parent span, query id).  Calls, self time (span minus child spans) and the
counters are folded in as each span closes, so they cover every call; the
spans themselves are kept in memory up to SPAN_CAP and written out by
``write_spans`` when the run ends.
"""

import json
from time import perf_counter

# (module, function) pairs traced as plain functions
FUNCTIONS = [
    ("words", "concat"), ("words", "free_reduce"), ("words", "power"),
    ("stallings", "fold"), ("stallings", "is_malnormal"),
    ("stallings", "conj_intersection_trivial"),
    ("stallings", "malnormal_closure"),
    ("hnn", "britton_reduce"), ("hnn", "normal_form"),
    ("hnn", "classify_abelian_hnn"),
    ("wpengine", "is_trivial"), ("wpengine", "canonical_key"),
    ("wpengine", "fc_normal_form"),
    ("csa", "ball"), ("csa", "falsify_csa"), ("csa", "falsify_ct"),
    ("csa", "verify_obstacle"),
    ("amalgam", "gog_predicates"),
    ("amalgam", "fundamental_group_presentation"),
    ("cli", "parse_source"), ("cli", "run"),
]

# (module, class, method) triples traced on the class
METHODS = [
    ("stallings", "CoreGraph", "member"), ("stallings", "CoreGraph", "express"),
    ("stallings", "CoreGraph", "coset_rep"), ("hnn", "TWord", "mul"),
    ("hnn", "HnnPresentation", "phi"), ("hnn", "HnnPresentation", "phi_inv"),
]

MODULES = ("words", "stallings", "hnn", "wpengine", "csa", "amalgam", "cli")

SPAN_NAMES = [f"{m}.{f}" for m, f in FUNCTIONS] + \
    [f"{m}.{c}.{f}" for m, c, f in METHODS]

COUNTS = [
    "words.concat.letters_out", "stallings.fold.vertices_out",
    "stallings.product_pairs", "stallings.malnormal_closure.joins",
    "hnn.britton_reduce.syllables_in", "hnn.britton_reduce.pinches",
    "csa.ball.size",
]
# ratios, with the base each is taken against named in Tracer.metrics
RATIOS = ["csa.ball.kept_ratio", "csa.witness_ratio",
          "csa.britton_per_search"]
COUNTERS = COUNTS + RATIOS
SPAN_CAP = 100_000      # spans kept in memory and written out


PER_LAYER = [f"{n}.{k}" for n in SPAN_NAMES for k in ("calls", "self_s")] \
    + COUNTERS


def _num_vertices(graph):
    return 0 if graph.is_trivial else graph.num_vertices


class Tracer:
    def __init__(self):
        self.count = dict.fromkeys(
            COUNTS + ["csa.ball.generated", "csa.searches",
                      "csa.witnesses", "csa.britton_in_search"], 0)
        self.spans = []
        # [tracing on, next span id, query id, open falsifier spans]; a
        # list the wrappers share, cheaper to reach than attributes
        self._state = [True, 0, -1, 0]
        self._stack = []        # open frames: [span id, child seconds]
        self._calls = [0] * len(SPAN_NAMES)
        self._self_s = [0.0] * len(SPAN_NAMES)
        self._restore = []
        self._num_generators = None

    @property
    def enabled(self):
        return self._state[0]

    @enabled.setter
    def enabled(self, on):
        self._state[0] = on

    @property
    def query(self):
        return self._state[2]

    @query.setter
    def query(self, query_id):
        self._state[2] = query_id

    @property
    def span_total(self):
        return self._state[1]

    # -- installing ------------------------------------------------------

    def install(self, mods):
        """Wrap every traced function and method of the csakit modules in
        ``mods`` (a mapping from short module name to module)."""
        self._num_generators = mods["wpengine"].num_generators
        for mod_name, fn_name in FUNCTIONS:
            orig = getattr(mods[mod_name], fn_name)
            wrapped = self._wrap(orig, f"{mod_name}.{fn_name}")
            for m in MODULES:
                for attr, value in list(vars(mods[m]).items()):
                    if value is orig:
                        self._restore.append((mods[m], attr, orig))
                        setattr(mods[m], attr, wrapped)
        for mod_name, cls_name, fn_name in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            orig = cls.__dict__[fn_name]
            self._restore.append((cls, fn_name, orig))
            setattr(cls, fn_name,
                    self._wrap(orig, f"{mod_name}.{cls_name}.{fn_name}"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def _wrap(self, fn, name):
        index = SPAN_NAMES.index(name)
        hook = _HOOKS.get(name)
        state, stack, spans = self._state, self._stack, self.spans
        calls, self_s = self._calls, self._self_s
        cap = SPAN_CAP
        tracer = self

        def traced(*args, **kwargs):
            if not state[0]:
                return fn(*args, **kwargs)
            span_id = state[1]
            state[1] = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                calls[index] += 1
                self_s[index] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if len(spans) < cap:
                    spans.append((name, start, end, span_id, parent,
                                  state[2]))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        if name not in ("csa.falsify_csa", "csa.falsify_ct"):
            return traced

        def search(*args, **kwargs):
            state[3] += 1
            try:
                return traced(*args, **kwargs)
            finally:
                state[3] -= 1

        return search

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics keyed by BENCHMARK.json name."""
        out = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = self._calls[i]
            out[f"{name}.self_s"] = self._self_s[i]
        c = self.count
        for key in COUNTS:
            out[key] = c[key]
        out["csa.ball.kept_ratio"] = _ratio(c["csa.ball.size"],
                                            c["csa.ball.generated"])
        out["csa.witness_ratio"] = _ratio(c["csa.witnesses"],
                                          c["csa.searches"])
        out["csa.britton_per_search"] = _ratio(c["csa.britton_in_search"],
                                               c["csa.searches"])
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "span", "parent",
                                  "query"],
                       "spans_total": self._state[1],
                       "spans_kept": len(self.spans),
                       "spans": self.spans}, fh)


def _ratio(num, den):
    return num / den if den else 0.0


# -- counters computed at the layer boundary ---------------------------------


def _concat(tr, args, kwargs, result):
    tr.count["words.concat.letters_out"] += len(result)


def _fold(tr, args, kwargs, result):
    tr.count["stallings.fold.vertices_out"] += result.num_vertices


def _product_malnormal(tr, args, kwargs, result):
    tr.count["stallings.product_pairs"] += _num_vertices(args[0]) ** 2


def _product_conj(tr, args, kwargs, result):
    tr.count["stallings.product_pairs"] += \
        _num_vertices(args[0]) * _num_vertices(args[1])


def _closure(tr, args, kwargs, result):
    tr.count["stallings.malnormal_closure.joins"] += \
        len(result.generators) - len(args[0].generators)


def _britton(tr, args, kwargs, result):
    if tr._state[3]:
        tr.count["csa.britton_in_search"] += 1
    t_in = args[0].t_length
    tr.count["hnn.britton_reduce.syllables_in"] += t_in
    tr.count["hnn.britton_reduce.pinches"] += (t_in - result.t_length) // 2


def _ball(tr, args, kwargs, result):
    radius = args[1] if len(args) > 1 else kwargs["radius"]
    letters = 2 * tr._num_generators(args[0])
    tr.count["csa.ball.size"] += len(result)
    # freely reduced words of length 1..radius
    tr.count["csa.ball.generated"] += sum(
        letters * (letters - 1) ** (k - 1) for k in range(1, radius + 1))


def _search(tr, args, kwargs, result):
    tr.count["csa.searches"] += 1
    tr.count["csa.witnesses"] += result is not None


_HOOKS = {
    "words.concat": _concat,
    "stallings.fold": _fold,
    "stallings.is_malnormal": _product_malnormal,
    "stallings.conj_intersection_trivial": _product_conj,
    "stallings.malnormal_closure": _closure,
    "hnn.britton_reduce": _britton,
    "csa.ball": _ball,
    "csa.falsify_csa": _search,
    "csa.falsify_ct": _search,
}
