import json
import os
import random
import subprocess
import sys
import time

import pytest

from csakit import cli, csa, wpengine
from csakit.cli import (Parser, main, parse_source, render_source, run,
                        word_to_str)
from csakit.errors import (BALL_LETTER_LIMIT, BALL_WORD_LIMIT,
                            NESTING_LIMIT, WORD_LETTER_LIMIT,
                            BudgetExceededError, CsakitError, ParseError)
from csakit.words import power
from csakit.wpengine import (FreeByCyclicSpec, FreeProductCyclicsSpec,
                             FreeSpec, HnnSpec)

EX1 = "< x1, x2, x3, t | t^-1 x1 t = x2, t^-1 x2 t = x1 x3 >"
B12 = "< x, z | z^-1 x z = x^2 >"


def test_parse_examples():
    assert isinstance(parse_source(B12).spec, HnnSpec)
    assert isinstance(parse_source("< x, y | x^2 >").spec,
                      FreeProductCyclicsSpec)
    assert parse_source("< x, y | x^2 >").spec.orders == (2, 0)
    assert isinstance(parse_source("< x >").spec, FreeSpec)
    assert isinstance(parse_source("fbc()").spec, FreeByCyclicSpec)


def test_parse_words_and_relator_forms():
    src = parse_source("< x, y | [x, y] y >")
    assert src.relators == [(-1, -2, 1, 2, 2)]
    src2 = parse_source("< x, y | x y = y x >")
    assert src2.relators == [(1, 2, -1, -2)]
    src3 = parse_source("< x | x^3 = 1 >")
    assert src3.spec.orders == (3,)


def test_parse_sub_blocks():
    src = parse_source("< x, y > sub H = { x, y^-1 x y }")
    assert src.subs["H"] == [(1,), (-2, 1, 2)]
    src2 = parse_source("sub H = { x } < x, y >")
    assert src2.subs["H"] == [(1,)]


def test_parse_errors_are_positioned():
    with pytest.raises(ParseError) as exc:
        parse_source("< x, y | q >")
    assert exc.value.pos > 0
    with pytest.raises(ParseError):
        parse_source("< x, y")
    with pytest.raises(ParseError):
        parse_source("")
    with pytest.raises(ParseError):
        parse_source("< x > < y >")
    # a bad generator name is reported at its own token
    with pytest.raises(ParseError) as exc:
        parse_source("< x, y, x >")
    assert exc.value.pos == 8
    assert "duplicate generator name 'x'" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_source("< x, sub | x^2 >")
    assert exc.value.pos == 5
    assert "reserved generator name 'sub'" in str(exc.value)
    # a second vertex of the same name is reported at its name
    text = ("gog { vertex u = < a, b >; vertex v = < c >; "
            "edge u -> v : b ~ c; vertex u = < a >; }")
    with pytest.raises(ParseError) as exc:
        parse_source(text)
    assert exc.value.pos == text.rindex("u = < a >")
    assert "duplicate vertex name 'u'" in str(exc.value)
    # an operand that is not free is reported at its first token
    for text, operand in (("amalgam(< a >, < c | c^2 >; a ~ c)", "< c"),
                          ("hnn(fbc(); A -> B via x -> x)", "fbc"),
                          ("gog { vertex u = < x | x^2 >; }", "< x")):
        with pytest.raises(ParseError) as exc:
            parse_source(text)
        assert exc.value.pos == text.index(operand)
        assert "must be free" in str(exc.value)
    # a sub block holds only words, so a brace inside one is rejected
    for sub in ("sub H = { x { y } }", "sub H = { { x } }"):
        text = f"< x, y > {sub}"
        with pytest.raises(ParseError) as exc:
            parse_source(text)
        assert exc.value.pos is not None
        assert main(["check-malnormal", text]) == 2


def test_repeated_subgroup_name_is_positioned(capsys):
    # a subgroup name given twice is reported at its second occurrence,
    # never kept as one of the two subgroups
    for text, second in (("< x, y > sub H = { x^2 } sub H = { y }",
                          "H = { y"),
                         ("hnn(< x, y >; A -> A via x -> y)", "A via"),
                         ("hnn(< x, y >; A -> B via x -> y) sub B = { x }",
                          "B = {"),
                         ("sub A = { x } hnn(< x, y >; A -> B via x -> y)",
                          "A = {")):
        with pytest.raises(ParseError) as exc:
            parse_source(text)
        assert exc.value.pos == text.index(second)
        assert "duplicate subgroup name" in str(exc.value)
    assert main(["check-malnormal",
                 "< x, y > sub H = { x^2 } sub H = { y }"]) == 2
    assert "duplicate subgroup name 'H'" in capsys.readouterr().err


def test_hnn_stable_letter_never_runs_out(capsys):
    assert main(["classify", "hnn(< t, s, u, t1, t2 >; A -> B via t -> s)"]) \
        == 0
    assert "verdict: CASE1-SEPARATED csa*" in capsys.readouterr().out
    assert parse_source("hnn(< t, s, u, t1, t2 >; A -> B via t -> s)").names \
        == ["t", "s", "u", "t1", "t2", "t3"]
    rep, code = run("classify", "< t, s, u, t1, t2, t3 | t3^-1 t t3 = s >")
    assert (rep.verdict, code) == ("CASE1-SEPARATED csa*", 0)
    # the first free name of the old list is kept
    assert parse_source("hnn(< t, s >; A -> B via t -> s)").names[-1] == "u"


def test_constructor_operands_must_be_free():
    for text in ("hnn(< x | x^2 >; A -> B via x -> x)",
                 "hnn(fbc(); A -> B via x -> x)",
                 "amalgam(< a >, < c | c^2 >; a ~ c)",
                 "amalgam(< a >, hnn(< c >; A -> B via c -> c); a ~ c)",
                 "gog { vertex u = fbc(); }"):
        with pytest.raises(ParseError, match="must be free"):
            parse_source(text)


def test_hnn_constructor_matches_presentation():
    a = parse_source("hnn(< x1, x2, x3 >; A -> B via x1 -> x2, "
                     "x2 -> x1 x3)")
    b = parse_source(EX1)
    assert a.spec.pres.a_gens == b.spec.pres.a_gens
    assert a.spec.pres.b_gens == b.spec.pres.b_gens
    assert a.subs["A"] == [(1,), (2,)]


def test_word_to_str():
    assert word_to_str((), ["x"]) == "1"
    assert word_to_str((1, 1, -2), ["x", "y"]) == "x^2 y^-1"
    assert word_to_str((1, 2, 1), ["x", "y"]) == "x y x"


def rand_pres(rng):
    n = rng.randrange(1, 4)
    names = [f"g{i}" for i in range(1, n + 1)]
    style = rng.randrange(3)
    if style == 0:
        return f"< {', '.join(names)} >"
    if style == 1:
        rels = []
        for nm in rng.sample(names, rng.randrange(1, n + 1)):
            rels.append(f"{nm}^{rng.randrange(2, 6)}")
        return f"< {', '.join(names)} | {', '.join(rels)} >"
    # single-relator hnn over the first generators with stable letter last
    base = names
    t = "t"
    u = base[rng.randrange(len(base))]
    v = base[rng.randrange(len(base))]
    e = rng.choice(["", "^-1", "^2"])
    return (f"< {', '.join(base + [t])} | "
            f"{t}^-1 {u} {t} = {v}{e} >")


def test_roundtrip_fuzz():
    rng = random.Random(99)
    for _ in range(200):
        text = rand_pres(rng)
        src = parse_source(text)
        printed = render_source(src)
        again = render_source(parse_source(printed))
        assert printed == again


def test_roundtrip_constructors():
    gog = "gog { vertex u = < a, b >; vertex v = < c >; edge u -> v : {}; }"
    for text in ("fbc()",
                 "amalgam(< a, b >, < c, d >; a ~ c^2)",
                 "gog { vertex u = < a, b >; vertex v = < c, d >; "
                 "edge u -> v : a ~ c^2; }",
                 EX1 + " sub A = { x1, x2 }",
                 # the pairs of a renamed header are printed from its sub
                 # lists, as written, 1 -> 1 pairs and all
                 "hnn(< x, y >; P -> Q via 1 -> 1)",
                 "hnn(< x, y >; P -> Q via 1 -> 1, x -> y)",
                 # a 1 ~ 1 pair beside others is left out, and a trivial
                 # subgroup, with no pair left, is printed as 1 ~ 1
                 "amalgam(< a, b >, < c >; 1 ~ 1, a ~ c^2)",
                 "amalgam(< a, b >, < c >; 1 ~ 1)",
                 gog.replace("{}", "1 ~ 1"),
                 gog.replace("{}", "1 ~ 1, a ~ c")):
        printed = render_source(parse_source(text))
        assert render_source(parse_source(printed)) == printed
    for text, want in (
            ("hnn(< x, y >; P -> Q via 1 -> 1, x -> y)", "1 -> 1, x -> y"),
            ("amalgam(< a, b >, < c >; 1 ~ 1, a ~ c^2)", "; a ~ c^2)"),
            ("amalgam(< a, b >, < c >; 1 ~ 1)", "; 1 ~ 1)"),
            (gog.replace("{}", "1 ~ 1"), ": 1 ~ 1;"),
            (gog.replace("{}", "1 ~ 1, a ~ c"), ": a ~ c;")):
        assert want in render_source(parse_source(text)), text



GOG_VERTICES = (("u", "a", "b"), ("v", "c", "d"), ("w", "f", "g"))


def rand_gog(rng):
    """A tree on the first 1-3 of GOG_VERTICES: each later vertex joins
    an earlier one by an edge of either orientation that carries one or
    two pairs of words of 1-3 letters."""
    def word(letters):
        return " ".join(rng.choice(letters) + rng.choice(("", "^-1"))
                        for _ in range(rng.randint(1, 3)))

    vertices = GOG_VERTICES[:rng.randint(1, 3)]
    parts = [f"vertex {v} = < {x}, {y} >;" for v, x, y in vertices]
    for i in range(1, len(vertices)):
        src, dst = vertices[rng.randrange(i)], vertices[i]
        if rng.random() < 0.5:
            src, dst = dst, src
        pairs = ", ".join(f"{word(src[1:])} ~ {word(dst[1:])}"
                          for _ in range(rng.randint(1, 2)))
        parts.append(f"edge {src[0]} -> {dst[0]} : {pairs};")
    return "gog { " + " ".join(parts) + " }"


def test_gog_roundtrip_fuzz():
    """A printed graph of groups parses back to the same text, and
    gog-check answers it as it answers the drawn text: 214 of the 300
    draws parse, the rest pair a trivial word with a nontrivial one or
    give an edge no basis."""
    rng = random.Random(35)
    parsed = 0
    for _ in range(300):
        text = rand_gog(rng)
        try:
            src = parse_source(text)
        except ValueError:
            continue
        parsed += 1
        printed = render_source(src)
        assert render_source(parse_source(printed)) == printed
        drawn, _ = run("gog-check", text)
        again, _ = run("gog-check", printed)
        assert (again.verdict, again.citations, again.details) == \
            (drawn.verdict, drawn.citations, drawn.details), text
    assert parsed == 214

def test_roundtrip_leaves_out_trivial_relators():
    # a pair 1 -> 1 is left out of the presentation, so it gives no
    # relator, and the sub blocks keep it as written
    printed = render_source(parse_source("hnn(< x, y >; A -> B via 1 -> 1)"))
    assert printed == "< x, y, t > sub A = { 1 } sub B = { 1 }"
    assert render_source(parse_source(printed)) == printed
    printed = render_source(
        parse_source("hnn(< x, y >; A -> B via 1 -> 1, x -> y)"))
    assert printed == "< x, y, t | t^-1 x t y^-1 > sub A = { 1, x } " \
        "sub B = { 1, y }"
    assert render_source(parse_source(printed)) == printed


def test_run_reduce():
    rep, code = run("reduce", EX1, {"word": "t^-1 x1 t"})
    assert rep.verdict == "x2" and code == 0
    rep2, _ = run("reduce", "< x, y | x^2 >", {"word": "x^3 y"})
    assert rep2.verdict == "x y"
    rep3, _ = run("reduce", "fbc()", {"word": "y^-1 x y"})
    assert rep3.verdict == "x d"
    rep4, _ = run("reduce", "< x, y, z, t | t^-1 y^-1 x y t = x, "
                  "t^-1 y t = z >", {"word": "t^-1 x t"})
    assert rep4.verdict == "z x z^-1"


def test_amalgam_stable_letter_is_named_apart_from_the_factors():
    # the extension's stable letter takes the first of t, s, u, t1, ...
    # that no factor generator has, as an hnn stable letter does
    for text, word, want in (
            ("amalgam(< a, b >, < c, d >; a ~ c^2)", "b c", "t^-1 b t c"),
            ("amalgam(< t, a >, < c >; t ~ c^2)", "a c", "s^-1 a s c"),
            ("amalgam(< a, t >, < t >; a ~ t^2)", "t t_", "s^-1 t s t_"),
            ("amalgam(< t, s >, < u >; t ~ u^2)", "s u", "t1^-1 s t1 u")):
        assert run("reduce", text, {"word": word})[0].verdict == want, text


def test_run_exit_codes():
    _, code = run("check-separated", EX1, {})
    assert code == 1
    _, code = run("check-separated",
                  "< a, b, t | t^-1 a t = b >", {})
    assert code == 0
    _, code = run("classify", B12, {})
    assert code == 1
    with pytest.raises(CsakitError):
        run("classify", "< x, y >", {})
    with pytest.raises(CsakitError):
        run("reduce", EX1, {})


def test_witnesses_reverify_after_reparse():
    rep, code = run("falsify-csa", B12, {"radius": 1})
    assert code == 1
    src = parse_source(B12)
    p = Parser(rep.witnesses[0]["a"])
    a = p.parse_word(src.name_map)
    p = Parser(rep.witnesses[0]["v"])
    v = p.parse_word(src.name_map)
    assert csa.verify_csa_witness(csa.CsaWitness(a, v), src.spec)


def test_json_report_schema(capsys):
    code = main(["classify", B12, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert set(out) == {"command", "verdict", "witnesses", "citations",
                        "timing", "details"}
    assert out["verdict"] == "CASE4 not-csa"
    assert out["citations"] == ["Prop-TFObstacles"]


def test_check_malnormal_on_sub_blocks(capsys):
    text = "< x, y > sub H = { x, y^-1 x y } sub K = { x }"
    rep, code = run("check-malnormal", text, {})
    assert (rep.verdict, code) == ("not-malnormal", 1)
    assert rep.witnesses == [{"h": "x", "g": "y", "subgroup": "H"}]
    assert rep.details == {"H": "not-malnormal", "K": "malnormal"}
    assert main(["check-malnormal", text]) == 1
    assert main(["check-malnormal", "< x, y >"]) == 2
    assert "needs sub blocks" in capsys.readouterr().err


def test_check_malnormal_on_hnn_sub_blocks(capsys):
    # sub blocks come after A and B, over the base, each under its own
    # name; one with A's or B's name is not listed when it restates that
    # subgroup's generators, as an hnn(...) header's do, and is an error
    # otherwise
    for text, a, b in (
            ("< x, y, t | t^-1 x t = y > sub H = { x^2 }", "A", "B"),
            ("hnn(< x, y >; A -> B via x -> y) sub H = { x^2 }", "A", "B"),
            ("hnn(< x, y >; P -> Q via x -> y) sub H = { x^2 }", "P", "Q")):
        rep, code = run("check-malnormal", text, {})
        assert (rep.verdict, code) == ("not-malnormal", 1), text
        assert rep.details == {a: "malnormal", b: "malnormal",
                               "H": "not-malnormal"}, text
        assert rep.witnesses == [{"h": "x^2", "g": "x^-1",
                                  "subgroup": "H"}], text
    rep, code = run("check-malnormal", "hnn(< x, y >; P -> Q via x -> y)",
                    {})
    assert (rep.details, code) == ({"P": "malnormal", "Q": "malnormal"}, 0)
    rep, code = run("check-malnormal", EX1 + " sub A = { x1, x2 }", {})
    assert (rep.details, code) == ({"A": "malnormal", "B": "malnormal"}, 0)
    assert main(["check-malnormal",
                 "< x, y, t | t^-1 x t = y > sub H = { x t }"]) == 2
    assert "uses the stable letter" in capsys.readouterr().err
    # H restates A's generators under a name of its own
    rep, code = run("check-malnormal",
                    "< x, y, t | t^-1 x t = y > sub H = { x }", {})
    assert (rep.details, code) == ({"A": "malnormal", "B": "malnormal",
                                    "H": "malnormal"}, 0)
    # A's name on B's generators, or on other words
    for text in ("< x, y, t | t^-1 x t = y^2 > sub A = { y^2 }",
                 "< x, y, t | t^-1 x t = y > sub A = { x^2 }"):
        assert main(["check-malnormal", text]) == 2, text
        assert "named like an associated subgroup" in \
            capsys.readouterr().err, text


def test_check_malnormal_names_the_header_subgroups(capsys):
    # an hnn(...) header names A and B; a raw presentation leaves them so
    text = "hnn(< x, y >; P -> Q via x^2 -> y)"
    rep, code = run("check-malnormal", text, {})
    assert (rep.details, code) == ({"P": "not-malnormal",
                                    "Q": "malnormal"}, 1)
    assert rep.witnesses == [{"h": "x^2", "g": "x^-1", "subgroup": "P"}]
    assert main(["check-malnormal", text]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "witness: h = x^2, g = x^-1, subgroup = P" in out
    assert ["P: not-malnormal", "Q: malnormal"] == out[3:5]
    # the names survive render_source
    printed = render_source(parse_source(text + " sub H = { x y }"))
    assert printed == "hnn(< x, y >; P -> Q via x^2 -> y) sub H = { x y }"
    assert render_source(parse_source(printed)) == printed
    # a sub block may then take the name A, which no subgroup holds
    rep, code = run("check-malnormal", text + " sub A = { x y }", {})
    assert (rep.details["A"], code) == ("malnormal", 1)


def test_text_report_prints_witnesses(capsys):
    code = main(["falsify-ct", "< x, y, t | t^-1 x t = x, t^-1 y t = y >",
                 "--radius", "1"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["command: falsify-ct", "verdict: witness-found",
                         "witness: a = x, b = t, c = y"]


def test_repro_reports_each_mismatch(monkeypatch):
    expect = {"verdict": "CASE4 not-csa", "witnesses": [],
              "citations": ["Prop-TFObstacles"], "exit": 1}
    wrong = {"verdict": "CASE1-SEPARATED csa*", "witnesses": [{"s": "x"}],
             "citations": ["Thm-SepExt"], "exit": 0}
    fixtures = [{"name": "good", "command": "classify", "source": B12,
                 "expect": expect}]
    for key, value in wrong.items():
        fixtures.append({"name": f"wrong-{key}", "command": "classify",
                         "source": B12, "expect": {**expect, key: value}})
    fixtures.append({"name": "raises", "command": "classify",
                     "source": "< x, y >", "expect": expect})
    monkeypatch.setattr(cli, "load_goldens", lambda: fixtures)
    rep, code = run("repro", "", {})
    assert (rep.verdict, code) == ("1/6 fixtures match", 1)
    assert rep.details["mismatches"] == [
        "wrong-verdict: verdict 'CASE4 not-csa' != 'CASE1-SEPARATED csa*'",
        "wrong-witnesses: witnesses [] != [{'s': 'x'}]",
        "wrong-citations: citations ['Prop-TFObstacles'] != ['Thm-SepExt']",
        "wrong-exit: exit 1 != 0",
        "raises: error classify does not support a free source",
    ]


def test_repro_counts_fixtures_not_mismatches(monkeypatch):
    fixtures = [{"name": "twice-wrong", "command": "classify",
                 "source": B12,
                 "expect": {"verdict": "CASE1-SEPARATED csa*", "exit": 0}}]
    monkeypatch.setattr(cli, "load_goldens", lambda: fixtures)
    rep, code = run("repro", "", {})
    assert (rep.verdict, code) == ("0/1 fixtures match", 1)
    assert len(rep.details["mismatches"]) == 2


def test_repro_records_every_input_error(monkeypatch):
    fixtures = [{"name": "good", "command": "classify", "source": B12,
                 "expect": {"verdict": "CASE4 not-csa", "exit": 1}},
                {"name": "big-ball", "command": "falsify-csa",
                 "source": "< a, b, c, d >", "flags": {"radius": 6},
                 "expect": {"exit": 0}}]
    monkeypatch.setattr(cli, "load_goldens", lambda: fixtures)
    rep, code = run("repro", "", {})
    assert (rep.verdict, code) == ("1/2 fixtures match", 1)
    [mismatch] = rep.details["mismatches"]
    assert mismatch.startswith("big-ball: error ")
    assert str(BALL_WORD_LIMIT) in mismatch


def test_main_survives_a_closed_stdout():
    # exit 1 means a witness was found, so a closed pipe must neither
    # traceback nor change the verdict's exit code
    src_dir = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "csakit.cli", "classify",
             "< a, b, t | t^-1 a t = b >"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_main_error_paths(capsys):
    assert main(["classify", "< x, y | q >"]) == 2
    assert main(["classify", "< x, y >"]) == 2
    assert main(["reduce", EX1]) == 2
    assert main(["check-malnormal", "/nonexistent/file"]) == 2


def test_main_rejects_negative_radius(capsys):
    for command in ("falsify-csa", "falsify-ct"):
        assert main([command, B12, "--radius", "-1"]) == 2
    assert main(["verify-obstacle", "< x, y | x^2 >", "--obstacle", "dinf",
                 "--images", "x, y^-1 x y", "--radius", "-1"]) == 2
    assert "radius" in capsys.readouterr().err


def test_main_rejects_a_ball_over_the_limit(capsys):
    start = time.perf_counter()
    assert main(["falsify-csa", "< a, b, c, d >", "--radius", "6"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "156865" in err and str(BALL_WORD_LIMIT) in err
    assert "--radius" in err
    # radius 5 on 4 generators is over the limit, on 3 generators not
    with pytest.raises(BudgetExceededError):
        csa.ball(FreeSpec(4), 5)
    assert len(csa.ball(FreeSpec(3), 5)) == 4686


def test_rank_one_ball_over_the_letter_limit():
    # 4,801 words pass the word limit, yet a search over them ran for
    # hours; their 2400 * 2401 letters do not pass the letter limit
    with pytest.raises(BudgetExceededError, match="--radius") as caught:
        csa._check_ball_size(1, 2400)
    assert "5762400 letters" in str(caught.value)
    assert str(BALL_LETTER_LIMIT) in str(caught.value)
    csa._check_ball_size(1, 172)
    with pytest.raises(BudgetExceededError):
        csa._check_ball_size(1, 173)
    # the largest ball of two or more generators under the word limit,
    # 4,373 words of 28,432 letters, stays under the letter limit
    csa._check_ball_size(2, 7)
    assert len(csa.ball(FreeSpec(2), 7)) == 4372


def test_main_rejects_an_obstacle_ball_over_the_limit(capsys):
    # the relator holds, so the ball is what is left to build: 1 + 2(3^9 - 1)
    # reduced words over the two b1n generators
    start = time.perf_counter()
    assert main(["verify-obstacle", "< x, z | z^-1 x z = x^2 >",
                 "--obstacle", "b1n", "--n", "2", "--images", "x, z^-1",
                 "--radius", "9"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "39365" in err and str(BALL_WORD_LIMIT) in err
    assert "--radius" in err
    # dinf counts its 1 + 2R alternating words
    with pytest.raises(BudgetExceededError):
        csa._obstacle_ball(csa.OBSTACLE_DINF, BALL_WORD_LIMIT // 2)
    assert len(csa._obstacle_ball(csa.OBSTACLE_DINF, 4)) == 9


def test_main_rejects_deep_nesting(capsys):
    deep = "(" * 5000 + "x" + ")" * 5000
    assert main(["reduce", "< x, y >", "--word", deep]) == 2
    assert main(["classify", f"< x, z | z^-1 {deep} z = x^2 >"]) == 2
    err = capsys.readouterr().err
    assert f"nested in {NESTING_LIMIT + 1} brackets" in err
    assert f"limit of {NESTING_LIMIT}" in err
    shallow = "(" * 100 + "x" + ")" * 100
    assert run("reduce", "< x, y >", {"word": shallow})[0].verdict == "x"
    # commutators count toward the depth like parentheses
    deep_commutator = "[" * 300 + "x, y" + "], y" * 299 + "]"
    assert main(["reduce", "< x, y >", "--word", deep_commutator]) == 2
    # group constructors take only free operands, so they cannot nest
    for opener in ("amalgam(", "hnn(", "gog { vertex u = "):
        start = time.perf_counter()
        assert main(["falsify-csa", opener * 3000]) == 2
        assert time.perf_counter() - start < 1
        assert "must be free" in capsys.readouterr().err


def test_reduce_long_power():
    rep, code = run("reduce", "< x, y >", {"word": "x^50000"})
    assert (rep.verdict, code) == ("x^50000", 0)
    rep, code = run("reduce", "< x1, x2 >", {"word": "x1^4000"})
    assert (rep.verdict, code) == ("x1^4000", 0)


def test_word_letter_limit(capsys):
    limit = WORD_LETTER_LIMIT
    start = time.perf_counter()
    assert main(["reduce", "< x, y >", "--word", "x^300000000"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "300000000" in err and str(limit) in err
    # the limit counts the letters written out: a conjugated power writes
    # its conjugator twice, and a commutator writes both words twice
    assert run("reduce", "< x, y >",
               {"word": f"(y x y^-1)^{limit - 2}"})[0].verdict == \
        f"y x^{limit - 2} y^-1"
    for word in (f"x^{limit + 1}", f"(x y)^{limit // 2 + 1}",
                 f"x^{limit // 2} x^{limit // 2} x",
                 "[" * 20 + "x, y" + "], y" * 19 + "]"):
        with pytest.raises(BudgetExceededError):
            run("reduce", "< x, y >", {"word": word})


def test_exponent_flags_word_limit(capsys):
    # resp-obstruction writes x^m and x^n out, and b1n writes x^n
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="--m"):
        run("resp-obstruction", "", {"m": 2_000_000, "n": 3, "p": 2})
    with pytest.raises(BudgetExceededError, match="--n"):
        run("resp-obstruction", "", {"m": 3, "n": -2_000_000, "p": 2})
    assert main(["verify-obstacle", "< x, z | z^-1 x z = x^2 >",
                 "--obstacle", "b1n", "--n", "2000000",
                 "--images", "x, z^-1"]) == 2
    assert time.perf_counter() - start < 1
    assert "--n" in capsys.readouterr().err


def test_reductions_that_outgrow_the_word_limit(capsys):
    # short words whose reductions write out more than the word limit: in
    # B(1, 2) each pinch of t^-n x t^n doubles the power of x, and each
    # hop of the normal form of (t^-1 x)^n doubles the power it carries
    # left; in fbc() each x after y^k writes x d^-k
    b12 = "< x, t | t^-1 x t = x^2 >"
    assert run("reduce", b12, {"word": "t^-19 x t^19"})[0].verdict == \
        "x^524288"
    # the first step over the limit: the pinch that writes x^1048576, and
    # the hop that carries x^524287 across t^-1, writing x^1048574
    for word, letters in (("t^-20 x t^20", 1_048_576),
                          ("(t^-1 x)^20", 1_048_574)):
        with pytest.raises(BudgetExceededError) as caught:
            run("reduce", b12, {"word": word})
        assert str(caught.value) == (f"a word of {letters} letters is over "
                                     f"the limit of {WORD_LETTER_LIMIT}")
    fiber, k = wpengine.fc_normal_form(power((wpengine.FBC_Y,), 900) +
                                       power((wpengine.FBC_X,), 1000))
    assert (len(fiber), k) == (901_000, 900)
    for source, word in ((b12, "t^-21 x t^21"), (b12, "(t^-1 x)^21"),
                         ("fbc()", "y^1100 x^1100")):
        with pytest.raises(BudgetExceededError,
                           match=f"limit of {WORD_LETTER_LIMIT}"):
            run("reduce", source, {"word": word})
    # far over the limit, the first step that outgrows it exits 2: after
    # the steps under it, about 0.6 s for B(1, 2) and 0.2 s for fbc()
    for source, word in ((b12, "t^-40 x t^40"), (b12, "(t^-1 x)^40"),
                         ("fbc()", "y^300000 x^300000")):
        start = time.perf_counter()
        assert main(["reduce", source, "--word", word]) == 2
        assert time.perf_counter() - start < 2
        assert f"limit of {WORD_LETTER_LIMIT}" in capsys.readouterr().err


def test_main_stdin(monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(B12))
    assert main(["classify", "-"]) == 1


def test_source_path_with_a_bracket_is_read_as_a_file(tmp_path, capsys):
    """A SOURCE naming a file is read from it even when its path holds a
    character that marks inline text."""
    folder = tmp_path / "run(1)"
    folder.mkdir()
    path = folder / "case1.txt"
    path.write_text("< a, b, t | t^-1 a t = b >", encoding="utf-8")
    assert main(["classify", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "verdict: CASE1-SEPARATED csa*" in out


def test_exit_codes_stable_across_seed():
    for seed in (None, 1, 2):
        _, code = run("falsify-csa", B12, {"radius": 1, "seed": seed})
        assert code == 1


def test_repro_suite():
    rep, code = run("repro", "", {})
    assert code == 0, rep.details
    assert rep.verdict.endswith("fixtures match")


def test_verify_obstacle_command():
    rep, code = run("verify-obstacle", "< x, y | x^2 >",
                    {"obstacle": "dinf", "images": "x, y^-1 x y",
                     "radius": 4})
    assert rep.verdict == "verified" and code == 0
    rep2, code2 = run("verify-obstacle", "< x, y | x^2 >",
                      {"obstacle": "dinf", "images": "x, x", "radius": 3})
    assert rep2.verdict == "not-verified" and code2 == 1
    with pytest.raises(CsakitError):
        run("verify-obstacle", "< x, y | x^2 >", {})
    # dinf has two generators: a wrong image count is rejected input
    for images in ("x", "x, y^-1 x y, y"):
        assert main(["verify-obstacle", "< x, y | x^2 >", "--obstacle",
                     "dinf", "--images", images]) == 2


def test_run_names_each_missing_flag():
    cases = [("reduce", EX1, {}, "reduce needs --word"),
             ("resp-obstruction", "", {"m": 2, "n": 3},
              "resp-obstruction needs --m, --n and --p"),
             ("resp-obstruction", "", {},
              "resp-obstruction needs --m, --n and --p"),
             ("verify-obstacle", B12, {"images": "x"},
              "verify-obstacle needs --obstacle and --images"),
             ("verify-obstacle", B12, {"obstacle": "dinf"},
              "verify-obstacle needs --obstacle and --images")]
    for command, text, flags, message in cases:
        with pytest.raises(CsakitError) as exc:
            run(command, text, flags)
        assert str(exc.value) == message


def keyed(rows):
    """The rows of a table below as test cases, each named by the key that
    leads its row and its fields after argv, whatever its position, so
    that adding a row renames no other test.  The rows that were named by
    their position keep those names as keys (argv0, argv1, ..., and None
    for the row without argv); a new row takes a key of its own."""
    return [pytest.param(*row, id="-".join(map(str, (key, *row[1:]))))
            for key, *row in rows]


# (key, argv, message) for rejected inputs that reach main's exit 2
# through each error path; "@file" is a file holding "< x, y, x >",
# "@missing" a path into a missing folder whose name holds a bracket, and
# None runs run("nope", ...), which main's command choices never let
# through
REJECTED = [
    ("argv0",
     ["classify", "hnn(< x, y >; A -> B x -> y)"], "expected 'via'"),
    ("argv1",
     ["gog-check", "gog { vertex u = < a >; edge u -> w : a ~ a; }"],
     "edge references an unknown vertex"),
    ("argv2",
     ["gog-check", "gog { node u = < a >; }"],
     "expected 'vertex' or 'edge', found 'node'"),
    ("argv3",
     ["check-malnormal", "< x, y > sub H = { x"], "unterminated sub block"),
    ("argv4",
     ["reduce", "< x, y >", "--word", "x y; x"],
     "trailing input after word"),
    ("argv5",
     ["verify-obstacle", "< x, y | x^2 >", "--obstacle", "dinf",
      "--images", "x, y; x"], "trailing input after images"),
    ("argv6",
     ["abelianize", "< x, y >"], "abelianize needs exactly one relator"),
    ("argv7",
     ["classify"], "classify needs a presentation source"),
    ("argv8",
     ["classify", "@file"], "duplicate generator name 'x'"),
    ("argv9",
     ["gog-check",
      "gog { vertex u = < a, b >; vertex v = < c >; edge u -> v : 1 ~ c; }"],
     "phi cannot pair a trivial generator with a nontrivial one"),
    ("argv10",
     ["classify", "< x, y $ >"], "unexpected character '$'"),
    ("argv11",
     ["reduce", "< x, y >", "--word", ")"], "expected a word"),
    ("argv12",
     ["classify", "{ }"], "expected a group, found '{'"),
    ("argv13",
     ["falsify-csa", "< x, y >", "--radius", "1000000000"],
     "with at least 2000000001 words"),
    ("argv14",
     ["check-strict-separated", "< x, y, t | t^-1 x t = y >", "--cap", "0"],
     "cap must be >= 1"),
    ("argv15",
     ["classify", "< x, y, x >"], "duplicate generator name 'x'"),
    ("argv16",
     ["gog-check", "gog { vertex u = < a, b >; vertex v = < c >; "
      "edge u -> v : b ~ c; vertex u = < a >; }"],
     "duplicate vertex name 'u'"),
    ("argv17",
     ["falsify-csa", "amalgam(< a >, < c | c^2 >; a ~ c)"],
     "amalgam factors must be free (at position 15)"),
    ("argv18",
     ["classify", "@missing"], "No such file or directory"),
    # --m and --n are exponents written out as powers, under the word limit
    ("argv19",
     ["resp-obstruction", "--m", "300000000", "--n", "3", "--p", "2"],
     f"300000000 letters is over the limit of {WORD_LETTER_LIMIT} (from --m)"),
    # a ball on one generator is held to the letter limit: 4,801 words pass
    # the word limit, their 5,762,400 letters do not
    ("argv20",
     ["falsify-csa", "< x >", "--radius", "2400"],
     f"5762400 letters is over the limit of {BALL_LETTER_LIMIT}"),
    # x ~ x^210 draws no quotient, and at radius 3 a Britton reduction
    # outgrows the word limit
    ("argv21",
     ["falsify-ct", "< x, t | t^-1 x t = x^210 >", "--radius", "3"],
     f"letters is over the limit of {WORD_LETTER_LIMIT}"),
    ("None",
     None, "unknown command 'nope'"),
    # an edge, like an amalgam, must pair free bases of its two sides
    ("argv23",
     ["gog-check", "gog { vertex u = < a >; vertex v = < c >; "
      "edge u -> v : a ~ c, a^2 ~ c; }"],
     "edge subgroup generators are not a basis"),
    ("argv24",
     ["gog-check", "amalgam(< a >, < c >; a ~ c, a^2 ~ c)"],
     "amalgamated subgroup generators are not a basis"),
    ("argv25",
     ["gog-check", "gog { }"], "a graph of groups needs a vertex"),
    # --cap is checked for every command, also where no closure runs
    ("argv26",
     ["gog-check", "amalgam(< a >, < b >; a ~ b)", "--cap", "0"],
     "cap must be >= 1"),
    ("argv27",
     ["gog-check", "gog { vertex u = < a >; }", "--cap", "-3"],
     "cap must be >= 1"),
]


@pytest.mark.parametrize("argv, message", keyed(REJECTED))
def test_rejected_input_exits_2(argv, message, tmp_path, capsys):
    if argv is None:
        # main exits 2 on exactly the errors in INPUT_ERRORS
        with pytest.raises(cli.INPUT_ERRORS, match=message):
            run("nope", "", {})
        return
    path = tmp_path / "source.txt"
    path.write_text("< x, y, x >", encoding="utf-8")
    paths = {"@file": str(path),
             "@missing": str(tmp_path / "run(2)" / "case1.txt")}
    argv = [paths.get(a, a) for a in argv]
    # every limit is met before the work that would outgrow it, or at its
    # first step over it
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2
    assert message in capsys.readouterr().err


# (key, argv, exit code, stdout line, seconds) for inputs that get a
# verdict: exit 0 for a computed verdict and 1 for a violation witness,
# printed within the stated seconds
ANSWERED = [
    # a sub block on an HNN source is checked after A and B
    ("argv0",
     ["check-malnormal", "< x, y, t | t^-1 x t = y > sub H = { x^2 }"], 1,
     "witness: h = x^2, g = x^-1, subgroup = H", 2),
    # an hnn(...) header names its subgroups
    ("argv1",
     ["check-malnormal", "hnn(< x, y >; P -> Q via x -> y)"], 0,
     "P: malnormal", 2),
    # malnormality witnesses from both kinds of mirror orbit in H x H: the
    # second component walked of an orbit {C, sigma C}, and a component
    # that the swap of coordinates maps to itself
    ("argv2",
     ["check-malnormal", "< x, y > sub H = { x^4, y }"], 1,
     "witness: h = x^4, g = x, subgroup = H", 2),
    ("argv3",
     ["check-malnormal", "< x, y > sub H = { y, y^-1 x x, y y }"], 1,
     "witness: h = x^2, g = x^-1, subgroup = H", 2),
    # a proper power u with v not one is read the other way round, so both
    # spellings of B(1, 2) get one verdict, and t^-1 x^2 t = y is F(x, t)
    ("argv4",
     ["classify", "< x, t | t x t^-1 = x^2 >"], 1,
     "verdict: CASE4 not-csa", 2),
    ("argv5",
     ["classify", "< x, z | z^-1 x z = x^2 >"], 1,
     "verdict: CASE4 not-csa", 2),
    ("argv6",
     ["classify", "hnn(< x, y >; A -> B via x^2 -> y)"], 0,
     "verdict: CASE1-SEPARATED csa*", 2),
    # <a> and <a^-1> are one maximal abelian edge group at u
    ("argv7",
     ["gog-check", "gog { vertex u = < a, b >; vertex v = < c, d >; "
      "vertex w = < f, g >; edge u -> v : a ~ c^2; "
      "edge u -> w : a^-1 ~ f^2; }"], 1, "citations: Prop-BadTree", 2),
    # an amalgam's stable letter is named apart from a factor generator t
    ("argv8",
     ["reduce", "amalgam(< t, a >, < c >; t ~ c^2)", "--word", "a c"], 0,
     "verdict: s^-1 a s c", 2),
    # a pinch through A = <y^-1 x y, y>, whose fold merges a vertex that
    # carries a self-loop
    ("argv9",
     ["reduce", "< x, y, z, t | t^-1 y^-1 x y t = x, t^-1 y t = z >",
      "--word", "t^-1 x t"], 0, "verdict: z x z^-1", 2),
    # the b1n obstacle ball, which no golden reaches
    ("argv10",
     ["verify-obstacle", "< x, z | z^-1 x z = x^2 >", "--obstacle", "b1n",
      "--n", "2", "--images", "x, z^-1", "--radius", "6"], 0,
     "verdict: verified", 2),
    # a free-group search, which no golden runs
    ("argv11",
     ["falsify-ct", "< a, b >", "--radius", "3"], 0, "verdict: no-witness", 2),
    # F4 as an HNN extension of F3 over trivial subgroups draws quotients,
    # so its 3,201-word radius-4 ball is searched through the index
    ("argv12",
     ["falsify-csa", "< a, b, c, d >", "--radius", "4"], 0,
     "verdict: no-witness", 10),
    # a free product of cyclics searches under the trivial quotient: every
    # row is an identity row, given every column, so every pair of its
    # radius-4 ball is tested
    ("argv13",
     ["falsify-ct", "< x, y, z | x^2, y^3 >", "--radius", "4"], 0,
     "verdict: no-witness", 10),
    ("argv14",
     ["falsify-csa", "< x, y, z | x^2, y^3 >", "--radius", "4"], 1,
     "witness: a = x y x y^-1, v = x", 10),
    # an HNN extension for which no quotient is drawn: x ~ x^210 forces the
    # image of x to 1 in Sym(10), so every pair is tested by Britton
    # reduction
    ("argv15",
     ["falsify-csa", "< x, t | t^-1 x t = x^210 >", "--radius", "3"], 1,
     "witness: a = x, v = t", 10),
    ("argv16",
     ["falsify-ct", "< x, t | t^-1 x t = x^210 >", "--radius", "2"], 0,
     "verdict: no-witness", 10),
    ("argv17",
     ["falsify-ct", "< x >", "--radius", "100"], 0, "verdict: no-witness", 10),
    # a full radius-5 scan (2,582-element ball) through the indexed join
    ("argv18",
     ["falsify-csa", "< x, y, t | t^-1 x t = y >", "--radius", "5"], 0,
     "verdict: no-witness", 30),
    # the slowest radius-5 search: powers of x and t commute with many
    # elements
    ("argv19",
     ["falsify-ct", "< x, y, t | t^-1 x t = x >", "--radius", "5"], 0,
     "verdict: no-witness", 30),
    # the deepest early exit under the ball limit, a 4,687-word ball: the
    # search stops at its second row, so no normal form is computed
    ("argv20",
     ["falsify-csa", "< x, y, t | t^-1 y t = y^3 >", "--radius", "5"], 1,
     "witness: a = y, v = t", 10),
    # a sub block that restates A, up to its 1 words, is not checked again
    ("argv21",
     ["check-malnormal", "< x, y, t | t^-1 x t = y > sub A = { 1, x }"], 0,
     "verdict: malnormal", 2),
    # a 1 -> 1 pair gives no generator and no relator, so both commands
    # read the group t^-1 x^2 t = x^-1
    ("argv22",
     ["classify", "hnn(< x >; A -> B via x^2 -> x^-1, 1 -> 1)"], 1,
     "verdict: CASE4 not-csa", 2),
    ("argv23",
     ["abelianize", "hnn(< x >; A -> B via x^2 -> x^-1, 1 -> 1)"], 0,
     "verdict: Z + Z/3", 2),
]


@pytest.mark.parametrize("argv, code, line, seconds", keyed(ANSWERED))
def test_answered_input(argv, code, line, seconds, capsys):
    start = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - start < seconds
    assert line in capsys.readouterr().out.splitlines()


def test_trivial_edge_group_is_free(capsys):
    """An amalgam or one-edge graph of groups over the trivial subgroup is
    a free product of free groups, so free: csa* with no citation and no
    relator."""
    for source in ("amalgam(< a, b >, < c >; 1 ~ 1)",
                   "gog { vertex u = < a, b >; vertex v = < c >; "
                   "edge u -> v : 1 ~ 1; }"):
        assert main(["gog-check", source]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "verdict: csa*"
        assert not any(line.startswith(("citations:", "relators:"))
                       for line in lines)
    rep, _ = run("classify", "hnn(< x, y >; A -> B via 1 -> 1)", {})
    assert (rep.verdict, rep.citations) == ("FREE-PRODUCT csa*", [])


def test_cyclic_graph_of_groups_gives_predicates_only():
    """A graph of groups with a cycle has no tree presentation, so
    gog-check answers unknown with the three predicates and says why."""
    rep, code = run("gog-check",
                    "gog { vertex u = < a, b >; vertex v = < c, d >; "
                    "edge u -> v : a ~ c; edge v -> u : d ~ b; }", {})
    assert (rep.verdict, rep.citations, code) == ("unknown", [], 0)
    assert rep.details == {"quasi-malnormal": True, "malnormal": True,
                           "separated": True,
                           "shape": "not a tree; csa verdict unavailable"}


def test_amalgam_answers_as_its_one_edge_tree():
    """gog-check gives an amalgam the verdict of the same group spelled
    as a one-edge graph of groups, and a 1 ~ 1 pair leaves an edge
    cyclic."""
    for pairs, want in (
            ("a ~ c, b ~ d", ("unknown", [], 0)),
            ("a ~ c, 1 ~ 1", ("csa*", ["Thm-amalgiff"], 0)),
            ("1 ~ 1, a^2 ~ c^2", ("not-csa", ["Prop-MustMax"], 1))):
        for source in (f"amalgam(< a, b >, < c, d >; {pairs})",
                       "gog { vertex u = < a, b >; vertex v = < c, d >; "
                       f"edge u -> v : {pairs}; }}"):
            rep, code = run("gog-check", source, {})
            assert (rep.verdict, rep.citations, code) == want, source


def test_trivial_edge_beside_a_cyclic_edge(capsys):
    """(F(a, b) *_{a = d} Z) * Z is free: the 1 ~ 1 edge cuts the tree,
    the piece u - w is csa* by Thm-amalgiff, and only a ~ d is a
    relator."""
    assert main(["gog-check", "gog { vertex u = < a, b >; "
                 "vertex v = < c >; vertex w = < d >; "
                 "edge u -> v : 1 ~ 1; edge u -> w : a ~ d; }"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["verdict: csa*", "citations: Thm-amalgiff"]
    assert "relators: u_1 w_1^-1" in lines


def test_two_cyclic_edges_without_a_shared_subgroup_stay_unknown():
    """Two cyclic edges at u, with no image maximal abelian, whose
    maximal abelian edge groups <a> and <b> meet trivially: no rule
    applies, so gog-check answers unknown with the predicates."""
    rep, code = run("gog-check", "gog { vertex u = < a, b >; "
                    "vertex v = < c, d >; vertex w = < f, g >; "
                    "edge u -> v : a ~ c^2; edge u -> w : b ~ f^2; }", {})
    assert (rep.verdict, rep.citations, code) == ("unknown", [], 0)
    assert {k: rep.details[k] for k in
            ("quasi-malnormal", "malnormal", "separated")} == \
        {"quasi-malnormal": True, "malnormal": False, "separated": True}


@pytest.mark.parametrize("second,want", [
    ("a^-1", ("not-csa", ["Prop-BadTree"], 1)),
    ("b a b^-1", ("unknown", [], 0))])
def test_two_cyclic_edges_sharing_a_generator(second, want):
    """<a> and <a^-1> are one maximal abelian subgroup, so Prop-BadTree
    applies; <a> and <b a b^-1> meet trivially, so no rule does."""
    rep, code = run("gog-check", "gog { vertex u = < a, b >; "
                    "vertex v = < c, d >; vertex w = < f, g >; "
                    f"edge u -> v : a ~ c^2; edge u -> w : {second} ~ f^2; }}",
                    {})
    assert (rep.verdict, rep.citations, code) == want


@pytest.mark.parametrize("pairs", ["a ~ c^2, b ~ d c^2 d^-1",
                                   "a ~ c, b ~ d c d^-1"])
def test_images_not_normal_in_their_closure(pairs):
    """The image <c^2, d c^2 d^-1>, or <c, d c d^-1>, is not normal in
    its malnormal closure: one of its generators leaves it when
    conjugated by a closure generator g (the first image), or only when
    conjugated by g^-1 (the second), so u - v is not quasi-malnormal."""
    rep, code = run("gog-check", "gog { vertex u = < a, b >; "
                    f"vertex v = < c, d >; edge u -> v : {pairs}; }}", {})
    assert (rep.verdict, code) == ("unknown", 0)
    assert rep.details["quasi-malnormal"] is False


def test_resp_obstruction_reads_no_source(capsys):
    # resp-obstruction takes its group from --m and --n alone
    assert main(["resp-obstruction", "--m", "2", "--n", "3", "--p", "2"]) == 1
    assert "verdict: obstructed" in capsys.readouterr().out.splitlines()

