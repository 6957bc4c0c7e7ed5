import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sl2swc import cli
from sl2swc.characters import (
    char_table,
    oir_labels,
    principal_series_sl,
    random_genuine_rep,
    regular_rep,
    symmetrize,
    trivial_rep,
)
from sl2swc.cli import (
    RepSyntaxError,
    UnknownIrreducible,
    _RepParser,
    get_table,
    load_cached_table,
    parse_rep,
    print_rep_terms,
    run,
    serialize_table,
    store_table,
)
from sl2swc.characters import BadConstructionParams
from sl2swc.groups import build_gl2, build_sl2
from sl2swc.oracle import verify_swc_formula


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_reg():
    t = char_table(build_sl2(3))
    pi = parse_rep("reg", t)
    assert pi.mults == t.degrees


def test_parse_combination():
    t = char_table(build_sl2(3))
    pi = parse_rep("S(X4) + 2*X1", t)
    expected = symmetrize(parse_rep("X4", t)) + parse_rep("X1", t).scaled(2)
    assert pi == expected


def test_parse_whitespace_insensitive():
    t = char_table(build_sl2(3))
    assert parse_rep(" S( X4 )+2 * X1 ", t) == parse_rep("S(X4) + 2*X1", t)


def test_parse_subtraction():
    t = char_table(build_sl2(3))
    pi = parse_rep("reg - triv", t)
    assert pi == regular_rep(t) - trivial_rep(t)


def test_parse_roundtrip():
    t = char_table(build_sl2(5))
    for src in ("reg", "S(X2) + 2*X1 - X3", "3*S(cusp(1)) - ps(1)", "0*triv - X1"):
        terms = _RepParser(src).parse()
        printed = print_rep_terms(terms)
        assert _RepParser(printed).parse() == terms
        assert parse_rep(printed, t) == parse_rep(src, t)


def test_parse_errors():
    t = char_table(build_sl2(3))
    with pytest.raises(RepSyntaxError):
        parse_rep("reg +", t)
    with pytest.raises(RepSyntaxError):
        parse_rep("2 ** X1", t)
    with pytest.raises(RepSyntaxError):
        parse_rep("frob", t)
    with pytest.raises(UnknownIrreducible):
        parse_rep("X99", t)
    with pytest.raises(BadConstructionParams):
        parse_rep("ps(0)", char_table(build_sl2(5)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_swc_subcommand(capsys, tmp_path):
    code, out, err = _run(capsys, "swc", "--q", "3", "--rep", "reg",
                          "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "sl2swc/1"
    assert doc["r_or_m"] == 3
    assert doc["total"] == {"0": ["1"], "4": ["e"], "8": ["e^2"], "12": ["e^3"]}


def test_dickson_subcommand(capsys):
    code, out, _ = _run(capsys, "dickson", "--rank", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["dickson"]["d1"] == "v1^2 + v1*v2 + v2^2"
    assert doc["dickson"]["d2"] == "v1^2*v2 + v1*v2^2"


def test_cohomology_subcommand(capsys):
    code, out, _ = _run(capsys, "cohomology", "--group", "Q8", "--max-degree", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [1, 2, 2, 1, 1, 2, 2, 1, 1]
    code, out, _ = _run(capsys, "cohomology", "--group", "c2:3", "--max-degree", "3")
    assert json.loads(out)["dims"] == [1, 3, 6, 10]


def test_free_ring_dims_are_counted_up_to_the_cap(capsys):
    # F2[v1..v6] has C(d+5, 5) monomials of degree d: 9.5e9 at d = 256,
    # which the ring counts without listing them
    code, out, _ = _run(capsys, "cohomology", "--group", "c2:6", "--max-degree", "256")
    assert code == 0
    assert json.loads(out)["dims"] == [math.comb(d + 5, 5) for d in range(257)]


def test_readme_cli_examples_run(capsys):
    # every command of the README's CLI block, optional [...] parts removed
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [re.sub(r"\s*\[[^]]*\]", "", line) for line in block.splitlines()
             if line.startswith("sl2swc ")]
    assert len(lines) == 9
    for line in lines:
        code, _, err = _run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)


def test_verify_subcommand_exit_codes(capsys):
    code, out, _ = _run(capsys, "verify", "--q", "5", "--suite", "gow")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["suites"][0]["suite"] == "gow"
    assert doc["suites"][0]["failures"] == []


def test_usage_errors(capsys, tmp_path):
    code, out, err = _run(capsys, "swc", "--q", "3")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"
    code, _, err = _run(capsys, "swc", "--q", "3", "--rep", "X99")
    assert code == 2
    assert json.loads(err)["error"] == "UnknownIrreducible"
    code, _, err = _run(capsys, "cohomology", "--group", "bogus", "--max-degree", "4")
    assert code == 2
    code, _, err = _run(capsys, "swc", "--q", "4", "--rep", "ps(1)")
    assert code == 2
    assert json.loads(err)["error"] == "BadConstructionParams"
    # a representation that is not orthogonal: genuine, then virtual
    for q, rep in (("5", "X2"), ("5", "ps(1)"), ("3", "X2 - X3")):
        code, out, err = _run(capsys, "swc", "--q", q, "--rep", rep,
                              "--cache-dir", str(tmp_path))
        assert code == 2 and out == "", rep
        assert json.loads(err)["error"] == "NotOrthogonal"


@pytest.mark.parametrize("argv", [
    ("verify", "--q", "6", "--suite", "obstruction"),
    ("verify", "--q", "1", "--suite", "obstruction"),
    ("verify", "--q", "100", "--suite", "obstruction"),
    ("table", "--q", "6"),
    ("table", "--q", "128"),
    ("swc", "--q", "10", "--rep", "triv"),
    ("verify", "--q", "5", "--suite", "theorem", "--trials", "-1"),
    ("swc", "--q", "3", "--rep", "reg", "--truncate", "-5"),
    ("cohomology", "--group", "Q8", "--max-degree", "-1"),
    # degrees above TRUNCATION_CAP = 256 are refused: larger ones exhaust memory
    ("swc", "--q", "8", "--rep", "triv - reg", "--truncate", "4000"),
    ("swc", "--q", "3", "--rep", "reg", "--truncate", "257"),
    ("cohomology", "--group", "c2:6", "--max-degree", "257"),
    # GL tables above GL_TABLE_CAP = 16 are refused: GL(2,17) runs out of memory
    ("table", "--group", "gl2", "--q", "17"),
    ("table", "--group", "gl2", "--q", "81"),
    # an empty --cache-dir would name the current directory
    ("table", "--q", "3", "--cache-dir", ""),
    ("swc", "--q", "3", "--rep", "reg", "--cache-dir", ""),
], ids=" ".join)
def test_bad_arguments_are_usage_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UsageError"


# --q is checked against SIZE_CAP before it is factored: trial division of the
# prime 2^61 - 1 would run for hours
@pytest.mark.parametrize("argv", [("table",), ("swc", "--rep", "triv"),
                                  ("verify", "--suite", "theorem")], ids=lambda a: a[0])
def test_a_huge_prime_is_refused_at_once(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "sl2swc.cli", argv[0], "--q",
                           str(2 ** 61 - 1), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds cap 81" in json.loads(proc.stderr)["detail"]


# a bad ps/cusp exponent depends on q and k only, so it is refused before any
# table is built: a cold SL(2,81) table takes about 15 s
@pytest.mark.parametrize("q, rep", [("81", "ps(2)"), ("64", "S(cusp(1))"),
                                    ("41", "reg - 2*S(S(cusp(2)))")])
def test_bad_exponents_are_refused_before_any_build(capsys, monkeypatch, q, rep):
    monkeypatch.setattr(cli, "get_table", lambda *args: pytest.fail("a table was built"))
    code, out, err = _run(capsys, "swc", "--q", q, "--rep", rep)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BadConstructionParams"


def test_swc_ps_past_q37_agrees_with_the_oracles(capsys):
    # GL(2,41) ran out of 512 MiB; SL(2,41) and its subgroups do not
    code, out, _ = _run(capsys, "swc", "--q", "41", "--rep", "S(ps(1))")
    assert code == 0
    report = json.loads(out)
    check = verify_swc_formula(symmetrize(principal_series_sl(41, 1)), report["degree"])
    assert (report["degree"], report["r_or_m"]) == (check["degree"], check["r"]) == (84, 21)


def test_swc_parses_the_expression_once(capsys, monkeypatch, tmp_path):
    seen = []
    tokenize = cli._tokenize
    monkeypatch.setattr(cli, "_tokenize", lambda src: seen.append(src) or tokenize(src))
    code, _, _ = _run(capsys, "swc", "--q", "3", "--rep", "S(X2) + triv",
                      "--cache-dir", str(tmp_path))
    assert code == 0 and seen == ["S(X2) + triv"]


# the exponent of cusp(k) passes int64; the additive character's trace must
# enter the exponent as a Python int
CUSP_BIG_K_REPORT = """{
  "criterion": "central element acts by -1",
  "degree": 8,
  "ell": null,
  "obstruction_class": "e^2",
  "obstruction_degree": 8,
  "parity": "odd",
  "q": 5,
  "r_or_m": 2,
  "schema": "sl2swc/1",
  "top_nonzero": true,
  "total": {
    "0": [
      "1"
    ],
    "8": [
      "e^2"
    ]
  },
  "total_expanded": null,
  "truncation": 8
}
"""


def test_swc_cusp_exponent_beyond_int64(capsys, tmp_path):
    code, out, err = _run(capsys, "swc", "--q", "5", "--rep", "S(cusp(100000000000000000001))",
                          "--cache-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert out == CUSP_BIG_K_REPORT


def test_ps_and_cusp_build_no_gl_group(capsys):
    # both induce inside SL(2,q), from subgroups of it
    build_gl2.cache_clear()
    code, out, _ = _run(capsys, "swc", "--q", "5", "--rep", "S(ps(1)) + S(cusp(1))")
    assert code == 0
    assert json.loads(out)["degree"] == 2 * 6 + 2 * 4
    assert build_gl2.cache_info().currsize == 0


def test_zero_trials_runs_no_random_cases(capsys):
    cases = {}
    for trials in ("0", "1"):
        code, out, _ = _run(capsys, "verify", "--q", "3", "--suite", "theorem",
                            "--trials", trials)
        assert code == 0
        cases[trials] = json.loads(out)["suites"][0]["cases"]
    assert cases["0"] == len(oir_labels(char_table(build_sl2(3))))
    assert cases["1"] == cases["0"] + 1


@pytest.mark.parametrize("suite,target", [("theorem", "verify_swc_formula"),
                                          ("wu", "wu_formula_holds")])
def test_a_raising_case_is_recorded_and_replayable(capsys, monkeypatch, suite, target):
    from sl2swc import oracle

    real = getattr(oracle, target)
    calls = []

    def third_raises(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ValueError("boom")
        return real(*args)

    monkeypatch.setattr(oracle, target, third_raises)
    code, out, _ = _run(capsys, "verify", "--q", "3", "--suite", suite, "--trials", "4")
    assert code == 1
    report = json.loads(out)["suites"][0]
    assert report["cases"] == len(calls) and report["passes"] == len(calls) - 1
    [failure] = report["failures"]
    assert failure["error"] == "ValueError" and failure["message"] == "boom"
    if suite == "theorem":
        pi = calls[2][0]
    else:   # the third (i, j) case of the first representation
        pi = random_genuine_rep(char_table(build_sl2(3)), random.Random(42), max_degree=60)
        assert (failure["rep"], failure["i"], failure["j"]) == ("random:0", 0, 2)
    assert parse_rep(failure["expr"], pi.table).mults == pi.mults


def test_internal_failure_exits_3(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_dickson", boom)
    code, out, err = _run(capsys, "dickson", "--rank", "2")
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "RuntimeError", "detail": "boom"}


def test_table_subcommand_and_determinism(capsys, tmp_path):
    args = ("table", "--q", "3", "--cache-dir", str(tmp_path))
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)   # second call hits the cache
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["degrees"] == [1, 1, 1, 2, 2, 2, 3]
    assert doc["digest"]


def test_cache_roundtrip(tmp_path):
    table = char_table(build_sl2(2))
    store_table(tmp_path, table)
    build_sl2.cache_clear()       # force a fresh group object
    loaded = load_cached_table(tmp_path, "sl2", 2)
    build_sl2.cache_clear()
    fresh = get_table("sl2", 2, None)
    assert loaded is not None
    assert serialize_table(loaded) == serialize_table(fresh)


def _encoding(doc) -> str:
    """`doc` written as the cache writes a table."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_cache_rejects_corruption(tmp_path):
    from sl2swc.cli import cache_path

    table = char_table(build_sl2(2))
    store_table(tmp_path, table)
    path = cache_path(tmp_path, "sl2", 2)
    doc = json.loads(path.read_text())
    doc["degrees"][0] = 999
    path.write_text(_encoding(doc))
    build_sl2.cache_clear()
    assert load_cached_table(tmp_path, "sl2", 2) is None


def _digest_valid(doc):
    doc = dict(doc)
    doc["digest"] = cli._digest(doc)
    return doc


def _other_table(group, q):
    return serialize_table(char_table((build_sl2 if group == "sl2" else cli.build_gl2)(q)))


def _fresh(capsys, tmp_path, q):
    """The stdout of a cold `table --q q`."""
    code, fresh, err = _run(capsys, "table", "--q", str(q), "--cache-dir", str(tmp_path / "fresh"))
    assert code == 0 and err == ""
    return fresh


def _rejection(capsys, cache_dir, q, text, fresh):
    """The reason `table --q q` gives for refusing a cache file that holds
    `text`; it must print the cold build `fresh` and replace the file with it."""
    path = cli.cache_path(cache_dir, "sl2", q)
    cache_dir.mkdir()
    path.write_text(text)
    build_sl2.cache_clear()       # a fresh group, as in a new process
    code, out, err = _run(capsys, "table", "--q", str(q), "--cache-dir", str(cache_dir))
    assert code == 0 and out == fresh
    assert path.read_text() == fresh
    [line] = err.splitlines()
    note = json.loads(line)
    assert note["cache"] == "rejected" and note["path"] == str(path)
    return note["reason"]


def _difference(text, fresh, key):
    """The reason for refusing `text`: its first line that differs from the
    cold build `fresh`, which falls in the top-level `key` of `fresh`."""
    pairs = itertools.zip_longest(text.splitlines(), fresh.splitlines())
    line = next(n for n, (a, b) in enumerate(pairs, 1) if a != b)
    return (f"ValueError: differs from the rebuilt table at line {line}"
            + (f", in {key!r}" if key else ""))


@pytest.mark.parametrize("bad, key", [
    ([], None),
    (_digest_valid({"schema": cli.SCHEMA, "version": cli.TABLE_VERSION}), "class_orders"),
    (_other_table("sl2", 5), "class_orders"),
    (_other_table("gl2", 3), "class_orders"),
    (_digest_valid({**_other_table("sl2", 3), "note": "extra"}), "digest"),
], ids=["list", "missing-keys", "other-q", "other-group", "unknown-key"])
def test_cache_rejects_unusable_payload(capsys, tmp_path, bad, key):
    fresh = _fresh(capsys, tmp_path, 3)
    text = _encoding(bad)
    assert _rejection(capsys, tmp_path / "bad", 3, text, fresh) == _difference(text, fresh, key)


@pytest.mark.parametrize("field, i, value", [
    ("degrees", 1, 5), ("fs", 0, -1), ("dual", 0, 1), ("omega_minus1", 0, -1),
])
def test_cache_rejects_fields_the_values_contradict(capsys, tmp_path, field, i, value):
    # the digest guards against accidents only: anyone can recompute it, and
    # it comes before every key but the class data and the degrees
    fresh = _fresh(capsys, tmp_path, 5)
    doc = json.loads(fresh)
    assert doc[field][i] != value
    doc[field][i] = value
    text = _encoding(doc)
    assert _rejection(capsys, tmp_path / "kept", 5, text, fresh) == _difference(text, fresh, field)
    text = _encoding(_digest_valid(doc))
    assert _rejection(capsys, tmp_path / "redigested", 5, text, fresh) == _difference(
        text, fresh, min(field, "digest"))


def _tampered_reasons(capsys, tmp_path, tamper):
    """The reasons `table --q 5` gives for refusing a cache file whose values
    `tamper` changed, with the file's digest kept and recomputed."""
    fresh = _fresh(capsys, tmp_path, 5)
    doc = json.loads(fresh)
    tamper(doc["values"])
    kept, redigested = _encoding(doc), _encoding(_digest_valid(doc))
    assert (_rejection(capsys, tmp_path / "kept", 5, kept, fresh)
            == _difference(kept, fresh, "values"))
    assert (_rejection(capsys, tmp_path / "redigested", 5, redigested, fresh)
            == _difference(redigested, fresh, "digest"))


def test_cache_rejects_values_the_table_cannot_use(capsys, tmp_path):
    # one character's values copied over another's are no table
    def tamper(values):
        values[3][2] = values[4][2]

    _tampered_reasons(capsys, tmp_path, tamper)


def test_cache_rejects_tampered_values(capsys, tmp_path):
    # adding 1 to one coefficient of one value used to print the altered table
    def tamper(values):
        values[1][0][0] += 1

    _tampered_reasons(capsys, tmp_path, tamper)


def test_cache_rejects_a_value_moved_by_a_multiple_of_l(capsys, tmp_path):
    # the residues mod l are unchanged, but the value is not the fold of its
    # own spectrum
    from sl2swc.characters import _modulus
    from sl2swc.groups import conjugacy

    G = build_sl2(5)
    l = _modulus(G, conjugacy(G))

    def tamper(values):
        values[3][2][1] += l

    _tampered_reasons(capsys, tmp_path, tamper)


@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "1.0"])
def test_cache_rejects_an_integer_written_otherwise(capsys, tmp_path, value):
    # True == 1 == 1.0 in Python, so a comparison of parsed values accepted
    # these and printed them
    fresh = _fresh(capsys, tmp_path, 5)
    doc = json.loads(fresh)
    assert doc["degrees"][0] == 1
    doc["degrees"][0] = value
    text = _encoding(_digest_valid(doc))
    assert _rejection(capsys, tmp_path / "bad", 5, text, fresh) == _difference(
        text, fresh, "degrees")


def test_cache_rejects_a_truncated_file(capsys, tmp_path):
    fresh = _fresh(capsys, tmp_path, 5)
    text = fresh[:len(fresh) // 2]
    assert _rejection(capsys, tmp_path / "bad", 5, text, fresh) == _difference(
        text, fresh, "values")


def test_cache_rejects_trailing_data(capsys, tmp_path):
    fresh = _fresh(capsys, tmp_path, 5)
    reason = _rejection(capsys, tmp_path / "bad", 5, fresh + "\n", fresh)
    assert reason == f"ValueError: runs past the rebuilt table at line {fresh.count(chr(10)) + 1}"


def test_a_reason_names_its_key_when_blocks_split_it_from_its_indent(
        capsys, monkeypatch, tmp_path):
    # with one piece of the encoder per block, the line break and indent
    # before each top-level key end the block before the key's
    fresh = _fresh(capsys, tmp_path, 5)
    doc = json.loads(fresh)
    doc["fs"][0] = -doc["fs"][0]
    text = _encoding(doc)
    monkeypatch.setattr(cli, "islice", lambda pieces, n: itertools.islice(pieces, 1))
    assert _rejection(capsys, tmp_path / "bad", 5, text, fresh) == _difference(text, fresh, "fs")


def test_cache_rejects_other_line_ends(capsys, tmp_path):
    # the file is read without newline translation, so bytes are compared
    fresh = _fresh(capsys, tmp_path, 5)
    reason = _rejection(capsys, tmp_path / "bad", 5, fresh.replace("\n", "\r\n"), fresh)
    assert reason == "ValueError: differs from the rebuilt table at line 1"


def test_cache_load_compares_a_table_the_process_already_holds(capsys, tmp_path):
    # the group, and so its table, outlive a load in one process: the file is
    # compared with that table all the same
    fresh = _fresh(capsys, tmp_path, 5)
    char_table(build_sl2(5))
    doc = json.loads(fresh)
    doc["values"][1][0][0] += 1
    bad_dir = tmp_path / "bad"
    path = cli.cache_path(bad_dir, "sl2", 5)
    bad_dir.mkdir()
    text = _encoding(_digest_valid(doc))
    path.write_text(text)
    assert load_cached_table(bad_dir, "sl2", 5) is None
    note = json.loads(capsys.readouterr().err)
    assert note["reason"] == _difference(text, fresh, "digest")
    assert serialize_table(load_cached_table(tmp_path / "fresh", "sl2", 5)) == json.loads(fresh)


def test_a_warm_load_never_parses_the_file(capsys, monkeypatch, tmp_path):
    cache = ("--cache-dir", str(tmp_path))
    code, cold, _ = _run(capsys, "table", "--q", "5", *cache)
    assert code == 0
    code, swc_cold, _ = _run(capsys, "swc", "--q", "5", "--rep", "reg", "--cache-dir",
                             str(tmp_path / "other"))
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("the cache file was parsed")

    monkeypatch.setattr(cli.json, "loads", refuse)
    build_sl2.cache_clear()
    assert _run(capsys, "table", "--q", "5", *cache) == (0, cold, "")
    build_sl2.cache_clear()
    assert _run(capsys, "swc", "--q", "5", "--rep", "reg", *cache) == (0, swc_cold, "")


@pytest.mark.parametrize("group, q", [("sl2", q) for q in (2, 3, 4, 5, 7, 8, 9)] + [("gl2", 3)])
def test_digest_hashes_the_one_shot_compact_text(group, q):
    import hashlib

    body = cli._table_body(char_table((build_sl2 if group == "sl2" else cli.build_gl2)(q)))
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    assert cli._digest(body) == cli._digest({**body, "digest": "x"})
    assert cli._digest(body) == hashlib.sha256(blob).hexdigest()


def test_table_serializes_once(capsys, monkeypatch, tmp_path):
    # a cold table is serialized for its file, a warm one for the comparison
    # with the file, and neither a second time for stdout
    calls = []
    body = cli._table_body

    def counted(table):
        calls.append(table)
        return body(table)

    monkeypatch.setattr(cli, "_table_body", counted)
    build_sl2.cache_clear()   # fresh groups: no table is held yet
    code, cold, _ = _run(capsys, "table", "--q", "7", "--cache-dir", str(tmp_path))
    assert code == 0 and len(calls) == 1
    build_sl2.cache_clear()
    code, warm, err = _run(capsys, "table", "--q", "7", "--cache-dir", str(tmp_path))
    assert code == 0 and err == "" and warm == cold and len(calls) == 2


def test_a_plain_swc_never_serializes(capsys, monkeypatch):
    # without --cache-dir the table stays in memory
    calls = []
    body = cli._table_body
    monkeypatch.setattr(cli, "_table_body", lambda table: calls.append(table) or body(table))
    code, out, err = _run(capsys, "swc", "--q", "5", "--rep", "reg")
    assert code == 0 and err == "" and json.loads(out)["degree"] == 120
    assert calls == []


def test_a_warm_load_hashes_once(monkeypatch, tmp_path):
    # the rebuilt table's digest is part of its encoding, which the file is
    # compared with; the file itself is not hashed
    store_table(tmp_path, char_table(build_sl2(5)))
    calls = []
    digest = cli._digest

    def counted(payload):
        calls.append(payload)
        return digest(payload)

    monkeypatch.setattr(cli, "_digest", counted)
    build_sl2.cache_clear()
    assert load_cached_table(tmp_path, "sl2", 5) is not None
    assert len(calls) == 1


def test_a_cold_table_is_encoded_once(capsys, monkeypatch, tmp_path):
    # stdout is the file's text, copied after the rename
    calls = []
    write_json = cli._write_json

    def counted(payload, fh):
        calls.append(payload)
        write_json(payload, fh)

    monkeypatch.setattr(cli, "_write_json", counted)
    build_sl2.cache_clear()
    code, out, err = _run(capsys, "table", "--q", "7", "--cache-dir", str(tmp_path))
    assert code == 0 and err == "" and len(calls) == 1
    assert out == cli.cache_path(tmp_path, "sl2", 7).read_text()
    assert out == json.dumps(serialize_table(char_table(build_sl2(7))),
                             indent=2, sort_keys=True) + "\n"


def test_a_failed_store_prints_nothing_and_leaves_no_file(capsys, monkeypatch, tmp_path):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    code, out, err = _run(capsys, "table", "--q", "3", "--cache-dir", str(tmp_path))
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "OSError", "detail": "replace refused"}
    assert list(tmp_path.iterdir()) == []


# OpenSSL's libcrypto comes in with hashlib's _hashlib: only a command that
# encodes a table with its digest (`table`, or `swc --cache-dir`) may map it
@pytest.mark.parametrize("argv, hashed", [
    (("verify", "--q", "3", "--suite", "theorem", "--trials", "1"), False),
    (("dickson", "--rank", "2"), False),
    (("cohomology", "--group", "Q8", "--max-degree", "4"), False),
    (("swc", "--q", "3", "--rep", "reg"), False),
    # the printed table carries its digest
    (("table", "--q", "3"), True),
], ids=lambda a: a[0] if isinstance(a, tuple) else None)
def test_only_a_table_file_loads_hashlib(tmp_path, argv, hashed):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
           "HOME": str(tmp_path)}
    code = ("import sys\n"
            "from sl2swc.cli import run\n"
            "code = run(sys.argv[1:])\n"
            "print(code, '_hashlib' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.stderr.split() == ["0", str(hashed)]
    assert list(tmp_path.iterdir()) == []


def test_swc_syntax_error_builds_no_table(capsys, tmp_path):
    code, out, err = _run(capsys, "swc", "--q", "13", "--rep", "reg +",
                          "--cache-dir", str(tmp_path / "cache"))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "RepSyntaxError"
    assert not (tmp_path / "cache").exists()

