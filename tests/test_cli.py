import json
import math
import random
import re
import shlex
from pathlib import Path

import pytest

from sl2swc import cli
from sl2swc.characters import (
    char_table,
    oir_labels,
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
from sl2swc.groups import build_sl2


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
], ids=" ".join)
def test_bad_arguments_are_usage_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UsageError"


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


def test_default_cache_is_the_tests_own(capsys, monkeypatch, tmp_path, default_cache_dir):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    code, _, _ = _run(capsys, "swc", "--q", "3", "--rep", "X99")
    assert code == 2
    assert [p.name for p in default_cache_dir.iterdir()] == ["table-sl2-3-v1.json"]
    assert not (tmp_path / "home").exists()


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


def test_cache_rejects_corruption(tmp_path):
    from sl2swc.cli import cache_path

    table = char_table(build_sl2(2))
    store_table(tmp_path, table)
    path = cache_path(tmp_path, "sl2", 2)
    doc = json.loads(path.read_text())
    doc["degrees"][0] = 999
    path.write_text(json.dumps(doc))
    build_sl2.cache_clear()
    assert load_cached_table(tmp_path, "sl2", 2) is None


def _digest_valid(doc):
    doc = dict(doc)
    doc["digest"] = cli._digest(doc)
    return doc


def _other_table(group, q):
    return serialize_table(char_table((build_sl2 if group == "sl2" else cli.build_gl2)(q)))


@pytest.mark.parametrize("bad, why", [
    ([], "not a table object"),
    (_digest_valid({"schema": cli.SCHEMA, "version": cli.TABLE_VERSION}), "missing keys"),
    (_other_table("sl2", 5), "q=5"),
    (_other_table("gl2", 3), "gl2 table"),
], ids=["list", "missing-keys", "other-q", "other-group"])
def test_cache_rejects_unusable_payload(capsys, tmp_path, bad, why):
    fresh_dir, bad_dir = tmp_path / "fresh", tmp_path / "bad"
    code, fresh, err = _run(capsys, "table", "--q", "3", "--cache-dir", str(fresh_dir))
    assert code == 0 and err == ""
    path = cli.cache_path(bad_dir, "sl2", 3)
    bad_dir.mkdir()
    path.write_text(json.dumps(bad))
    code, out, err = _run(capsys, "table", "--q", "3", "--cache-dir", str(bad_dir))
    assert code == 0 and out == fresh
    lines = err.splitlines()
    assert len(lines) == 1
    note = json.loads(lines[0])
    assert note["cache"] == "rejected" and note["path"] == str(path)
    assert why in note["reason"]
    # the rebuilt table replaced the unusable file
    assert json.loads(path.read_text()) == json.loads(fresh)


@pytest.mark.parametrize("field, i, value", [
    ("degrees", 1, 5), ("fs", 0, -1), ("dual", 0, 1), ("omega_minus1", 0, -1),
])
def test_cache_rejects_fields_the_values_contradict(capsys, tmp_path, field, i, value):
    # the digest guards against accidents only: anyone can recompute it
    fresh_dir, bad_dir = tmp_path / "fresh", tmp_path / "bad"
    code, fresh, err = _run(capsys, "table", "--q", "5", "--cache-dir", str(fresh_dir))
    assert code == 0 and err == ""
    doc = json.loads(fresh)
    assert doc[field][i] != value
    doc[field][i] = value
    path = cli.cache_path(bad_dir, "sl2", 5)
    bad_dir.mkdir()
    path.write_text(json.dumps(_digest_valid(doc)))
    build_sl2.cache_clear()       # a fresh group, so the file is read
    code, out, err = _run(capsys, "table", "--q", "5", "--cache-dir", str(bad_dir))
    assert code == 0 and out == fresh
    note = json.loads(err)
    assert note["cache"] == "rejected" and note["path"] == str(path)
    assert field in note["reason"]
    assert json.loads(path.read_text()) == json.loads(fresh)


def test_payload_keys_match_serialized_table():
    assert set(serialize_table(char_table(build_sl2(2)))) == cli._PAYLOAD_KEYS
