"""Command-line front end: representation-expression parsing, table / class /
verification pipelines, JSON emission, and a persistent character-table cache.

All output is deterministic JSON on stdout (schema "sl2swc/1"); errors are
JSON objects on stderr.  Exit codes: 0 success or all suites pass, 1 suite
failure, 2 usage error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from .algebra import Cyclo, factor_prime_power
from .characters import (
    BadConstructionParams,
    CharacterTable,
    ClassFunction,
    NotOrthogonal,
    VirtualRep,
    char_table,
    cuspidal_sl,
    principal_series_sl,
    regular_rep,
    symmetrize,
    table_from_characters,
    trivial_rep,
)
from .cohomology import dickson, dickson_ring, genq_ring, poly_ring, quaternion8_ring, sl2_odd_ring
from .groups import SIZE_CAP, build_gl2, build_sl2, conjugacy
from .oracle import run_suite
from .swc import TRUNCATION_CAP, swc_report

SCHEMA = "sl2swc/1"
CACHE_ENV = "SL2SWC_CACHE"


class UsageError(Exception):
    pass


class RepSyntaxError(Exception):
    def __init__(self, message, pos):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


class UnknownIrreducible(Exception):
    pass


# ---------------------------------------------------------------------------
# Representation expressions
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+\d*)|([()*+-]))")


def _tokenize(src: str):
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == pos:
            if src[pos:].strip():
                raise RepSyntaxError(f"unexpected character {src[pos]!r}", pos)
            break
        if m.group(1):
            out.append(("INT", int(m.group(1)), m.start(1)))
        elif m.group(2):
            out.append(("NAME", m.group(2), m.start(2)))
        else:
            out.append(("SYM", m.group(3), m.start(3)))
        pos = m.end()
    out.append(("END", None, len(src)))
    return out


class _RepParser:
    """expr := term (('+'|'-') term)*;  term := [INT '*'] atom;
    atom := triv | reg | X<k> | S(atom) | ps(INT) | cusp(INT)."""

    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym):
        kind, val, pos = self.next()
        if kind != "SYM" or val != sym:
            raise RepSyntaxError(f"expected {sym!r}", pos)

    def parse(self):
        terms = [(1, *self.term())]
        while True:
            kind, val, pos = self.peek()
            if kind == "SYM" and val in "+-":
                self.next()
                sign = 1 if val == "+" else -1
                w, atom = self.term()
                terms.append((sign, w, atom))
            elif kind == "END":
                break
            else:
                raise RepSyntaxError("expected '+', '-' or end of input", pos)
        return [(s * w, atom) for s, w, atom in terms]

    def term(self):
        kind, val, pos = self.peek()
        weight = 1
        if kind == "INT":
            self.next()
            weight = val
            self.expect_sym("*")
        return weight, self.atom()

    def atom(self):
        kind, val, pos = self.next()
        if kind != "NAME":
            raise RepSyntaxError("expected an atom (triv, reg, X<k>, S, ps, cusp)", pos)
        if val == "triv":
            return ("triv",)
        if val == "reg":
            return ("reg",)
        if val == "S":
            self.expect_sym("(")
            inner = self.atom()
            self.expect_sym(")")
            return ("S", inner)
        if val in ("ps", "cusp"):
            self.expect_sym("(")
            kind2, val2, pos2 = self.next()
            if kind2 != "INT":
                raise RepSyntaxError(f"{val} takes an integer exponent", pos2)
            self.expect_sym(")")
            return (val, val2)
        m = re.fullmatch(r"X(\d+)", val)
        if m:
            return ("X", int(m.group(1)))
        raise RepSyntaxError(f"unknown atom {val!r}", pos)


def _atom_to_rep(atom, table: CharacterTable) -> VirtualRep:
    kind = atom[0]
    if kind == "triv":
        return trivial_rep(table)
    if kind == "reg":
        return regular_rep(table)
    if kind == "X":
        k = atom[1]
        if not 1 <= k <= table.nchars():
            raise UnknownIrreducible(
                f"X{k} out of range; the table has {table.nchars()} irreducibles")
        mults = [0] * table.nchars()
        mults[k - 1] = 1
        return VirtualRep(table, mults)
    if kind == "S":
        return symmetrize(_atom_to_rep(atom[1], table))
    if kind == "ps":
        if table.group.kind != "sl2":
            raise BadConstructionParams("ps(...) is defined over SL(2,q) tables")
        return principal_series_sl(table.group.q, atom[1])
    if kind == "cusp":
        if table.group.kind != "sl2":
            raise BadConstructionParams("cusp(...) is defined over SL(2,q) tables")
        return cuspidal_sl(table.group.q, atom[1])
    raise AssertionError(f"unhandled atom {atom!r}")


def parse_rep(src: str, table: CharacterTable) -> VirtualRep:
    terms = _RepParser(src).parse()
    out = VirtualRep(table, [0] * table.nchars())
    for weight, atom in terms:
        out = out + _atom_to_rep(atom, table).scaled(weight)
    return out


def print_rep_terms(terms) -> str:
    def atom_str(atom):
        kind = atom[0]
        if kind in ("triv", "reg"):
            return kind
        if kind == "X":
            return f"X{atom[1]}"
        if kind == "S":
            return f"S({atom_str(atom[1])})"
        return f"{kind}({atom[1]})"

    parts = []
    for n, (w, atom) in enumerate(terms):
        mag = abs(w)
        body = atom_str(atom) if mag == 1 else f"{mag}*{atom_str(atom)}"
        if n == 0:
            if w < 0:
                raise ValueError("a leading negative term is not expressible in the grammar")
            parts.append(body)
        else:
            parts.append(("+ " if w >= 0 else "- ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Character table serialization and cache
# ---------------------------------------------------------------------------

TABLE_VERSION = 1


def serialize_table(table: CharacterTable) -> dict:
    G = table.group
    conj = table.conj
    payload = {
        "schema": SCHEMA,
        "kind": "character_table",
        "version": TABLE_VERSION,
        "group": G.kind,
        "q": G.q,
        "order": len(G),
        "exponent": table.m,
        "num_classes": conj.nclasses(),
        "class_reps": _class_reps(G, conj),
        "class_sizes": list(conj.sizes),
        "class_orders": list(conj.orders),
        "degrees": list(table.degrees),
        "fs": list(table.fs),
        "dual": list(table.dual),
        "omega_minus1": list(table.omega_minus1) if table.omega_minus1 else None,
        "values": [[list(v.coeffs) for v in chi.values] for chi in table.chars],
    }
    payload["digest"] = _digest(payload)
    return payload


def _class_reps(G, conj) -> list:
    """Each class representative as its four entries' coefficient lists."""
    digits = G.field.digits
    return [[list(digits[entry]) for entry in G.elem(r)] for r in conj.reps]


def _digest(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k != "digest"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def table_from_payload(payload: dict) -> CharacterTable:
    """Rebuild group + conjugacy deterministically and attach cached values.
    The payload must be what the rebuilt table serializes to: the fields the
    values determine (degrees, indicators, duals, central characters) are
    derived again, not read, since anyone can recompute the digest."""
    G = (build_sl2 if payload["group"] == "sl2" else build_gl2)(payload["q"])
    if G._char_table is not None:
        return G._char_table
    conj = conjugacy(G)
    if (_class_reps(G, conj) != payload["class_reps"]
            or list(conj.sizes) != payload["class_sizes"]):
        raise ValueError("cached class data does not match the rebuilt group")
    m = payload["exponent"]
    if m != conj.exponent:
        raise ValueError("cached exponent does not match the rebuilt group")
    chars = tuple(
        ClassFunction(G, conj, m, [Cyclo(m, tuple(v)) for v in row])
        for row in payload["values"]
    )
    table = table_from_characters(G, conj, m, chars)
    differ = [k for k, v in serialize_table(table).items() if k != "digest" and payload[k] != v]
    if differ:
        raise ValueError(f"cached {', '.join(differ)} differ from the rebuilt table")
    G._char_table = table
    return table


def cache_directory(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "sl2swc"


def cache_path(cache_dir: Path, kind: str, q: int) -> Path:
    return cache_dir / f"table-{kind}-{q}-v{TABLE_VERSION}.json"


_PAYLOAD_KEYS = frozenset({
    "schema", "kind", "version", "group", "q", "order", "exponent", "num_classes",
    "class_reps", "class_sizes", "class_orders", "degrees", "fs", "dual",
    "omega_minus1", "values", "digest",
})


def load_cached_table(cache_dir: Path, kind: str, q: int):
    """The cached table of the `kind` group over F_q, or None when there is
    none.  A file that cannot be used is reported as one JSON line on stderr
    and treated as absent, so the caller rebuilds the table."""
    path = cache_path(cache_dir, kind, q)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        return _reject(path, f"unreadable: {e}")
    if not isinstance(payload, dict):
        return _reject(path, f"not a table object but a JSON {type(payload).__name__}")
    missing = sorted(_PAYLOAD_KEYS - payload.keys())
    if missing:
        return _reject(path, f"missing keys: {', '.join(missing)}")
    if payload["version"] != TABLE_VERSION or payload["schema"] != SCHEMA:
        return _reject(path, "schema or version differs")
    if payload["digest"] != _digest(payload):
        return _reject(path, "digest mismatch")
    if payload["group"] != kind or payload["q"] != q:
        return _reject(path, f"holds the {payload['group']} table for q={payload['q']}, "
                             f"not the {kind} table for q={q}")
    try:
        return table_from_payload(payload)
    except (ValueError, TypeError) as e:
        return _reject(path, str(e))


def _reject(path: Path, reason: str) -> None:
    print(json.dumps({"cache": "rejected", "path": str(path), "reason": reason}),
          file=sys.stderr)
    return None


def store_table(cache_dir: Path, table: CharacterTable) -> dict:
    payload = serialize_table(table)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_path(cache_dir, table.group.kind, table.group.q)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".table-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)  # atomic on POSIX
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return payload


def get_table(kind: str, q: int, cache_dir: Path | None) -> CharacterTable:
    if cache_dir is not None:
        cached = load_cached_table(cache_dir, kind, q)
        if cached is not None:
            return cached
    table = char_table((build_sl2 if kind == "sl2" else build_gl2)(q))
    if cache_dir is not None:
        store_table(cache_dir, table)
    return table


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_table(args) -> int:
    cache_dir = cache_directory(args.cache_dir)
    table = get_table(args.group, args.q, cache_dir)
    _emit(serialize_table(table))
    return 0


def cmd_swc(args) -> int:
    cache_dir = cache_directory(args.cache_dir)
    table = get_table("sl2", args.q, cache_dir)
    pi = parse_rep(args.rep, table)
    report = swc_report(pi, args.truncate)
    _emit(report.to_json_dict())
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.q, args.trials, args.seed)
    ok = all(r.ok() for r in reports)
    _emit({
        "schema": SCHEMA,
        "q": args.q,
        "ok": ok,
        "suites": [r.to_json_dict() for r in reports],
    })
    return 0 if ok else 1


def cmd_dickson(args) -> int:
    r = args.rank
    if r < 1 or r > 6:
        raise UsageError("rank must be between 1 and 6")
    D = 2**r - 1
    degrees = dickson_ring(r, D).degs
    classes = {f"d{i}": " + ".join(d.monomial_strings(deg))
               for i, (d, deg) in enumerate(zip(dickson(r, D), degrees), start=1)}
    _emit({"schema": SCHEMA, "rank": r, "degrees": list(degrees), "dickson": classes})
    return 0


_RING_BUILDERS = {"Q8": quaternion8_ring, "sl2odd": sl2_odd_ring}


def _resolve_ring(spec: str, D: int):
    if spec in _RING_BUILDERS:
        return _RING_BUILDERS[spec](D), spec
    m = re.fullmatch(r"Q2n:(\d+)", spec)
    if m:
        n = int(m.group(1))
        if n <= 3:
            raise UsageError("Q2n:N needs N > 3 (use Q8 for order 8)")
        return genq_ring(D), spec
    m = re.fullmatch(r"c2:(\d+)", spec)
    if m:
        r = int(m.group(1))
        if not 1 <= r <= 6:
            raise UsageError("c2:R needs 1 <= R <= 6")
        names = tuple(f"v{i}" for i in range(1, r + 1))
        return poly_ring(names, D), spec
    raise UsageError(f"unknown ring {spec!r}; use Q8, Q2n:N, sl2odd or c2:R")


def cmd_cohomology(args) -> int:
    ring, name = _resolve_ring(args.group, args.max_degree)
    rels = [
        " + ".join(ring.monomial_string(mon) for mon in sorted(rel, reverse=True))
        for _, rel in ring.relations
    ]
    _emit({
        "schema": SCHEMA,
        "ring": name,
        "max_degree": args.max_degree,
        "generators": [
            {"name": n, "degree": d} for n, d in zip(ring.names, ring.degs)
        ],
        "relations": rels,
        "dims": [ring.dim(d) for d in range(args.max_degree + 1)],
    })
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def prime_power(text: str) -> int:
    """A field order q: a prime power between 2 and SIZE_CAP."""
    q = int(text)
    try:
        factor_prime_power(q)
    except ValueError:
        raise argparse.ArgumentTypeError(f"q={q} is not a prime power") from None
    if q > SIZE_CAP:
        raise argparse.ArgumentTypeError(f"q={q} exceeds cap {SIZE_CAP}")
    return q


def nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def degree(text: str) -> int:
    """A truncation or maximal degree: between 0 and TRUNCATION_CAP."""
    n = nonnegative_int(text)
    if n > TRUNCATION_CAP:
        raise argparse.ArgumentTypeError(f"{n} exceeds cap {TRUNCATION_CAP}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sl2swc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="emit an exact character table")
    t.add_argument("--q", type=prime_power, required=True)
    t.add_argument("--group", choices=("sl2", "gl2"), default="sl2")
    t.add_argument("--cache-dir", default=None)
    t.set_defaults(fn=cmd_table)

    s = sub.add_parser("swc", help="total characteristic class of a representation")
    s.add_argument("--q", type=prime_power, required=True)
    s.add_argument("--rep", required=True)
    s.add_argument("--truncate", type=degree, default=None)
    s.add_argument("--cache-dir", default=None)
    s.set_defaults(fn=cmd_swc)

    v = sub.add_parser("verify", help="run oracle verification suites")
    v.add_argument("--q", type=prime_power, required=True)
    v.add_argument("--suite", choices=("theorem", "wu", "gow", "obstruction", "all"),
                   required=True)
    v.add_argument("--trials", type=nonnegative_int, default=None)
    v.add_argument("--seed", type=int, default=42)
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("dickson", help="Dickson invariants of rank R")
    d.add_argument("--rank", type=int, required=True)
    d.set_defaults(fn=cmd_dickson)

    c = sub.add_parser("cohomology", help="graded dimensions and relations")
    c.add_argument("--group", required=True)
    c.add_argument("--max-degree", type=degree, required=True)
    c.set_defaults(fn=cmd_cohomology)
    return p


_USAGE_ERRORS = (
    UsageError,
    RepSyntaxError,
    UnknownIrreducible,
    BadConstructionParams,
    NotOrthogonal,
)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except Exception as e:  # internal failures still produce structured output
        print(json.dumps({"error": type(e).__name__, "detail": str(e)}),
              file=sys.stderr)
        return 2 if isinstance(e, _USAGE_ERRORS) else 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
