"""Command-line front end: representation-expression parsing, table / class /
verification pipelines, JSON emission, and a character-table file under --cache-dir.

All output is deterministic JSON on stdout (schema "sl2swc/1"); errors are
JSON objects on stderr.  Exit codes: 0 success or all suites pass, 1 suite
failure, 2 usage error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
import tempfile
from itertools import islice
from pathlib import Path

from .algebra import factor_prime_power
from .characters import (
    BadConstructionParams,
    CharacterTable,
    NotOrthogonal,
    VirtualRep,
    char_table,
    check_exponent,
    cuspidal_sl,
    principal_series_sl,
    regular_rep,
    symmetrize,
    trivial_rep,
)
from .cohomology import dickson, dickson_ring, genq_ring, poly_ring, quaternion8_ring, sl2_odd_ring
from .groups import SIZE_CAP, build_gl2, build_sl2
from .oracle import run_suite
from .swc import TRUNCATION_CAP, swc_report

SCHEMA = "sl2swc/1"


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


def rep_from_terms(terms, table: CharacterTable) -> VirtualRep:
    """The sum of the parsed (weight, atom) terms over `table`."""
    out = VirtualRep(table, [0] * table.nchars())
    for weight, atom in terms:
        out = out + _atom_to_rep(atom, table).scaled(weight)
    return out


def parse_rep(src: str, table: CharacterTable) -> VirtualRep:
    return rep_from_terms(_RepParser(src).parse(), table)


def _innermost(atom):
    """`atom` without its S(...) wrappers."""
    while atom[0] == "S":
        atom = atom[1]
    return atom


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
    payload = _table_body(table)
    return {**payload, "digest": _digest(payload)}


def _table_body(table: CharacterTable) -> dict:
    """The serialization without its digest."""
    G = table.group
    conj = table.conj
    # one list per distinct value, shared as the table shares its tuples
    lists = {id(v): list(v) for v in {id(v): v for row in table.coeffs for v in row}.values()}
    return {
        "schema": SCHEMA,
        "kind": "character_table",
        "version": TABLE_VERSION,
        "group": G.kind,
        "q": G.q,
        "order": len(G),
        "exponent": table.m,
        "num_classes": conj.nclasses(),
        # each class representative as its four entries' coefficient lists
        "class_reps": [[list(G.field.digits[e]) for e in G.elem(r)] for r in conj.reps],
        "class_sizes": list(conj.sizes),
        "class_orders": list(conj.orders),
        "degrees": list(table.degrees),
        "fs": list(table.fs),
        "dual": list(table.dual),
        "omega_minus1": list(table.omega_minus1) if table.omega_minus1 else None,
        "values": [[lists[id(v)] for v in row] for row in table.coeffs],
    }


def _digest(payload: dict) -> str:
    """sha256 of the payload's compact JSON without its digest, hashed a key and
    a row of `values` at a time: the text of SL(2,59)'s table does not fit in memory."""
    import hashlib  # here: only a process that encodes a table with its digest maps OpenSSL
    compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    h = hashlib.sha256()
    for n, key in enumerate(sorted(payload.keys() - {"digest"})):
        h.update(f"{',' if n else '{'}{compact(key)}:".encode())
        if key != "values":
            h.update(compact(payload[key]).encode())
            continue
        for i, row in enumerate(payload[key]):
            h.update(f"{',' if i else '['}{compact(row)}".encode())
        h.update(b"]" if payload[key] else b"[]")
    h.update(b"}")
    return h.hexdigest()


def table_from_payload(fh, kind: str, q: int) -> CharacterTable:
    """The table of the `kind` group over F_q, built and certified as a cold
    build is (`char_table`), if `fh` reads exactly its encoding: compared a
    block at a time, the file is never parsed or held whole.  The first
    difference raises ValueError naming its line and top-level key."""
    table = char_table((build_sl2 if kind == "sl2" else build_gl2)(q))
    line, key, tail = 1, None, ""
    for block in _blocks(serialize_table(table)):
        got = fh.read(len(block))
        same = len(block) if got == block else len(os.path.commonprefix((got, block)))
        # a key is one piece of the encoder; the indent before it may end the last block
        text = tail + block
        start = text.rfind('\n  "', 0, len(tail) + same + 1)
        key = text[start + 4:text.index('"', start + 4)] if start >= 0 else key
        if same < len(block):
            where = f"line {line + block.count(chr(10), 0, same)}"
            raise ValueError(f"differs from the rebuilt table at {where}"
                             + (f", in {key!r}" if key else ""))
        line += block.count("\n")
        tail = block[-3:]
    if fh.read(1):
        raise ValueError(f"runs past the rebuilt table at line {line}")
    return table


def cache_path(cache_dir: Path, kind: str, q: int) -> Path:
    return cache_dir / f"table-{kind}-{q}-v{TABLE_VERSION}.json"


def load_cached_table(cache_dir: Path, kind: str, q: int, *, out=None):
    """The cached table of the `kind` group over F_q, or None when there is none
    or the file is not its encoding byte for byte, which one JSON line on stderr
    reports.  On a hit, `out`, when given, receives the file's text."""
    path = cache_path(cache_dir, kind, q)
    if not path.exists():
        return None
    try:
        fh = path.open(newline="")   # no newline translation: bytes are compared
    except OSError as e:
        return _reject(path, e)
    with fh:
        try:
            table = table_from_payload(fh, kind, q)
        except (OSError, ValueError) as e:
            return _reject(path, e)
        if out is not None:
            fh.seek(0)
            shutil.copyfileobj(fh, out)
    return table


def _reject(path: Path, error: Exception) -> None:
    print(json.dumps({"cache": "rejected", "path": str(path),
                      "reason": f"{type(error).__name__}: {error}"}), file=sys.stderr)


def _blocks(payload: dict):
    """The payload as indented JSON and a newline, in blocks of pieces: an
    indented json.dumps holds every piece at once (460 MB for the 51 MB table
    of GL(2,11)), and writing the pieces one at a time takes twice as long."""
    pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    while block := "".join(islice(pieces, 1 << 16)):
        yield block
    yield "\n"


def _write_json(payload: dict, fh) -> None:
    fh.writelines(_blocks(payload))


def store_table(cache_dir: Path, table: CharacterTable, *, out=None) -> dict:
    """Write the table's file; `out`, when given, receives its text once it
    is in place, so the table is encoded once."""
    payload = serialize_table(table)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_path(cache_dir, table.group.kind, table.group.q)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".table-", suffix=".json")
    try:
        with os.fdopen(fd, "w+") as fh:
            _write_json(payload, fh)
            fh.flush()
            os.replace(tmp, path)  # atomic on POSIX
            if out is not None:
                fh.seek(0)
                shutil.copyfileobj(fh, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return payload


def get_table(kind: str, q: int, cache_dir: Path | None, *, out=None) -> CharacterTable:
    """The table, read from or written to `cache_dir` unless that is None;
    `out`, when given, receives the table's JSON, byte for byte what a file holds."""
    if cache_dir is not None:
        cached = load_cached_table(cache_dir, kind, q, out=out)
        if cached is not None:
            return cached
    table = char_table((build_sl2 if kind == "sl2" else build_gl2)(q))
    if cache_dir is not None:
        store_table(cache_dir, table, out=out)
    elif out is not None:
        _write_json(serialize_table(table), out)
    return table


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _emit(payload: dict) -> None:
    _write_json(payload, sys.stdout)


# Under 512 MiB (one BLAS thread, a shared 2-vCPU machine) `table --group gl2 --q 16`
# took 22-31 s cold and 24-35 s warm, at 418-421 MB: the peak is the 255^3 int64
# structure constants, freed before a warm load compares its file a block at a time.
# At q = 17 the 288^3 constants do not fit, so larger GL tables are refused up front.
GL_TABLE_CAP = 16


def cmd_table(args) -> int:
    if args.group == "gl2" and args.q > GL_TABLE_CAP:
        raise UsageError(f"table --group gl2 needs q <= {GL_TABLE_CAP}, not {args.q}")
    get_table(args.group, args.q, args.cache_dir, out=sys.stdout)
    return 0


def cmd_swc(args) -> int:
    terms = _RepParser(args.rep).parse()   # a syntax error costs no table,
    for _, atom in terms:                   # and neither does a bad exponent
        atom = _innermost(atom)
        if atom[0] in ("ps", "cusp"):
            check_exponent(atom[0], args.q, atom[1])
    pi = rep_from_terms(terms, get_table("sl2", args.q, args.cache_dir))
    _emit(swc_report(pi, args.truncate).to_json_dict())
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
    if q > SIZE_CAP:   # before factoring: trial division runs up to sqrt(q)
        raise argparse.ArgumentTypeError(f"q={q} exceeds cap {SIZE_CAP}")
    try:
        factor_prime_power(q)
    except ValueError:
        raise argparse.ArgumentTypeError(f"q={q} is not a prime power") from None
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


def directory(text: str) -> Path:
    if not text:
        raise argparse.ArgumentTypeError("an empty path would name the current directory")
    return Path(text)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sl2swc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="emit an exact character table")
    t.add_argument("--q", type=prime_power, required=True)
    t.add_argument("--group", choices=("sl2", "gl2"), default="sl2")
    t.add_argument("--cache-dir", type=directory, default=None)
    t.set_defaults(fn=cmd_table)

    s = sub.add_parser("swc", help="total characteristic class of a representation")
    s.add_argument("--q", type=prime_power, required=True)
    s.add_argument("--rep", required=True)
    s.add_argument("--truncate", type=degree, default=None)
    s.add_argument("--cache-dir", type=directory, default=None)
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
