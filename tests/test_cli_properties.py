"""Property tests of the `--rep` grammar: printing and parsing a term list
round-trip, and no expression, well formed or not, makes `swc` fail with an
internal error (exit 3).  The examples are derandomized, so every run checks
the same ones."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2swc.cli import _RepParser, print_rep_terms, run

PROPERTY = settings(max_examples=80, derandomize=True, database=None, deadline=None)

_ATOMS = st.recursive(
    st.one_of(
        st.just(("triv",)),
        st.just(("reg",)),
        st.tuples(st.just("X"), st.integers(0, 20)),
        st.tuples(st.sampled_from(["ps", "cusp"]), st.integers(0, 12)),
    ),
    lambda inner: inner.map(lambda a: ("S", a)),
    max_leaves=3,
)

# the grammar cannot write a leading negative term
_TERMS = st.tuples(
    st.tuples(st.integers(0, 100), _ATOMS),
    st.lists(st.tuples(st.integers(-100, 100), _ATOMS), max_size=3),
).map(lambda t: [t[0], *t[1]])

_TOKENS = ["0", "1", "2", "7", "64", "triv", "reg", "X1", "X2", "X3", "X5", "X0", "X99",
           "S", "ps", "cusp", "foo", "(", ")", "*", "+", "-", " ", "@"]

_REP_STRINGS = st.one_of(
    _TERMS.map(print_rep_terms),
    st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
)


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("tables"))


@PROPERTY
@given(terms=_TERMS)
def test_printed_terms_parse_back(terms):
    assert _RepParser(print_rep_terms(terms)).parse() == terms


@pytest.mark.parametrize("q", ["4", "5"])
@PROPERTY
@given(rep=_REP_STRINGS)
def test_no_rep_string_is_an_internal_error(shared_cache, q, rep):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["swc", "--q", q, "--rep", rep, "--cache-dir", shared_cache])
    assert code != 3, (rep, err.getvalue())
