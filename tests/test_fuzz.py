"""Grammar-driven fuzzing of the command line.

Formulas follow the grammar of ``exprtext``'s natural notation,

    expr := [+-] term ((+|-) term)*      term := factor ([*/ ]? factor)*
    factor := atom [^ n]                 atom := n | z | i | ( expr )

each built together with its value, an exact quotient of polynomials over
Q(i) in the oracle's Fraction-pair arithmetic, and wrapped in up to 10,000
extra parentheses.  They are fed to ``expand``, ``classify`` and ``shear``
whole, cut short, or with one character deleted, inserted or replaced,
with random config flags and config files.  Every call must exit 0 or 2
(or 1, the mismatch verdict, for ``verify``) within ``_BUDGET_S``, with no
traceback; an ``expand`` that succeeds on a whole formula must print the
coefficients of the oracle's long division of its value.
"""

import contextlib
import io
import json
import os
import tempfile
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_atlas import catalog_build
from harmonic_atlas.cli import main
from oracles import GaussRational as G
from oracles import gaussian_long_division

_BUDGET_S = 2.0  # per CLI call; the slowest call seen takes about 0.1 s

# -- polynomials over Q(i) as coefficient lists, ascending, trailing zeros cut


def _trim(p):
    p = list(p)
    while p and p[-1].is_zero:
        p.pop()
    return p


def _add(p, q):
    n = max(len(p), len(q))
    return _trim((p[k] if k < len(p) else G(0)) + (q[k] if k < len(q) else G(0))
                 for k in range(n))


def _mul(p, q):
    out = [G(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return _trim(out)


def _neg(p):
    return [-c for c in p]


# A node is (text, precedence, value); value is (num, den), or None where a
# division by zero leaves it undefined.  Precedence: 1 a sum or a signed
# term, 2 a product, 3 a power, 4 an atom.

def _paren(node, at_least):
    text, prec, value = node
    return node if prec >= at_least else (f"({text})", 4, value)


def _lift(fn, *values):
    return None if any(v is None for v in values) else fn(*values)


def _sum(a, b, op):
    (ta, _, va), (tb, _, vb) = a, _paren(b, 2)

    def value(x, y):
        num = _mul(y[0], x[1]) if op == "+" else _neg(_mul(y[0], x[1]))
        return _add(_mul(x[0], y[1]), num), _mul(x[1], y[1])
    return f"{ta}{op}{tb}", 1, _lift(value, va, vb)


def _signed(a, op):
    text, _, v = _paren(a, 2)
    return f"{op}{text}", 1, _lift(lambda x: (_neg(x[0]) if op == "-" else x[0], x[1]), v)


def _product(a, b, op):
    (ta, _, va), (tb, _, vb) = _paren(a, 2), _paren(b, 3)

    def value(x, y):
        if op != "/":
            return _mul(x[0], y[0]), _mul(x[1], y[1])
        return None if not y[0] else (_mul(x[0], y[1]), _mul(x[1], y[0]))
    return f"{ta}{op}{tb}", 2, _lift(value, va, vb)


def _power(a, k):
    text, _, v = _paren(a, 4)

    def value(x):
        num, den = _ONE, _ONE
        for _ in range(k):
            num, den = _mul(num, x[0]), _mul(den, x[1])
        return num, den
    return f"{text}^{k}", 3, _lift(value, v)


def _number(n):
    return str(n), 4, (_trim([G(n)]), _ONE)


_ONE = [G(1)]
_Z, _I = ("z", 4, ([G(0), G(1)], _ONE)), ("i", 4, ([G(0, 1)], _ONE))
# (1 - z), (1 + z), (2 - z), (1 - i z), (1 + z^2): factors with no root
# inside the disk, like the catalog's denominators
_FACTORS = [_paren(_sum(_number(a), b, op), 5)
            for a, b, op in ((1, _Z, "-"), (1, _Z, "+"), (2, _Z, "-"),
                             (1, _product(_I, _Z, " "), "-"), (1, _power(_Z, 2), "+"))]
_ATOMS = st.one_of(st.integers(0, 40).map(_number), st.sampled_from([_Z, _I, *_FACTORS]))


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        children.map(lambda a: _paren(a, 5)),
        st.tuples(pairs, st.sampled_from("+-")).map(lambda t: _sum(*t[0], t[1])),
        st.tuples(children, st.sampled_from("+-")).map(lambda t: _signed(*t)),
        st.tuples(pairs, st.sampled_from(["*", "/", " "])).map(
            lambda t: _product(*t[0], t[1])),
        st.tuples(children, st.integers(0, 5)).map(lambda t: _power(*t)),
        # a quotient whose denominator is a power of a disk-free factor
        st.tuples(children, st.sampled_from(_FACTORS), st.integers(1, 4)).map(
            lambda t: _product(t[0], _power(t[1], t[2]), "/")),
    )


_TREES = st.recursive(_ATOMS, _extend, max_leaves=12)


def _normalized(node):
    """z + z^2 (node): the normalization h(0) = 0, h'(0) = 1 that
    ``expand`` asks of a formula, whatever node is."""
    return _sum(_Z, _product(_power(_Z, 2), _paren(node, 5), " "), "+")


@st.composite
def formulas(draw, edits=True):
    """(text, value): a formula of the grammar, most often normalized,
    nested up to 10,000 extra levels deep, with its value; value is None for
    an undefined formula and, if ``edits``, for a text cut short or edited."""
    node = draw(_TREES)
    if draw(st.sampled_from([True, True, True, False])):
        node = _normalized(node)
    levels = draw(st.one_of(st.integers(0, 3), st.integers(95, 110),
                            st.integers(200, 10_000)))
    text, _, value = node
    text = "(" * levels + text + ")" * levels
    edit = draw(st.sampled_from(["none", "cut", "delete", "insert", "replace"])
                if edits else st.just("none"))
    if edit == "none":
        return text, value
    k = draw(st.integers(0, len(text) - 1))
    c = draw(st.sampled_from("z i()+-*/^0123456789 x."))
    text = {"cut": text[:k], "delete": text[:k] + text[k + 1:],
            "insert": text[:k] + c + text[k:], "replace": text[:k] + c + text[k + 1:]}[edit]
    return text, None


_NUMBERS = st.one_of(
    st.integers(-3, 48).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "1025", "4097", "1000000000", "x", "", "1e3", "nan",
                     "-inf", "0.5", "0.999", "1", "-0"]),
)
_FLAGS = ("--order", "--grid-radii", "--grid-angles", "--r-max", "--tol")
_KEYS = ("order", "grid.radii", "grid.angles", "r_max", "tol", "bogus", "")


@st.composite
def config_args(draw, config_dir):
    """Random config flags, and perhaps a random config file, as argv."""
    argv = []
    for flag in draw(st.lists(st.sampled_from(_FLAGS), max_size=3, unique=True)):
        argv += [flag, draw(_NUMBERS)]
    if draw(st.booleans()):
        lines = draw(st.lists(st.one_of(
            st.tuples(st.sampled_from(_KEYS), _NUMBERS).map("{0[0]} = {0[1]}".format),
            st.sampled_from(["# a comment", "", "order", "=", "order = 5 # five"])),
            max_size=4))
        path = os.path.join(config_dir, "fuzz.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        argv += ["--config", path]
    return argv


def _call(*argv):
    """(exit code, stdout, stderr) of one in-process CLI call; an exception
    escaping ``main`` fails the test with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    elapsed = time.perf_counter() - start
    assert elapsed < _BUDGET_S, (argv, elapsed)
    assert "Traceback" not in err.getvalue(), argv
    return code, out.getvalue(), err.getvalue()


def _expected_h(value, count):
    """The oracle's h coefficients 0..count of num/den, as printed, after
    cancelling the common power of z; None when den(0) is still 0."""
    num, den = value
    while num and den and num[0].is_zero and den[0].is_zero:
        num, den = num[1:], den[1:]
    if not den or den[0].is_zero:
        return None
    pairs = gaussian_long_division([(c.re, c.im) for c in num] or [(0, 0)],
                                   [(c.re, c.im) for c in den], count)
    return [str(G(re, im)) for re, im in pairs]


_FAMILIES = list(dict.fromkeys(e.family for e in catalog_build()))


@settings(max_examples=200, deadline=None)
@given(formula=formulas(edits=False), count=st.one_of(st.none(), st.integers(0, 24)))
def test_expand_of_a_grammar_formula_is_its_long_division(formula, count):
    text, value = formula
    code, out, _ = _call("expand", text, *([] if count is None else [str(count)]), "--json")
    assert code in (0, 2), text
    if code == 0:
        printed = json.loads(out)
        want = _expected_h(value, printed["order"])
        assert want is not None, text
        assert printed["h"] == want, text


@settings(max_examples=150, deadline=None)
@given(data=st.data(), formula=formulas(), count=st.one_of(st.none(), st.integers(-2, 24)))
def test_cli_on_grammar_formulas_exits_0_or_2(data, formula, count):
    text, _ = formula
    with tempfile.TemporaryDirectory() as config_dir:
        config = data.draw(config_args(config_dir))
        argv = ["expand", text] + ([] if count is None else [str(count)])
        code, _, _ = _call(*argv, *config)
        assert code in (0, 2), argv
        code, _, _ = _call("classify", text, *config)
        assert code in (0, 2), text
        omega = data.draw(st.one_of(st.sampled_from(["+z", "-z", "z/2", "-z^2"]),
                                    formulas().map(lambda f: f[0])))
        axis = data.draw(st.sampled_from(["real", "imag"]))
        code, _, _ = _call("shear", text, omega, axis, *config)
        assert code in (0, 2), (text, omega)


@settings(max_examples=40, deadline=None)
@given(family=st.one_of(st.sampled_from(_FAMILIES),
                        st.text(alphabet="ABCSTZ_019xyz", max_size=8)),
       as_json=st.booleans())
def test_list_exits_2_exactly_for_an_unknown_family(family, as_json):
    code, out, err = _call("list", "--family", family, *(["--json"] if as_json else []))
    if family in _FAMILIES or not family:  # an empty family lists every entry
        assert code == 0 and out
    else:
        assert (code, out) == (2, "")
        assert ", ".join(_FAMILIES) in err


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_verify_with_random_config_exits_0_1_or_2(data):
    # 1 is the mismatch verdict: a coarse grid or a low order may miss rows
    with tempfile.TemporaryDirectory() as config_dir:
        config = data.draw(config_args(config_dir))
        code, _, _ = _call("verify", "REMARK", *config)
    assert code in (0, 1, 2), config
