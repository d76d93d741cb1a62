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
coefficients of the oracle's long division of its value.  Command lines
drawn from the command table must parse alike on the table route and on
the full parser.
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
from harmonic_atlas.cli import _COMMANDS, _SETTINGS, _plain, build_parser, main
from oracles import GaussRational as G
from oracles import gaussian_long_division
from test_cli import _fields, _full_route

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
_KEYS = (*_SETTINGS, "bogus", "")


@st.composite
def config_args(draw, config_dir, command):
    """Random values of the setting flags that ``command`` declares, and
    perhaps a random config file, as argv."""
    declared = dict(_COMMANDS[command][2])
    flags = [flag for flag, _ in _SETTINGS.values() if flag in declared]
    argv = []
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3, unique=True)):
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
        argv = ["expand", text] + ([] if count is None else [str(count)])
        code, _, _ = _call(*argv, *data.draw(config_args(config_dir, "expand")))
        assert code in (0, 2), argv
        code, _, _ = _call("classify", text, *data.draw(config_args(config_dir, "classify")))
        assert code in (0, 2), text
        omega = data.draw(st.one_of(st.sampled_from(["+z", "-z", "z/2", "-z^2"]),
                                    formulas().map(lambda f: f[0])))
        axis = data.draw(st.sampled_from(["real", "imag"]))
        config = data.draw(config_args(config_dir, "shear"))
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
        config = data.draw(config_args(config_dir, "verify"))
        code, _, _ = _call("verify", "REMARK", *config)
    assert code in (0, 1, 2), config


# -- the two parsing routes of ``cli._parse`` on command lines drawn from
# the command table: plain ones, and ones only the full parser answers

_DASHED = ["-", "-5", "-z", "-z^2+z", "-x", "-h", "--", "--x", "--json", "--order=3",
           "--a b", ""]
_IDS = ["koebe", "f3_cv1", "hslits_wide_avg", "T6", "bogus"]


def _value(name, keywords, good):
    """Values of one declared argument, those its type and choices take if
    ``good``, and bad ones too if not.  The render output is the
    placeholder {out} (a file) or {bad} (a missing directory)."""
    if name == "out":
        return st.sampled_from(["{out}", "{bad}"])
    if name == "theorem":  # the cheapest suite
        return st.sampled_from(["REMARK"] if good else ["REMARK", "T99", "remark", ""])
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"] + ([] if good else ["REAL", ""]))
    if keywords.get("type") is int:
        ints = st.integers(-2, 24).map(str)
        return ints if good else st.one_of(ints, st.sampled_from(
            ["x", "", " 7", "1e3", "07", "3.0", "--5", "-h"]))
    if keywords.get("type") is float:
        floats = st.sampled_from(["0.5", "-0.5", "1e-3", "nan", "0.9", " 0.25"])
        return floats if good else st.one_of(floats, _NUMBERS)
    texts = st.one_of(st.sampled_from(_IDS), formulas(edits=False).map(lambda f: f[0][:200]),
                      st.sampled_from(["-", "-5", "-z^2+z", "-x", ""]))
    return texts if good else st.one_of(texts, st.sampled_from(_DASHED))


@st.composite
def command_lines(draw, config_dir):
    """An argv for one command of ``_COMMANDS``: plain, or with up to two
    kinds of the arguments only the full parser answers.  Options come in
    any order and repeated, as --name value or --name=value, and values of
    the right type; the faults are values of a bad type, outside the
    choices or starting with - or --, too few or too many positionals,
    positionals split by options, abbreviated or unknown options, -h, --,
    and flags given a value."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    arguments = _COMMANDS[command][2]
    faults = draw(st.one_of(st.just(set()), st.sets(st.sampled_from(
        ["values", "count", "split", "odd", "flag"]), min_size=1, max_size=2)))
    good = "values" not in faults
    options = [(n, k) for n, k in arguments if n.startswith("--")]
    positionals = [draw(_value(n, k, good)) for n, k in arguments
                   if not n.startswith("--")]
    if "count" in faults:
        positionals = positionals[:draw(st.integers(max(len(positionals) - 1, 0),
                                                    len(positionals)))]
        positionals += draw(st.lists(_value("", {}, False), max_size=1))
    pairs = []
    if "--config" in dict(options) and draw(st.booleans()):
        flat = draw(config_args(config_dir, command))
        pairs += list(zip(flat[::2], flat[1::2]))
    for name, keywords in draw(st.lists(st.sampled_from(options), max_size=4)):
        if keywords.get("action") == "store_true":
            flag = st.sampled_from([None, "", "1"]) if "flag" in faults else st.none()
            pairs.append((name, draw(flag)))
        else:
            pairs.append((name, draw(_value(name, keywords, good))))
    if "odd" in faults:
        odd = [("--bogus", None), ("-h", None), ("--", None), ("--help", None)]
        odd += [(name[:k], "3") for name, _ in options for k in range(3, len(name))]
        pairs += draw(st.lists(st.sampled_from(odd), min_size=1, max_size=2))
    groups = []
    for name, value in draw(st.permutations(pairs)):
        if value is None:
            groups.append([name])
        elif draw(st.booleans()):
            groups.append([f"{name}={value}"])
        else:
            groups.append([name, value])
    if "split" in faults and groups and len(positionals) > 1:
        # options between the first ``cut`` positionals and the rest
        cut = draw(st.integers(1, len(positionals) - 1))
        i = draw(st.integers(0, len(groups) - 1))
        groups.insert(draw(st.integers(i + 1, len(groups))), positionals[cut:])
        groups.insert(i, positionals[:cut])
    else:
        groups.insert(draw(st.integers(0, len(groups))), positionals)
    return [command, *(arg for group in groups for arg in group)]


def _outputs(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = fn(list(argv))
        except SystemExit as exc:
            result = SystemExit(exc.code)
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_table_route_agrees_with_the_full_parser(data):
    # in a scratch directory: a drawn positional can land on render's output
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        argv = data.draw(command_lines(tmp))
        out = {"{out}": os.path.join(tmp, "k.svg"), "{bad}": os.path.join(tmp, "no", "k.svg")}
        argv = [out.get(a, a) for a in argv]
        args = _plain(argv)
        if args is not None:
            full = _outputs(build_parser().parse_args, argv)[0]
            assert not isinstance(full, SystemExit), argv
            assert _fields(args) == _fields(full), argv
        want = _outputs(_full_route, argv)
        got = _outputs(main, argv)
        assert got == want, argv
        assert "Traceback" not in got[2], argv
