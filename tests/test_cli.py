"""CLI surface: subcommands, exit codes, config, determinism."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest

import harmonic_atlas
from harmonic_atlas import catalog, cli, verify
from harmonic_atlas import shear as shear_mod
from harmonic_atlas.catalog import catalog_ids
from harmonic_atlas.cli import _COMMANDS, _plain, _run, build_parser, main
from harmonic_atlas.exprtext import _MAX_DEPTH, parse_gauss
from harmonic_atlas.numkernel import GaussRational
from harmonic_atlas.realalg import peval
from harmonic_atlas.render import RenderOptions

ATLAS = Path(__file__).parent / "data" / "atlas.json"
# the benchmark's output records, read only
EXPECTED_OPS = json.loads((Path(__file__).parent.parent / "perfbench"
                           / "expected.json").read_text(encoding="utf-8"))["ops"]
EXPAND_OPS = sorted(k for k in EXPECTED_OPS if k.startswith("expand "))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_koebe(capsys):
    code, out, _ = run(capsys, "expand", "koebe", "5")
    assert code == 0
    assert "h: 0 1 2 3 4 5" in out


def test_expand_formula(capsys):
    code, out, _ = run(capsys, "expand", "z/(1-z+z^2)", "7")
    assert code == 0
    assert "h: 0 1 1 0 -1 -1 0 1" in out


def test_expand_quadruple_pole_on_the_circle(capsys):
    # np.roots scattered the root -1 of (1+z)^4 to |z| = 0.99988, and the
    # disk test rejected the expression
    code, out, _ = run(capsys, "expand", "z/(1+z)^4", "4")
    assert code == 0
    assert "h: 0 1 -4 10 -20" in out


def test_expand_cancels_a_common_factor(capsys):
    # z (1 - 2z)/(1 - 2z) is z: the root 1/2 of the cancelled factor is no pole
    code, out, _ = run(capsys, "expand", "z*(1-2z)/(1-2z)", "4")
    assert code == 0
    assert "h: 0 1 0 0 0" in out
    code, _, err = run(capsys, "expand", "0*z", "4")
    assert code == 2
    assert "NotNormalized" in err


def test_expand_f3(capsys):
    code, out, _ = run(capsys, "expand", "f3_cv1", "4")
    assert code == 0
    assert "h: 0 1 3/2 2 5/2" in out
    assert "g: 0 0 1/2 1 3/2" in out


@pytest.mark.parametrize("text", [
    "z/(1-20001z/20000)",  # a pole at 0.99995, within 1e-4 of the circle
    "z/(1-1000000000000000000000000000000z/999999999999999999999999999999)",  # 1 - 1e-30
    "z/(1-20001z/20000)^200",  # counted on its squarefree factor, not on the power
    "z/((1-z)(1-20001z/20000))",  # beside a pole on the circle
    "z/((1-20001z/20000)(1+20000iz/20001))",  # beside a pole at 1.00005 i: |r s| = 1
])
def test_expand_pole_just_inside_the_disk_exit_2(capsys, text):
    code, out, err = run(capsys, "expand", text, "3")
    assert (code, out) == (2, "")
    assert "vanishes inside the unit disk" in err


def test_expand_many_poles_near_the_circle_is_fast(capsys):
    # z / prod (1 - c_k z), c_k = (20000+k)/(20001+k): the gcd of the
    # denominator and its derivative kept its remainders unnormalized, and
    # their coefficients exploded (about 13 s for 24 factors)
    cs = [Fraction(20000 + k, 20001 + k) for k in range(1, 25)]
    text = "z/(" + "".join(f"(1-{c.numerator}z/{c.denominator})" for c in cs) + ")"
    start = time.perf_counter()
    code, out, _ = run(capsys, "expand", text, "3")
    assert time.perf_counter() - start < 5.0
    # h_n is the complete symmetric polynomial of degree n - 1 in the c_k
    h2 = sum(cs)
    h3 = sum(ci * cj for i, ci in enumerate(cs) for cj in cs[i:])
    assert code == 0
    assert f"h: 0 1 {h2} {h3}" in out


@pytest.mark.parametrize("argv", [
    ("expand", "koebe", "5", "--order", "3"),
    ("expand", "koebe", "0", "--order=3", "--json"),
])
def test_expand_refuses_a_count_with_order(capsys, argv):
    # the count is the order: given both, --order was ignored (a count
    # after the flags splits the positionals, which argparse refuses)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "give the count or --order, not both" in err


def test_expand_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "expand", "q//", "4")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("text", ["z^100000", "((1-z)^200)^200", "2^100000*z",
                                  "z((2^256)^256)^256"])
def test_expand_oversized_power_exit_2_fast(capsys, text):
    # a power takes k products, so its cost grows as k**2: an exponent times
    # the degree or coefficient size of its base above 256 is refused at once
    start = time.perf_counter()
    code, out, err = run(capsys, "expand", text, "2")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "InvalidExpression: power too large" in err


def test_expand_largest_power(capsys):
    code, out, _ = run(capsys, "expand", "z/(1-z)^256", "2")
    assert code == 0
    assert "h: 0 1 256" in out


@pytest.mark.parametrize("text", ["rat(1/2; 0,1; 1) rat(1/2; 0,1; 1)",
                                  "+ + rat(1; 0,1; 1)", "rat(1; 0,1; 1) +"])
def test_expand_terms_not_joined_by_plus_exit_2(capsys, text):
    # the term text is term ( + term )*; the first printed "h: 0 1 0 0"
    code, out, err = run(capsys, "expand", text, "3")
    assert code == 2 and out == ""
    assert "not terms joined by '+'" in err


def test_expand_log_crossing_branch_cut_exit_2(capsys):
    # log((1+z)^3) is not analytic on the disk: (1+z)^3 crosses (-inf, 0]
    code, _, err = run(capsys, "expand", "log(1/3; 1,3,3,1)", "5")
    assert code == 2
    assert "branch cut" in err


@pytest.mark.parametrize("argv", [
    ("expand", "koebe", "-1"),
    ("expand", "koebe", "-1", "--json"),
    ("shear", "koebe", "+z", "real", "--show", "-1"),
    ("shear", "koebe", "+z", "real", "--show", "-1", "--json"),
])
def test_negative_count_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    # expand's count is its order, refused as --order is
    assert ("--show must be >= 0" if argv[0] == "shear" else f"order out of range: "
            f"{_ORDER_NEED}, got -1") in err


@pytest.mark.parametrize("argv", [("expand", "-z^2+z", "3"), ("classify", "-z^2+z"),
                                  ("expand", "-z^3/3+z", "4")])
def test_formula_starting_with_minus_is_a_positional(capsys, argv):
    # as if it followed "--": argparse took it for an option (exit 2)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == run(capsys, argv[0], "--", *argv[1:])
    assert code == 0 and err == ""
    if argv == ("expand", "-z^2+z", "3"):
        assert "h: 0 1 -1 0" in out


def test_dash_arguments_that_keep_their_meaning(capsys):
    args = cli._parse(["shear", "-z^2+z", "-z", "real", "--order", "-1"])
    assert (args.phi, args.omega, args.order) == ("-z^2+z", "-z", -1)
    assert cli._parse(["expand", "--", "-z", "2"]).target == "-z"
    code, out, _ = run(capsys, "-h")
    assert code == 0 and (code, out) == run(capsys, "--help")[:2]
    assert out.startswith("usage: harmonic-atlas")
    code, out, err = run(capsys, "-")
    assert code == 2 and out == "" and "invalid choice: '-'" in err
    code, out, err = run(capsys, "expand", "-h")
    assert code == 0 and out.startswith("usage: harmonic-atlas expand")
    # a negative value still reaches its range check
    code, out, err = run(capsys, "verify", "all", "--order", "-1")
    assert code == 2 and out == "" and "1 <= order" in err


@pytest.mark.parametrize("flag, value", [("--tol", "inf"), ("--tol", "-inf"),
                                         ("--tol", "nan"), ("--tol", "0.1"),
                                         ("--r-max", "0.5")])
def test_verify_refuses_tol_and_r_max(capsys, flag, value):
    # both are constants: an infinite tol matched every certificate row,
    # and --r-max 0.3 checked the image of |z| < 0.3, not of the disk
    code, out, err = run(capsys, "verify", "T32", flag, value, "--json")
    assert (code, out) == (2, "") and f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("argv", [("expand", "-z^2+z", "3", "--json"),
                                  ("classify", "-z^2+z", "--json")])
def test_dash_argument_reaches_the_output_as_typed(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["target"] == "-z^2+z"


def test_dash_argument_in_an_error_as_typed(capsys):
    for argv, quoted in ((("expand", "-x", "3"), "parseable: '-x'"),
                         (("expand", "koebe", "-x"), "invalid int value: '-x'"),
                         (("-x",), "invalid choice: '-x'")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and quoted in err, argv


@pytest.mark.parametrize("argv", [
    ("expand", "", "3"), ("expand", " ", "3"), ("expand", "(", "3"),
    ("expand", "z+", "3"), ("expand", "z^", "3"), ("classify", ""),
])
def test_formula_ending_early_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "InvalidExpression: formula ends too early" in err


@pytest.mark.parametrize("argv, cap", [
    (("expand", "koebe", "100000000"), catalog._MAX_ORDER),
    (("expand", "koebe", "--order", "100000000"), catalog._MAX_ORDER),
    (("classify", "z/(1-z)^2", "--order", "100000000"), catalog._MAX_ORDER),
    (("shear", "koebe", "+z", "real", "--order", "100000000"), catalog._MAX_ORDER),
    (("verify", "all", "--order", "100000"), catalog._MAX_ORDER),
    (("verify", "all", "--grid-angles", "100000000"), verify._MAX_GRID_POINTS),
])
def test_oversized_order_or_grid_exit_2_before_allocating(capsys, argv, cap):
    # refused where the config is checked, before any series or grid exists
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert f"<= {cap}" in err
    assert peak < 1_000_000, peak


_ORDER_NEED = f"need 1 <= order <= {catalog._MAX_ORDER}"


@pytest.mark.parametrize("argv, config, message", [
    (("expand", "koebe", "--order", "0"), None, f"order out of range: {_ORDER_NEED}, got 0"),
    (("shear", "koebe", "z", "real", "--order", "2000"), None,
     f"order out of range: {_ORDER_NEED}, got 2000"),
    (("verify", "T31", "--grid-angles", "0"), None,
     "grid_angles out of range: need grid_angles >= 1, got 0"),
    (("classify", "koebe"), "order = 0\n", f"order out of range: {_ORDER_NEED}, got 0"),
], ids=["expand", "shear", "verify", "config"])
def test_out_of_range_setting_is_named_alone(capsys, tmp_path, argv, config, message):
    # the refusal names the one setting out of range and its bound, not the
    # grid settings that expand, shear and classify do not take
    if config is not None:
        path = tmp_path / "atlas.cfg"
        path.write_text(config)
        argv += ("--config", str(path))
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("levels", [_MAX_DEPTH, _MAX_DEPTH + 1, 10_000])
@pytest.mark.parametrize("command", ["expand", "classify", "shear"])
def test_formula_nesting_refused_beyond_the_cap(capsys, command, levels):
    # 250 levels ended in a RecursionError traceback (exit 1); the cap is a
    # count of the tokens, so the verdict comes at once
    text = "(" * levels + "z" + ")" * levels
    argv = {"expand": (text, "3"), "classify": (text,), "shear": (text, "+z", "real")}
    start = time.perf_counter()
    code, out, err = run(capsys, command, *argv[command])
    assert time.perf_counter() - start < 1.0
    if levels == _MAX_DEPTH:
        assert code == 0 and err == ""
    else:
        assert (code, out) == (2, "")
        assert f"InvalidExpression: parentheses nested deeper than {_MAX_DEPTH}" in err


def test_dense_omega_shear_at_the_largest_order(capsys):
    # omega = z/(2 - z) expands to a dense series 1 - omega; the shear
    # divides by the polynomial 2 - 2z instead, so the largest order is fast
    start = time.perf_counter()
    code, out, _ = run(capsys, "shear", "hslits_wide", "z/(2-z)", "real",
                       "--order", str(catalog._MAX_ORDER))
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out.startswith("h: 0 1 5/4 1/2 -5/8")


def test_largest_order_accepted(capsys):
    code, out, _ = run(capsys, "expand", "koebe", str(catalog._MAX_ORDER))
    assert code == 0
    assert out.splitlines()[1].endswith(f" {catalog._MAX_ORDER}")


def test_expand_count_has_the_order_range(capsys):
    # the count is the order: `expand koebe 0` printed index 0 and exited 0,
    # while `expand koebe --order 0` exited 2
    for count in ("0", str(catalog._MAX_ORDER + 1)):
        want = f"error: order out of range: {_ORDER_NEED}, got {count}\n"
        assert run(capsys, "expand", "koebe", count) == (2, "", want)
        assert run(capsys, "expand", "koebe", count, "--json") == (2, "", want)
        assert run(capsys, "expand", "koebe", "--order", count) == (2, "", want)
    assert run(capsys, "expand", "koebe", "1") == (0, "n: 0 1\nh: 0 1\n", "")


def test_zero_count_prints_index_0(capsys):
    code, out, _ = run(capsys, "shear", "koebe", "+z", "real", "--show", "0",
                       "--json")
    assert code == 0
    assert (json.loads(out)["h"], json.loads(out)["g"]) == (["0"], ["0"])


def test_shear_matches_f3(capsys):
    code, out, _ = run(capsys, "shear", "z/(1-z)", "+z", "real", "--show", "4")
    assert code == 0
    assert "h: 0 1 3/2 2 5/2" in out
    assert "half_integer" in out


def test_shear_omega_spellings_agree(capsys):
    outs = [run(capsys, "shear", "koebe", omega, "real", "--show", "6")
            for omega in ("+z", "z", "+z ")]
    assert outs[0][0] == 0
    assert outs[0] == outs[1] == outs[2]


def test_shear_neg_omega_neither(capsys):
    code, out, _ = run(capsys, "shear", "z-z^2/2", "-z", "real", "--show", "4")
    assert code == 0
    assert "neither" in out


def test_shear_imag_log(capsys):
    code, out, _ = run(capsys, "shear", "z", "+z", "imag", "--show", "4")
    assert code == 0
    assert "h: 0 1 -1/2 1/3 -1/4" in out


def _refusal_point(err: str, omega: str) -> GaussRational:
    """The z1 a ``DilatationTooLarge`` message names, with |z1| < 1 and the
    |omega(z1)|^2 > 1 it states, both re-checked exactly."""
    m = re.search(r"\|omega\(z1\)\|\^2 = (\S+) at z1 = (.+)$", err.strip())
    value, z1 = Fraction(m[1]), parse_gauss(m[2])
    w = harmonic_atlas.parse_formula(omega).rational_part()
    assert (peval(w.num.coeffs, z1) / peval(w.den.coeffs, z1)).abs2() == value
    assert z1.abs2() < 1 < value
    return z1


def test_shear_dilatation_error_exit_2(capsys):
    code, _, err = run(capsys, "shear", "z", "z(1+z)", "real")
    assert code == 2
    assert "DilatationTooLarge" in err
    assert _refusal_point(err, "z(1+z)") == parse_gauss("3/4")


@pytest.mark.parametrize("omega, error", [
    ("10001z/10000", "DilatationTooLarge"),  # |omega| > 1 for |z| > 0.9999 only
    ("log(1/8; 1,1)", "InvalidExpression"),  # unbounded at z = -1
])
def test_shear_omega_out_of_the_disk_exit_2(capsys, omega, error):
    code, out, err = run(capsys, "shear", "z", omega, "real")
    assert (code, out) == (2, "")
    assert error in err
    if error == "DilatationTooLarge":  # found at z = 1, pulled in to |z1| > 0.9999
        assert _refusal_point(err, omega) == parse_gauss("16383/16384")


@pytest.mark.parametrize("omega", ["z/(2-z)", "(z+z^2)/2"])
def test_shear_omega_reaching_1_on_the_circle_exit_0(capsys, omega):
    code, _, _ = run(capsys, "shear", "z", omega, "real")
    assert code == 0


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "hslits_wide_avg")
    assert code == 0
    assert "half_integer" in out


# sha256 of the stdout of `classify <id>` then `classify <id> --json`, for
# every id in catalog order and then every alias, sorted: the outputs when
# every map was built at the config's order 64
_CLASSIFY_DIGEST = "094b1d3bcd8db029ee80bd3fb722bb66f4280b6d633483a69714dfb91849a7e8"


def test_classify_outputs_at_the_proof_order_are_pinned(capsys):
    # a catalog id is classified on its map at the config's order 64; the
    # text and JSON of all 104 ids and aliases are pinned
    digest = hashlib.sha256()
    for target in catalog_ids() + sorted(catalog._ALIASES):
        for flags in ((), ("--json",)):
            code, out, err = run(capsys, "classify", target, *flags)
            assert (code, err) == (0, ""), target
            digest.update(out.encode())
    assert digest.hexdigest() == _CLASSIFY_DIGEST
    code, out, _ = run(capsys, "classify", "f3_cv1")
    assert (code, out) == (0, "h: {'class': 'half_integer'}\ng: {'class': 'half_integer'}\n")
    # f1_cv1's h is -log(1 - z), whose witness 1/3 lies at index 3
    code, out, _ = run(capsys, "classify", "f1_cv1", "--json")
    violation = {"class": "neither", "first_violation": {"index": 3, "value": "1/3"}}
    assert out == json.dumps({"g": violation, "h": violation, "target": "f1_cv1"},
                             indent=1) + "\n"


def test_classify_shears_at_the_config_order(capsys, monkeypatch):
    # classify builds every map at the config's order, as expand does: a
    # catalog map proves its closed forms at any order.  At order 2, f1_cv1's
    # h = -log(1 - z) still shows its witness at index 3, read past the
    # map's series
    orders = []
    shear = shear_mod._shear

    def spy(source, omega, order, s):
        orders.append(order)
        return shear(source, omega, order, s)

    monkeypatch.setattr(shear_mod, "_shear", spy)
    monkeypatch.setattr(catalog, "_INDEX", {})  # fresh entries, no cached maps
    assert run(capsys, "classify", "f3_cv1")[0] == 0
    assert orders == [64]
    assert run(capsys, "classify", "f13_cv1", "--order", "20")[0] == 0
    assert orders == [64, 20]
    code, out, _ = run(capsys, "classify", "f1_cv1", "--order", "2", "--json")
    assert (code, orders) == (0, [64, 20, 2])
    violation = {"class": "neither", "first_violation": {"index": 3, "value": "1/3"}}
    assert json.loads(out)["h"] == violation


def test_list_family(capsys):
    code, out, _ = run(capsys, "list", "--family", "T6")
    assert code == 0
    assert out.count("\n") == 2


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_list_unknown_family_exit_2(capsys, catalog, flags):
    # it printed nothing and exited 0; the message names every family
    code, out, err = run(capsys, "list", "--family", "NOPE", *flags)
    assert (code, out) == (2, "")
    families = ", ".join(dict.fromkeys(e.family for e in catalog))
    assert f"unknown family 'NOPE'; known families: {families}" in err


def test_list_json_atlas(capsys):
    code, out, _ = run(capsys, "list", "--json")
    assert code == 0
    atlas = json.loads(out)
    assert atlas["schema"] == 1
    assert len(atlas["entries"]) == 101


def test_list_json_matches_recording(capsys):
    # the whole atlas, byte for byte: catalog refactors must leave every id,
    # expression text, recipe and flag as recorded
    code, out, _ = run(capsys, "list", "--json")
    assert code == 0
    assert out == ATLAS.read_text(encoding="utf-8")


def test_expand_128_tables_match_recorded_digests(capsys):
    # the exact h and g coefficients to order 128 of one entry per term
    # shape, byte for byte as recorded for the benchmark
    assert len(EXPAND_OPS) == 10
    for op in EXPAND_OPS:
        code, out, err = run(capsys, *op.split())
        assert code == 0, (op, err)
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == EXPECTED_OPS[op]["sha256"], op


def test_verify_t31_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "T31")
    assert code == 0
    assert "[T31] matched 20/20 (exact 20, order 0, grid 0, asserted 0)" in out
    assert "total matched 20/20 (exact 20, order 0, grid 0, asserted 0)" in out


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "T31", "--json")
    code2, out2, _ = run(capsys, "verify", "T31", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["schema"] == 2
    assert report["theorem"] == "T31"


@pytest.mark.parametrize("theorem", ["all", "T32"])
def test_verify_does_not_import_numpy_ma(theorem):
    # np.quantile and np.unique import numpy.ma, about 15 ms in a fresh
    # process; verify's path calls neither (no row runs the convexity
    # probe, which calls np.quantile)
    script = "\n".join((
        "import contextlib, io, sys",
        "from harmonic_atlas.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert main(['verify', {theorem!r}, '--json']) == 0",
        "print('numpy.ma' in sys.modules)",
    ))
    assert _fresh(script) == "False\n"


def _fresh(script, *args):
    """What ``script`` prints in a fresh process that imports this package."""
    src = str(Path(harmonic_atlas.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src}).stdout


def test_cold_expand_runs_no_disk_proof_for_omega_and_reads_no_coeff():
    # f9_cv1's omega is z: |z| <= 1 is read off its coefficient, with no
    # Cayley image and no Sturm sequence, and the table formats each
    # coefficient of the tuple without a Series.coeff call
    script = "\n".join((
        "import contextlib, io, json",
        "from harmonic_atlas import cli, realalg, shear",
        "from harmonic_atlas.numkernel import Series",
        "log = dict.fromkeys(('omega', 'table', 'cayley', 'sturm', 'coeff'), 0)",
        "active = set()",
        "def during(key, fn):",
        "    def wrapped(*args):",
        "        log[key] += 1",
        "        active.add(key)",
        "        try:",
        "            return fn(*args)",
        "        finally:",
        "            active.discard(key)",
        "    return wrapped",
        "def counted(key, within, fn):",
        "    def wrapped(*args):",
        "        log[key] += within in active",
        "        return fn(*args)",
        "    return wrapped",
        "shear._omega_bounded = during('omega', shear._omega_bounded)",
        "cli._coeff_table = during('table', cli._coeff_table)",
        "realalg._int_cayley = counted('cayley', 'omega', realalg._int_cayley)",
        "realalg._sturm_variations = counted('sturm', 'omega', realalg._sturm_variations)",
        "Series.coeff = counted('coeff', 'table', Series.coeff)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['expand', 'f9_cv1', '128']) == 0",
        "print(json.dumps(log))",
    ))
    assert json.loads(_fresh(script)) == {"omega": 1, "table": 2, "cayley": 0, "sturm": 0,
                                          "coeff": 0}


def test_plain_command_line_does_not_import_argparse():
    # only the full parser, for help and usage errors, needs argparse
    script = "\n".join((
        "import contextlib, io, sys",
        "from harmonic_atlas.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['expand', 'koebe', '3']) == 0",
        "print('argparse' in sys.modules)",
    ))
    assert _fresh(script) == "False\n"


def _glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc ")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the heap policy is glibc's")
@pytest.mark.parametrize("argv, warm, timed, most", [
    (["render", "f28_cv1", "{out}"], 3, 20, 5),
    (["verify", "T32", "--json"], 1, 1, 50),
], ids=["render", "verify T32"])
def test_heap_stays_resident_between_calls(tmp_path, argv, warm, timed, most):
    # with glibc's default thresholds a warm render took about 220 minor
    # page faults and a second verify T32 about 2,300: the freed top of
    # the heap went back to the OS after each call and was faulted in again
    script = "\n".join((
        "import contextlib, io, json, resource, sys",
        "from harmonic_atlas.cli import main",
        "argv, warm, timed = json.loads(sys.argv[1])",
        "def calls(n):",
        "    for _ in range(n):",
        "        assert main(argv) == 0",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    calls(warm)",
        "    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "    calls(timed)",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)",
    ))
    argv = [a.replace("{out}", str(tmp_path / "k.svg")) for a in argv]
    faults = int(_fresh(script, json.dumps([argv, warm, timed])))
    assert faults / timed <= most, faults


def test_heap_policy_is_set_by_verify_and_render_only(tmp_path):
    # importing the package, the other commands and library calls leave
    # the host's allocator alone; verify and render set it once
    script = "\n".join((
        "import contextlib, io, sys",
        "from harmonic_atlas import catalog_lookup, cli, render_svg",
        "from harmonic_atlas.render import RenderOptions",
        "from harmonic_atlas.verify import VerifyConfig, run_suite",
        "seen = []",
        "def ran():",
        "    info = cli._keep_heap.cache_info()",
        "    seen.append((info.misses, info.hits))",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for argv in (['expand', 'koebe', '3'], ['classify', 'koebe'],",
        "                 ['shear', 'koebe', '+z', 'real'], ['list']):",
        "        assert cli.main(argv) == 0",
        "    run_suite('REMARK', VerifyConfig(order=16))",
        "    render_svg(catalog_lookup('koebe').harmonic_map(8), RenderOptions())",
        "    ran()",
        "    assert cli.main(['render', 'koebe', sys.argv[1]]) == 0",
        "    ran()",
        "    assert cli.main(['verify', 'REMARK', '--order', '16']) == 0",
        "    ran()",
        "print(seen)",
    ))
    assert _fresh(script, str(tmp_path / "k.svg")) == "[(0, 0), (1, 0), (1, 1)]\n"


def _unknown_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [None, lambda name: None, lambda name: "musl 1.2.4",
                                     _unknown_name],
                         ids=["no confstr", "undefined", "musl", "unknown name"])
def test_heap_policy_is_a_no_op_off_glibc(monkeypatch, confstr):
    if confstr is None:
        monkeypatch.delattr(os, "confstr", raising=False)
    else:
        monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: pytest.fail("libc loaded"))
    assert cli._keep_heap.__wrapped__() is False


def test_heap_policy_stops_when_glibc_refuses(monkeypatch):
    # a 32-bit glibc caps the mmap threshold below 32 MiB
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 0

    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert cli._keep_heap.__wrapped__() is False
    assert calls == [(cli._M_MMAP_THRESHOLD, 32 << 20)]


def test_verify_mismatch_exit_1(capsys, monkeypatch):
    # one flipped catalog flag fails its row: f13_cv1 is "neither", and a
    # flag that records half-integer coefficients mismatches
    entry = catalog.catalog_lookup("f13_cv1")
    e = entry.expected
    assert e.half_integer_coeffs is False
    flipped = catalog.CatalogEntry(
        entry.id, entry.family, entry.h, entry.g,
        catalog.FlagSet(e.integer_coeffs, True, e.cv_real, e.cv_imag, e.starlike,
                        e.u_class, e.boundary),
        entry.recipe, entry.twin)
    monkeypatch.setitem(catalog._INDEX, entry.id, flipped)
    code, out, _ = run(capsys, "verify", "T41")
    assert code == 1
    assert "  MISMATCH f13_cv1 half_integer_coeffs: " in out
    assert out.count("MISMATCH") == 1


def test_verify_bad_theorem_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "T99")
    assert code == 2


def test_config_file_and_flag_priority(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "atlas.cfg"
    cfg.write_text("order = 3\ngrid.radii = 8\ngrid.angles = 16\n")
    monkeypatch.setenv("HARMONIC_ATLAS_CONFIG", str(cfg))
    code, out, _ = run(capsys, "expand", "koebe")
    assert code == 0
    assert "h: 0 1 2 3" in out and "4" not in out.split("h:")[1]
    # flag wins over config file
    code, out, _ = run(capsys, "expand", "koebe", "--order", "5")
    assert code == 0
    assert "h: 0 1 2 3 4 5" in out


def test_config_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("radius = 12\n")
    code, _, err = run(capsys, "verify", "T31", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


_CONFIG_COMMANDS = {"expand": ("koebe", "3"), "shear": ("koebe", "+z", "real"),
                    "classify": ("koebe",), "verify": ("REMARK",)}


@pytest.mark.parametrize("line", ["tol = 1e-9", "r_max = 0.999", "grid.angles = x"],
                         ids=["tol", "r_max", "grid.angles"])
@pytest.mark.parametrize("command", _CONFIG_COMMANDS)
def test_every_config_command_reads_the_whole_file(tmp_path, capsys, command, line):
    # tol and r_max are constants, not keys; expand, shear and classify read
    # only the order, but a bad grid value refuses the file everywhere
    cfg = tmp_path / "atlas.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, command, *_CONFIG_COMMANDS[command], "--config", str(cfg))
    assert (code, out) == (2, "")
    assert ("bad config value" if line.startswith("grid") else "unknown key") in err


def test_settings_table_names_each_config_field_once():
    # key grid.radii, flag --grid-radii and field grid_radii name one setting
    fields = [cli._dest(flag) for flag, _ in cli._SETTINGS.values()]
    assert fields == [key.replace(".", "_") for key in cli._SETTINGS]
    assert sorted(fields) == sorted(verify.VerifyConfig.__slots__)


def test_render_writes_svg(tmp_path, capsys):
    out_path = tmp_path / "f3.svg"
    code, out, _ = run(capsys, "render", "f3_cv1", str(out_path),
                       "--circles", "3", "--rays", "6", "--samples", "64")
    assert code == 0
    body = out_path.read_text()
    assert body.startswith("<?xml") and "<svg" in body


def test_render_writes_the_recorded_document(tmp_path, capsys):
    # the document goes to the file as bytes, unchanged: its sha256 is the
    # benchmark's record of `render f28_cv1` at the default options
    out_path = tmp_path / "out.svg"
    code, out, _ = run(capsys, "render", "f28_cv1", str(out_path))
    assert code == 0 and out == f"wrote {out_path}\n"
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == EXPECTED_OPS["render f28_cv1"]["sha256"]


def test_render_harmonic_koebe(tmp_path, capsys):
    out_path = tmp_path / "hk.svg"
    code, _, _ = run(capsys, "render", "harmonic_koebe", str(out_path),
                     "--circles", "3", "--rays", "6", "--samples", "64")
    assert code == 0
    assert out_path.read_text().count("<path") == 3 + 6 + 1


def test_render_without_closed_form_exit_2(tmp_path, capsys):
    # f7_cvi has no closed form for h; its order-32 series is off by 0.58 at
    # r = 0.85, so rendering must refuse rather than draw from it
    out_path = tmp_path / "f7.svg"
    code, _, err = run(capsys, "render", "f7_cvi", str(out_path), "--rmax", "0.85")
    assert code == 2
    assert "NoClosedForm" in err
    assert not out_path.exists()


def test_render_unknown_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "render", "unknown", str(tmp_path / "x.svg"))
    assert code == 2


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_render_bad_samples_exit_2(tmp_path, capsys, samples):
    out_path = tmp_path / "k.svg"
    code, _, err = run(capsys, "render", "koebe", str(out_path), "--samples", samples)
    assert code == 2
    assert "samples_per_curve must be >= 1" in err
    assert not out_path.exists()


def test_render_options_are_the_render_flags(tmp_path, capsys, monkeypatch):
    # each RenderOptions field is filled from one `render` flag and there is
    # no other field: a knob no flag sets is code that only tests reach
    flags = {"--circles": ("circles", 3), "--rays": ("rays", 5),
             "--rmax": ("r_max", 0.5), "--samples": ("samples_per_curve", 7)}
    arguments = _COMMANDS["render"][2]
    assert sorted(name for name, _ in arguments if name.startswith("--")) == sorted(flags)
    seen = []
    monkeypatch.setattr(cli, "render_svg", lambda F, opts: seen.append(opts) or b"")
    argv = ["render", "koebe", str(tmp_path / "k.svg")]
    for flag, (_, value) in flags.items():
        argv += [flag, str(value)]
    assert run(capsys, *argv)[0] == 0
    [opts] = seen
    assert {name: getattr(opts, name) for name in RenderOptions.__slots__} == dict(
        flags.values())
    assert list(RenderOptions.__slots__) == [field for field, _ in flags.values()]


def test_render_oversized_exit_2_before_allocating(tmp_path, capsys):
    # 10**9 samples per curve would be an 8 GB array of points
    build_parser()
    out_path = tmp_path / "k.svg"
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "render", "koebe", str(out_path), "--samples", "1000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "samples_per_curve must be <= 1048576" in err
    assert not out_path.exists()
    assert peak < 1_000_000, peak


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    # a successful call of each command builds no ArgumentParser; help and
    # usage errors build the full parser once, and no call rebuilds it
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    out_path = tmp_path / "k.svg"
    calls = [("expand", "koebe", "3"), ("expand", "koebe", "--order=3", "--json"),
             ("classify", "koebe"), ("shear", "koebe", "+z", "real", "--show", "4"),
             ("verify", "REMARK", "--order", "16"), ("list", "--family", "T6"),
             ("render", "koebe", str(out_path), "--samples", "16")]
    assert sorted({argv[0] for argv in calls}) == sorted(_COMMANDS)
    for _ in range(2):
        for argv in calls:
            assert run(capsys, *argv)[0] == 0, argv
    assert out_path.exists()
    assert built == [] and build_parser.cache_info().misses == 0
    for _ in range(2):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and out.startswith("usage: harmonic-atlas [-h]")
    assert built == ["harmonic-atlas", *(f"harmonic-atlas {c}" for c in _COMMANDS)]
    assert build_parser.cache_info().misses == 1
    # a usage error goes to the full parser, built already
    code, _, err = run(capsys, "render", "koebe", str(tmp_path / "a.svg"), "--bogus")
    assert code == 2 and "unrecognized arguments: --bogus" in err
    assert len(built) == 1 + len(_COMMANDS)


def _fields(args):
    """A namespace's attributes and values as text, where NaN equals NaN."""
    return repr(sorted(vars(args).items()))


def test_table_route_reads_every_declared_keyword():
    # ``_plain`` reads help (ignored), type, nargs="?" on the last
    # positional, choices, default and action="store_true"; a keyword
    # outside these would parse differently on the two routes
    for command, (_, _, arguments) in _COMMANDS.items():
        names = [name for name, _ in arguments]
        positionals = [name for name in names if not name.startswith("--")]
        assert names[:len(positionals)] == positionals, command
        for name, keywords in arguments:
            assert set(keywords) <= {"help", "type", "nargs", "choices", "default",
                                     "action"}, (command, name)
            assert keywords.get("action", "store_true") == "store_true", (command, name)
            if "nargs" in keywords:
                assert keywords["nargs"] == "?" and name == positionals[-1], (command, name)
            # argparse converts a string default with ``type``; the table
            # route takes every default as it is
            assert not isinstance(keywords.get("default"), str), (command, name)
            assert keywords.get("type", str) in (str, int, float), (command, name)


@pytest.mark.parametrize("argv", [
    ("expand", "koebe"), ("expand", "koebe", "5", "--json"), ("expand", "-z^2+z", "-5"),
    ("expand", "--order=7", "--order", "3", "koebe"), ("expand", "-", "--config="),
    ("shear", "-z^2+z", "-z", "real", "--order", "-1", "--show=0"),
    ("classify", "koebe", "--json", "--json", "--config", "-"),
    ("verify", "all", "--grid-angles", "-3", "--grid-radii", " 4 "),
    ("list",), ("list", "--family=", "--json"),
    ("render", "koebe", "k.svg", "--rmax", "1e-1", "--circles", "-3"),
    ("verify", "REMARK", "--config=--"),
])
def test_plain_argv_namespace_equals_the_full_parser(argv):
    args = _plain(list(argv))
    assert args is not None
    assert _fields(args) == _fields(build_parser().parse_args(list(argv)))


@pytest.mark.parametrize("argv", [
    (), ("bogus",), ("expand",), ("expand", "koebe", "--ord", "3"),
    ("expand", "koebe", "--", "3"), ("expand", "koebe", "--order", "3", "5"),
    ("shear", "koebe", "--order", "3", "+z", "real"), ("expand", "koebe", "--order"),
    ("expand", "koebe", "--order", "--json"), ("expand", "koebe", "--config", "-h"),
    ("expand", "koebe", "--json=1"), ("expand", "koebe", "x"), ("verify", "T99"),
    ("expand", "koebe", "3", "4"), ("list", "-h"), ("list", "--bogus"),
    # argparse refuses a bad value even when a later one replaces it
    ("classify", "koebe", "--order", "x", "--order", "3"),
])
def test_other_argv_goes_to_the_full_parser(argv):
    assert _plain(list(argv)) is None


@pytest.mark.parametrize("argv, message", [
    (("expand", "koebe", "--order=--"), "argument --order: invalid int value: '--'"),
    (("shear", "koebe", "+z", "real", "--show=--"), "argument --show: invalid int value: '--'"),
    (("render", "koebe", "k.svg", "--samples=--"),
     "argument --samples: invalid int value: '--'"),
    (("verify", "REMARK", "--config=--"), "cannot read config --: "),
    (("list", "--family=--"), "unknown family '--'"),
], ids=["expand", "shear", "render", "verify", "list"])
def test_explicit_double_dash_value_exit_2(capsys, tmp_path, monkeypatch, argv, message):
    # argparse stripped the "--" of --name=--, leaving the option the value
    # []: a TypeError traceback, or no config file and every family read
    monkeypatch.chdir(tmp_path)
    table, full = ((route(list(argv)), *capsys.readouterr()) for route in (main, _full_route))
    assert table == full
    code, out, err = table
    assert code == 2 and not out and message in err and err.count("error:") == 1, err
    assert not (tmp_path / "k.svg").exists()


def test_positional_double_dash_after_the_separator_is_kept(capsys, tmp_path, monkeypatch):
    # argparse stripped a positional's "--" written after the separator "--",
    # leaving the value []: render raised a TypeError traceback
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "render", "koebe", "--", "--") == (0, "wrote --\n", "")
    assert run(capsys, "render", "koebe", "k.svg") == (0, "wrote k.svg\n", "")
    assert (tmp_path / "--").read_bytes() == (tmp_path / "k.svg").read_bytes()
    code, out, err = run(capsys, "shear", "koebe", "--", "--", "real")
    assert (code, out) == (2, "") and err.count("error:") == 1, err


def _full_route(argv):
    """What ``main`` gave when every call parsed with the full parser."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return _run(args)


# per command: no arguments, a missing positional, a bad int, an unknown
# flag after and before the positionals
_USAGE_CASES = {
    "list": [(), ("--family",), ("--family", "S_Z", "--bogus"),
             ("--bogus", "--family", "S_Z")],
    "expand": [(), ("--json",), ("koebe", "x"), ("koebe", "3", "--bogus"),
               ("--bogus", "koebe", "3")],
    "shear": [(), ("koebe", "+z"), ("koebe", "+z", "real", "--show", "x"),
              ("koebe", "+z", "real", "--bogus"), ("--bogus", "koebe", "+z", "real"),
              ("koebe", "-z", "real"), ("koebe", "-z", "sideways")],
    "classify": [(), ("--order", "5"), ("koebe", "--order", "x"), ("koebe", "--bogus"),
                 ("--bogus", "koebe")],
    "verify": [(), ("--json",), ("T31", "--order", "x"), ("T31", "--bogus"),
               ("--bogus", "T31"), ("T99",)],
    "render": [(), ("koebe",), ("koebe", "{out}", "--circles", "x"),
               ("koebe", "{out}", "--bogus"), ("--bogus", "koebe", "{out}")],
}
USAGE_ARGVS = ([("--help",), (), ("bogus",), ("bogus", "--help")]
               + [(c, "-h") for c in _USAGE_CASES]
               + [(c, *rest) for c, cases in _USAGE_CASES.items() for rest in cases])


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
def test_output_matches_the_full_parser(capsys, tmp_path, argv):
    argv = [a.replace("{out}", str(tmp_path / "k.svg")) for a in argv]
    want = _full_route(argv), *capsys.readouterr()
    got = main(argv), *capsys.readouterr()
    assert got == want
    assert not (tmp_path / "k.svg").exists()


def test_render_io_error_exit_3(tmp_path, capsys):
    code, _, err = run(capsys, "render", "koebe", str(tmp_path / "no" / "dir.svg"))
    assert code == 3


# the grid's flags, which only verify declares, and two no command declares
OTHER_SETTING_FLAGS = [("--grid-radii", "4"), ("--grid-angles", "8"), ("--r-max", "0.5"),
                       ("--tol", "0.1")]
IGNORED_FLAGS = [("--config", "x.cfg"), ("--order", "5"), *OTHER_SETTING_FLAGS]


@pytest.mark.parametrize("flag", IGNORED_FLAGS + [("--json",)], ids=lambda f: f[0])
def test_render_refuses_flags_it_does_not_read(tmp_path, capsys, flag):
    # `--r-max 0.5` for `--rmax 0.5` wrote the default picture and exited 0
    out_path = tmp_path / "k.svg"
    code, _, err = run(capsys, "render", "koebe", str(out_path), *flag)
    assert code == 2 and f"unrecognized arguments: {flag[0]}" in err
    assert not out_path.exists()


@pytest.mark.parametrize("flag", IGNORED_FLAGS, ids=lambda f: f[0])
def test_list_refuses_config_flags(capsys, flag):
    code, out, err = run(capsys, "list", "--json", *flag)
    assert code == 2 and f"unrecognized arguments: {flag[0]}" in err and not out


@pytest.mark.parametrize("flag", OTHER_SETTING_FLAGS, ids=lambda f: f[0])
@pytest.mark.parametrize("command", ["expand", "shear", "classify"])
def test_order_commands_refuse_grid_flags(capsys, command, flag):
    # `expand koebe 4 --tol 5 --r-max 0.01 --grid-radii 1` read none of them
    # and exited 0
    code, out, err = run(capsys, command, *_CONFIG_COMMANDS[command], *flag)
    assert code == 2 and f"unrecognized arguments: {flag[0]}" in err and not out
