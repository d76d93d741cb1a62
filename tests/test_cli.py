"""CLI surface: subcommands, exit codes, config, determinism."""

import argparse
import dataclasses
import hashlib
import json
import time
import tracemalloc
from pathlib import Path

import pytest

from harmonic_atlas import cli
from harmonic_atlas.cli import _COMMANDS, _command_parser, _run, build_parser, main
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
    assert "must be >= 0" in err


@pytest.mark.parametrize("argv", [
    ("expand", "", "3"), ("expand", " ", "3"), ("expand", "(", "3"),
    ("expand", "z+", "3"), ("expand", "z^", "3"), ("classify", ""),
])
def test_formula_ending_early_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "InvalidExpression: formula ends too early" in err


@pytest.mark.parametrize("argv, cap", [
    (("expand", "koebe", "100000000"), cli._MAX_ORDER),
    (("expand", "koebe", "--order", "100000000"), cli._MAX_ORDER),
    (("classify", "z/(1-z)^2", "--order", "100000000"), cli._MAX_ORDER),
    (("shear", "koebe", "+z", "real", "--order", "100000000"), cli._MAX_ORDER),
    (("verify", "all", "--order", "100000"), cli._MAX_ORDER),
    (("verify", "all", "--grid-angles", "100000000"), cli._MAX_GRID_POINTS),
])
def test_oversized_order_or_grid_exit_2_before_allocating(capsys, argv, cap):
    # refused where the config is checked, before any series or grid exists
    _command_parser(argv[0])
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


def test_largest_order_accepted(capsys):
    code, out, _ = run(capsys, "expand", "koebe", str(cli._MAX_ORDER))
    assert code == 0
    assert out.splitlines()[1].endswith(f" {cli._MAX_ORDER}")


def test_zero_count_prints_index_0(capsys):
    assert run(capsys, "expand", "koebe", "0") == (0, "n: 0\nh: 0\n", "")
    code, out, _ = run(capsys, "expand", "koebe", "0", "--json")
    assert code == 0
    assert json.loads(out) == {"target": "koebe", "order": 0, "h": ["0"]}
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


def test_shear_dilatation_error_exit_2(capsys):
    code, _, err = run(capsys, "shear", "z", "z(1+z)", "real")
    assert code == 2
    assert "DilatationTooLarge" in err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "hslits_wide_avg")
    assert code == 0
    assert "half_integer" in out


def test_list_family(capsys):
    code, out, _ = run(capsys, "list", "--family", "T6")
    assert code == 0
    assert out.count("\n") == 2


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
    assert "matched 20/20" in out


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "T31", "--json")
    code2, out2, _ = run(capsys, "verify", "T31", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["schema"] == 1
    assert report["theorem"] == "T31"


def test_verify_low_order_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "T41", "--order", "3")
    assert code == 1
    assert "MISMATCH" in out


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
    assert dataclasses.asdict(opts) == dict(flags.values())
    assert [f.name for f in dataclasses.fields(RenderOptions)] == [
        field for field, _ in flags.values()]


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
    # each command's parser is built at most once, the full parser only
    # for what the command parsers cannot answer, and no call rebuilds one
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    _command_parser.cache_clear()
    for _ in range(2):
        assert run(capsys, "expand", "koebe", "3")[0] == 0
        assert run(capsys, "expand", "koebe", "3")[0] == 0
        out_path = tmp_path / "k.svg"
        code, out, _ = run(capsys, "render", "koebe", str(out_path), "--samples", "16")
        assert code == 0 and out_path.exists()
        for _ in range(2):
            code, out, _ = run(capsys, "--help")
            assert code == 0 and out.startswith("usage: harmonic-atlas [-h]")
    assert built == ["harmonic-atlas expand", "harmonic-atlas render", "harmonic-atlas",
                     *(f"harmonic-atlas {c}" for c in _COMMANDS)]
    assert _command_parser.cache_info().misses == 2
    assert build_parser.cache_info().misses == 1
    # arguments left over go to the full parser, built already
    code, _, err = run(capsys, "render", "koebe", str(tmp_path / "a.svg"), "--bogus")
    assert code == 2 and "unrecognized arguments: --bogus" in err
    assert len(built) == 9


def _full_route(argv):
    """What ``main`` gave when every call parsed with the full parser."""
    argv = [" -z" if a == "-z" else a for a in argv]
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


IGNORED_FLAGS = [("--config", "x.cfg"), ("--order", "5"), ("--grid-radii", "4"),
                 ("--grid-angles", "8"), ("--r-max", "0.5"), ("--tol", "0.1")]


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
