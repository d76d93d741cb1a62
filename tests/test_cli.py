"""CLI surface: subcommands, exit codes, config, determinism."""

import json
from pathlib import Path

import pytest

from harmonic_atlas.cli import main

ATLAS = Path(__file__).parent / "data" / "atlas.json"


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


def test_expand_f3(capsys):
    code, out, _ = run(capsys, "expand", "f3_cv1", "4")
    assert code == 0
    assert "h: 0 1 3/2 2 5/2" in out
    assert "g: 0 0 1/2 1 3/2" in out


def test_expand_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "expand", "q//", "4")
    assert code == 2
    assert "error" in err


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


def test_render_io_error_exit_3(tmp_path, capsys):
    code, _, err = run(capsys, "render", "koebe", str(tmp_path / "no" / "dir.svg"))
    assert code == 3
