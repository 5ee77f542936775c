import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from curveflow import cli
from curveflow import curve_core as cc


def write_curve(path, pts, closed):
    cc.save_curve(cc.DiscreteCurve(pts, closed), path)


def line_curve(n=64):
    th = (2 * np.pi / (n - 1)) * np.arange(n)
    return np.stack([th, np.zeros(n)], 1)


def circle_file(tmp_path, name, r, n=128):
    th = (2 * np.pi / (n - 1)) * np.arange(n)
    pts = r * np.stack([np.cos(th), np.sin(th)], 1)
    p = tmp_path / name
    write_curve(p, pts, False)
    return p


def test_transform_roundtrip_line(tmp_path):
    src = tmp_path / "line.json"
    write_curve(src, line_curve(), False)
    mid = tmp_path / "line_q.json"
    back = tmp_path / "line_back.json"
    assert cli.main(["transform", "--metric", "M2", str(src), "-o", str(mid)]) == 0
    assert cli.main(["transform", "--metric", "M2", "--inverse", str(mid),
                     "-o", str(back)]) == 0
    a = cc.load_curve(src)
    b = cc.load_curve(back)
    assert np.abs(a.points - b.points).max() < 1e-8


def test_distance_command_prints_closed_form(tmp_path, capsys):
    c1 = circle_file(tmp_path, "c1.json", 1.0)
    c4 = circle_file(tmp_path, "c4.json", 4.0)
    assert cli.main(["distance", "--metric", "M1", str(c1), str(c4)]) == 0
    out = capsys.readouterr().out
    val = float(out.splitlines()[0].split("=")[1])
    expect = np.sqrt(2 * np.pi * (16 * (4 ** 0.25 - 1) ** 2 + 4))
    assert abs(val - expect) < 5e-3
    assert "lower bound" in out


def test_distance_deterministic(tmp_path, capsys):
    c1 = circle_file(tmp_path, "a.json", 1.0)
    c2 = circle_file(tmp_path, "b.json", 2.0)
    cli.main(["distance", "--metric", "M2", str(c1), str(c2)])
    first = capsys.readouterr().out
    cli.main(["distance", "--metric", "M2", str(c1), str(c2)])
    assert capsys.readouterr().out == first


def test_curvature_scal_table(capsys):
    assert cli.main(["curvature", "--scal2", "0.5,1,2"]) == 0
    out = capsys.readouterr().out
    assert "-12" in out and "-0.75" in out


@pytest.mark.parametrize("value, token", [("a,1", "'a'"), ("1,,2", "''")])
def test_curvature_scal_bad_number_is_usage_error(capsys, value, token):
    with pytest.raises(SystemExit) as exc:
        cli.main(["curvature", "--scal2", value])
    assert exc.value.code == 2
    assert f"argument --scal2: {token} is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "1,nan"])
def test_curvature_scal_non_finite_is_named(capsys, value):
    assert cli.main(["curvature", "--scal2", value]) == 1
    out, err = capsys.readouterr()
    assert "scal2 needs a finite x" in err and out == ""


def test_curvature_sectional(tmp_path, capsys):
    n = 96
    th = (2 * np.pi / (n - 1)) * np.arange(n)
    pts = np.stack([th + 0.1 * np.sin(th), 0.2 * np.cos(th)], 1)
    cpath = tmp_path / "c.json"
    write_curve(cpath, pts, False)
    for name, seed in (("h.json", 1), ("k.json", 2)):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((n, 2)).tolist()
        (tmp_path / name).write_text(json.dumps({"values": vals}))
    rc = cli.main(["curvature", "--metric", "M2", "--curve", str(cpath),
                   "--h", str(tmp_path / "h.json"), "--k", str(tmp_path / "k.json")])
    assert rc == 0
    val = float(capsys.readouterr().out.split("=")[1])
    assert val <= 0.0


def test_domain_error_exit_code(tmp_path, capsys):
    c1 = circle_file(tmp_path, "c1.json", 1.0)
    c2 = circle_file(tmp_path, "c2.json", 2.0)
    assert cli.main(["distance", "--metric", "M4", str(c1), str(c2)]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["distance", "--metric"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["curvature"])
    assert exc.value.code == 2


def test_run_config_has_only_read_fields():
    assert [f.name for f in dataclasses.fields(cli.RunConfig)] == ["n", "dt", "tol", "outdir"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "fig2", "--seed", "3"])
    assert exc.value.code == 2


def test_curvature_metric_must_be_m2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["curvature", "--metric", "M9", "--scal2", "1"])
    assert exc.value.code == 2
    assert cli.main(["curvature", "--metric", "M2", "--scal2", "1"]) == 0


def test_demo_bad_run_config_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "fig2", "--n", "4", "-o", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "N must be at least 8" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, flags", [
    (["demo", "fig2", "--tol", "123", "--modes", "99", "--bvp-dt", "7"],
     "demo fig2 does not read --tol, --modes, --bvp-dt"),
    (["demo", "fig3", "--which", "2", "--tol", "9"], "demo fig3 does not read --tol, --which"),
    (["demo", "fig3", "--modes", "8"], "demo fig3 does not read --modes"),
    (["demo", "fig1", "--dt", "1e-2"], "demo fig1 does not read --dt"),
    (["curvature", "--scal2", "1", "--curve", "c.json", "--k", "k.json"],
     "curvature --scal2 does not read --curve, --k"),
])
def test_unread_flags_are_usage_errors(tmp_path, capsys, argv, flags):
    # a flag the command would ignore is named, before any work
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["-o", str(tmp_path / "o")] if argv[0] == "demo" else argv)
    assert exc.value.code == 2
    assert flags in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_demo_fig2_writes_snapshots(tmp_path, capsys):
    out = tmp_path / "fig2"
    rc = cli.main(["demo", "fig2", "--which", "1", "--n", "48",
                   "--dt", "2e-2", "--snapshots", "5", "-o", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["curves"]) == 5
    assert (out / "diagnostics.csv").exists()
    snaps = np.loadtxt(out / "snapshots.csv", delimiter=",", skiprows=1)
    assert snaps.shape == (5 * 48, 4)


def test_demo_fig3_relative_residual(tmp_path, capsys):
    out = tmp_path / "fig3"
    rc = cli.main(["demo", "fig3", "--n", "48", "--dt", "1e-2",
                   "--snapshots", "5", "-o", str(out)])
    assert rc == 0
    assert "relative residual" in capsys.readouterr().out


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 48, "dt": 2e-2}))
    out = tmp_path / "o"
    rc = cli.main(["demo", "fig2", "--which", "2", "--config", str(cfg),
                   "--snapshots", "3", "-o", str(out)])
    assert rc == 0
    loaded = cc.load_curve(out / "curve_0000.json")
    assert loaded.n_samples == 48


def test_config_file_unknown_keys_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 48, "dt": 0.02, "seed": 5, "T": 9}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "fig2", "--config", str(cfg), "-o", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unknown keys T, seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_file_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "fig2", "--config", str(cfg), "-o", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "JSON object with keys from: n, dt, tol, outdir" in capsys.readouterr().err


def test_config_file_missing_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "absent.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "fig2", "--config", str(cfg), "-o", str(tmp_path / "o")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot read config file {cfg}" in err
    assert "No such file" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("data, message", [
    ({"n": "abc"}, "n must be of type int, got 'abc'"),
    ({"n": 48.0}, "n must be of type int, got 48.0"),
    ({"dt": "2e-2"}, "dt must be of type float, got '2e-2'"),
    ({"tol": [1e-3]}, "tol must be of type float, got [0.001]"),
])
def test_config_file_wrong_type_is_usage_error(tmp_path, capsys, data, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "fig2", "--config", str(cfg), "-o", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_console_entry_point():
    # the child interpreter imports curveflow from where this process did
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-m", "curveflow.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "transform" in proc.stdout


def test_ivp_command_files(tmp_path):
    n = 48
    th = (2 * np.pi / n) * np.arange(n)
    cpath = tmp_path / "circle.json"
    write_curve(cpath, np.stack([np.cos(th), np.sin(th)], 1), True)
    vpath = tmp_path / "u0.json"
    vals = np.stack([np.zeros(n), np.sin(th)], 1).tolist()
    vpath.write_text(json.dumps({"values": vals}))
    out = tmp_path / "ivp_out"
    rc = cli.main(["ivp", "--metric", "M3", "--curve", str(cpath),
                   "--velocity", str(vpath), "-T", "0.2", "--steps", "20",
                   "--snapshots", "5", "-o", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["curves"]) == 5


@pytest.mark.parametrize("argv, code, words", [
    (["transform", "--metric", "M5", "{circle}", "-o", "{out}"], 2, ["--metric", "M5"]),
    (["distance", "--metric", "M9", "{circle}", "{circle}"], 2,
     ["--metric", "M9", "M1", "M4"]),
    (["transform", "--metric", "M1", "--inverse", "{q3}", "-o", "{out}"], 1, ["M1", "M3"]),
    (["ivp", "--metric", "M3", "--curve", "{circle}", "--velocity", "{u0}",
      "-T", "0.2", "--steps", "0"], 1, ["steps"]),
    (["ivp", "--metric", "M3", "--curve", "{circle}", "--velocity", "{u0}",
      "-T", "0.2", "--steps", "-3"], 1, ["steps"]),
    (["ivp", "--metric", "M2", "--curve", "{line}", "--velocity", "{u0}",
      "-T", "0.2", "--steps", "5"], 1, ["M2", "steps"]),
    (["ivp", "--metric", "M3", "--curve", "{circle}", "--velocity", "{u0}",
      "-T", "0"], 1, ["T must be"]),
    (["ivp", "--metric", "M3", "--curve", "{circle}", "--velocity", "{u0}",
      "-T", "0.2", "--snapshots", "-2"], 1, ["snapshots"]),
    (["bvp", "--metric", "M2", "{line}", "{line}", "--snapshots", "0"], 1, ["snapshots"]),
    (["demo", "fig2", "--n", "16", "--dt", "5", "-o", "{out}"], 1, ["steps"]),
    (["bvp", "--metric", "M1", "{line}", "{line}", "--modes", "3"], 1, ["modes"]),
    (["bvp", "--metric", "M3", "{circle}", "{circle}", "--dt", "0"], 1, ["dt"]),
    (["bvp", "--metric", "M3", "{circle}", "{circle}", "--dt", "-0.1"], 1, ["dt"]),
    (["demo", "fig1", "--n", "16", "--bvp-dt", "0", "-o", "{out}"], 1, ["dt"]),
    (["distance", "--metric", "M2", "{short}", "{short}"], 1, ["short.json", "8 samples"]),
    (["distance", "--metric", "M2", "{garbage}", "{line}"], 1, ["garbage.json"]),
    (["transform", "--metric", "M3", "--inverse", "{garbage}", "-o", "{out}"], 1,
     ["garbage.json", "transform"]),
    (["transform", "--metric", "M3", "{noclosed}", "-o", "{out}"], 1,
     ["noclosed.json", "closed"]),
    (["ivp", "--metric", "M3", "--curve", "{circle}", "--velocity", "{novalues}",
      "-T", "0.2"], 1, ["novalues.json", "values"]),
    (["ivp", "--metric", "M2", "--curve", "{line}", "--velocity", "{u0nan}",
      "-T", "0.2"], 1, ["u0", "finite"]),
], ids=["transform-M5", "distance-M9", "inverse-mismatch", "ivp-steps-0",
        "ivp-steps-neg", "ivp-M2-steps", "ivp-T-0", "ivp-snapshots-neg", "bvp-snapshots-0",
        "demo-fig2-dt-5", "bvp-M1-modes", "bvp-dt-0", "bvp-dt-neg",
        "demo-fig1-bvp-dt-0", "distance-5-points", "curve-not-json",
        "transform-not-json", "curve-no-closed", "velocity-no-values",
        "velocity-nan"])
def test_bad_input_is_named_error(tmp_path, capsys, argv, code, words):
    # bad metric names are usage errors; a --metric that contradicts the
    # transform file, unusable solver sizes and shooting settings, shooting
    # flags on a metric without shooting, and malformed input files are
    # named errors
    n = 32
    th = (2 * np.pi / n) * np.arange(n)
    names = ("circle", "line", "u0", "q3", "out", "short", "garbage", "noclosed",
             "novalues", "u0nan")
    files = {name: str(tmp_path / f"{name}.json") for name in names}
    write_curve(files["circle"], np.stack([np.cos(th), np.sin(th)], 1), True)
    write_curve(files["line"], line_curve(n), False)
    u0 = np.stack([np.zeros(n), np.sin(th)], 1)
    contents = {
        "u0": json.dumps({"values": u0.tolist()}),
        "short": json.dumps({"points": line_curve(5).tolist(), "closed": False}),
        "garbage": "not json {",
        "noclosed": json.dumps({"points": line_curve(n).tolist()}),
        "novalues": json.dumps({"vals": u0.tolist()}),
        "u0nan": json.dumps({"values": np.where(th[:, None] > 1, np.nan, u0).tolist()}),
    }
    for name, text in contents.items():
        with open(files[name], "w") as fh:
            fh.write(text)
    assert cli.main(["transform", "--metric", "M3", files["circle"],
                     "-o", files["q3"]]) == 0
    capsys.readouterr()
    try:
        rc = cli.main([a.format(**files) for a in argv])
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    err = capsys.readouterr().err
    for word in words:
        assert word in err


def test_validate_command(capsys):
    assert cli.main(["validate"]) == 0
    assert "27/27 checks passed" in capsys.readouterr().out


def test_readme_cli_examples_parse():
    # every line of the README's CLI block is a valid command line
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        block = fh.read().split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.strip().splitlines()]
    assert len(lines) == 11
    parser = cli.build_parser()
    for words in lines:
        assert words[0] == "curveflow"
        parser.parse_args(words[1:])
