import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curveinv
from curveinv import invariants
from curveinv.catalog import DIAGRAM_FIXTURES, validate_catalog
from curveinv.cli import main
from curveinv.laurent import HalfLaurent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_is_valid():
    assert validate_catalog()


def test_catalog_command(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in DIAGRAM_FIXTURES:
        assert name in out
    assert "figure8_sphere_param" in out


def test_exact_command_does_not_import_numpy():
    """`curveinv invariant` runs without loading numpy (-X importtime lists
    every module the process imports)."""
    src = str(Path(curveinv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "curveinv.cli",
         "invariant", "figure8_sphere"],
        env=env, capture_output=True, text=True, check=True,
    )
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "curveinv.invariants" in imported
    assert not {name for name in imported if name.split(".")[0] == "numpy"}
    assert "curveinv.geometry" not in imported


def test_validate_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "circle_sphere")
    assert code == 0
    assert "chi=2" in out and "regions=2" in out

    code, out, _ = run(capsys, "validate", "essential_torus_circle")
    assert code == 2
    assert "nontrivial" in out

    bad = tmp_path / "bad.diagram"
    bad.write_text("curve 1+ 1-\nbase 0\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1


def test_invariant_text(capsys):
    code, out, _ = run(capsys, "invariant", "figure8_sphere")
    assert code == 0
    assert "iq = -1/2*q^(-1/2) + 1/2*q^(1/2)" in out
    assert "rot = 0 (mod 2)" in out
    assert "jplus = 0" in out

    code, out, _ = run(capsys, "invariant", "circle_torus")
    assert code == 0
    assert "jplus: undefined (chi = 0)" in out

    code, out, _ = run(capsys, "invariant", "circle_sphere")
    assert "sjplus = 1/2" in out


def test_invariant_json_matches_text(capsys):
    code, out, _ = run(capsys, "invariant", "figure8_sphere", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["iq"] == "-1/2*q^(-1/2) + 1/2*q^(1/2)"
    assert data["i1"] == 0
    assert data["rotation"] == {"value": 0, "modulus": 2}
    assert data["jplus"] == "0"
    assert data["jminus"] == "-1"
    assert data["sjplus"] == "0"


def test_invariant_base_override(capsys):
    code, out, _ = run(capsys, "invariant", "figure8_sphere", "--base", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["base_region"] == 2
    assert data["jplus"] == "0"   # base independent


def test_invariant_nontrivial_exit(capsys):
    code, _, err = run(capsys, "invariant", "essential_torus_circle")
    assert code == 2


def test_cross_check_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(invariants, "iq_euler", lambda *args: HalfLaurent.zero())
    code, out, err = run(capsys, "invariant", "figure8_sphere")
    assert code == 3
    assert out == ""
    assert err.startswith("error: internal cross-check failed: I_q")
    assert "curve 1+ 1+" in err   # the serialized reproducer


def test_compare(capsys, tmp_path):
    code, out, _ = run(capsys, "compare", "figure8_sphere")
    assert code == 0
    assert out.strip().endswith("PASS")

    code, out, _ = run(capsys, "random", "--crossings", "5", "--genus", "0",
                       "--seed", "42", "-o", str(tmp_path / "r.diagram"))
    assert code == 0
    code, out, _ = run(capsys, "compare", str(tmp_path / "r.diagram"))
    assert code == 0

    code, out, _ = run(capsys, "random", "--crossings", "4", "--genus", "2",
                       "--seed", "7", "-o", str(tmp_path / "g2.diagram"))
    assert code == 0
    code, out, _ = run(capsys, "compare", str(tmp_path / "g2.diagram"))
    assert code == 0


def test_move_birth_and_json(capsys, tmp_path):
    out_path = tmp_path / "moved.diagram"
    code, out, _ = run(capsys, "move", "figure8_sphere",
                       "--site", "birth:0:0.0.500:0.1.500:direct",
                       "-o", str(out_path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["delta_n"] == 2
    assert data["delta_jplus"] == "2"
    assert data["rot_before"] == data["rot_after"]
    assert out_path.exists()

    code, out, _ = run(capsys, "move", "circle_sphere",
                       "--site", "birth:0:0.0.250:0.0.750:opposite")
    assert code == 0
    assert "delta jplus = 0" in out


@pytest.mark.parametrize("permille, fraction", [
    ("-5", "-1/200"), ("0", "0"), ("1000", "1"), ("2000", "2"),
])
def test_move_rejects_birth_position_outside_its_dart(capsys, permille, fraction):
    code, out, err = run(capsys, "move", "circle_sphere",
                         "--site", f"birth:0:0.0.{permille}:0.0.750:opposite")
    assert (code, out) == (1, "")
    assert err == f"error: walk fraction {fraction} of dart 0 is not in (0, 1)\n"


def test_move_triangle(capsys, tmp_path):
    host = tmp_path / "host.diagram"
    code, _, _ = run(capsys, "move", "figure8_sphere",
                     "--site", "birth:0:0.0.500:0.1.500:direct",
                     "-o", str(host))
    assert code == 0
    code, out, _ = run(capsys, "move", str(host), "--site", "triangle:2")
    assert code == 0
    assert "delta jplus = 0" in out


def test_move_site_errors(capsys):
    code, _, err = run(capsys, "move", "figure8_sphere", "--site", "bigon:0")
    assert code == 1
    assert "not a bigon" in err

    code, _, err = run(capsys, "move", "circle_torus",
                       "--site", "birth:1:1.0.250:1.0.750:opposite")
    assert code == 1
    assert "plan" in err.lower()


def test_move_unwritable_output(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "move", "circle_sphere",
                         "--site", "birth:0:0.0.250:0.0.750:opposite",
                         "-o", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


def test_move_birth_with_plan(capsys, tmp_path):
    code, out, _ = run(capsys, "move", "circle_torus",
                       "--site", "birth:1:1.0.250:1.0.750:opposite:plan=g0~g1*",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["delta_n"] == 2
    assert data["delta_jplus"] is None   # chi = 0


def test_random_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.diagram", tmp_path / "b.diagram"
    run(capsys, "random", "--crossings", "3", "--seed", "9", "-o", str(a))
    run(capsys, "random", "--crossings", "3", "--seed", "9", "-o", str(b))
    assert a.read_text() == b.read_text()

    code, out, _ = run(capsys, "random", "--crossings", "0", "--genus", "0",
                       "--seed", "1")
    assert code == 0
    assert "curve -" in out


def test_random_unwritable_output(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "random", "--crossings", "3", "-o", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


@pytest.mark.parametrize("flag", ["--crossings", "--genus"])
def test_random_rejects_negative_sizes(capsys, flag):
    argv = {"--crossings": "2", "--genus": "0", flag: "-1"}
    code, out, err = run(capsys, "random", *(x for kv in argv.items() for x in kv))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "nonnegative" in err


def test_numeric_command(capsys):
    code, out, _ = run(capsys, "numeric", "--fixture", "circle_torus",
                       "--q", "0.5,2,3")
    assert code == 0
    assert out.strip().endswith("PASS")

    code, out, _ = run(capsys, "numeric", "--fixture", "latitude",
                       "--grid", "128", "--q", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["i1"]["exact"] == 1


def test_numeric_figure8_json(capsys):
    code, out, _ = run(capsys, "numeric", "--fixture", "figure8_sphere_param",
                       "--grid", "128", "--format", "json")
    data = json.loads(out)
    assert code == (0 if data["pass"] else 3)
    assert data["i1"]["exact"] == 0
    assert isinstance(data["iq"][0]["pass"], bool)


@pytest.mark.parametrize("fixture, has_jplus", [
    ("great_circle", True), ("latitude", True), ("figure8_sphere_param", True),
    ("circle_torus", False),
])
def test_numeric_json_reports_jplus_where_chi_nonzero(capsys, fixture, has_jplus):
    # the J+ integral formula needs chi(S) != 0: the sphere fixtures report
    # it, the torus fixture reports null
    code, out, _ = run(capsys, "numeric", "--fixture", fixture, "--format", "json")
    assert code == 0
    jplus = json.loads(out)["jplus"]
    assert (jplus is not None) == has_jplus
    if has_jplus:
        assert set(jplus) == {"numeric", "exact", "sjplus"}


def test_numeric_unknown_fixture(capsys):
    code, _, err = run(capsys, "numeric", "--fixture", "nonsense")
    assert code == 1
    # the message alone, without the quotes str() puts round a KeyError's
    assert err == "error: unknown parametric fixture 'nonsense'\n"


def test_numeric_unknown_param(capsys):
    code, out, err = run(capsys, "numeric", "--fixture", "latitude",
                         "--param", "bogus=1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "bogus" in err


@pytest.mark.parametrize("item, shown", [("alpha=abc", "'abc'"), ("alpha=", "''"),
                                         ("alpha", "''")])
def test_numeric_bad_param_value_names_the_parameter(capsys, item, shown):
    code, out, err = run(capsys, "numeric", "--fixture", "latitude", "--param", item)
    assert (code, out) == (1, "")
    assert err == f"error: bad value for --param alpha: {shown}\n"


def test_numeric_bad_q(capsys):
    code, out, err = run(capsys, "numeric", "--fixture", "latitude", "--q", "abc")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "abc" in err


@pytest.mark.parametrize("q,shown", [(",", "''"), ("1,,2", "''"), ("abc", "'abc'")])
def test_numeric_bad_q_value_names_the_option(capsys, q, shown):
    code, out, err = run(capsys, "numeric", "--fixture", "latitude", "--q", q)
    assert (code, out) == (1, "")
    assert err == f"error: bad value for --q: {shown}\n"


@pytest.mark.parametrize("grid", ["-8", "0"])
def test_numeric_rejects_nonpositive_grid(capsys, grid):
    code, out, err = run(capsys, "numeric", "--fixture", "latitude", "--grid", grid)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--grid" in err


@pytest.mark.parametrize("grid", ["65537", "100000"])
def test_numeric_rejects_grid_above_bound(capsys, grid):
    # each context holds 8 * grid curve samples; far larger grids run out of
    # memory inside numpy
    code, out, err = run(capsys, "numeric", "--fixture", "latitude", "--grid", grid)
    assert (code, out, err) == (1, "", "error: --grid must be at most 65536\n")


@pytest.mark.parametrize("flag, value", [
    ("--q", "nan"), ("--q", "inf"), ("--q", "0.5,-inf"),
    ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
])
def test_numeric_rejects_nonfinite_q_and_bad_tol(capsys, flag, value):
    # a usage error (exit 1), not a failed cross-check (exit 3)
    code, out, err = run(capsys, "numeric", "--fixture", "circle_torus", flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and flag in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["move", "circle_sphere"])   # missing --site
    assert exc.value.code == 1


@pytest.mark.parametrize("site, message", [
    ("bigon:abc", "error: bad region id: 'abc'\n"),
    ("birth:0:x.1:0.0.750:opposite", "error: bad cycle in position 'x.1': 'x'\n"),
    ("birth:0:0.0.250:0.0.750:opposite:plan=gX",
     "error: bad genus in plan piece 'gX': 'X'\n"),
])
def test_move_site_errors_name_the_bad_field(capsys, site, message):
    code, out, err = run(capsys, "move", "circle_sphere", "--site", site)
    assert code == 1
    assert out == ""
    assert err == message
