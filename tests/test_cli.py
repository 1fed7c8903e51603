import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import curveinv
from curveinv import cli, geometry, invariants
from curveinv.catalog import (
    DIAGRAM_FIXTURES,
    PARAMETRIC_NAMES,
    diagram_fixture,
    validate_catalog,
)
from curveinv.cli import main
from curveinv.errors import CurveInvError
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


# one run of each exact subcommand; CI runs the same six without numpy
EXACT_COMMANDS = [
    ["validate", "circle_torus"],
    ["invariant", "figure8_sphere", "--format", "json"],
    ["compare", "figure8_sphere"],
    ["move", "circle_sphere", "--site", "birth:0:0.0.250:0.0.750:opposite"],
    ["random", "--crossings", "4", "--seed", "1"],
    ["catalog"],
]


def test_exact_command_does_not_import_numpy():
    """Every exact subcommand runs without loading numpy (-X importtime
    lists every module the process imports)."""
    src = str(Path(curveinv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in EXACT_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "curveinv.cli", *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines() if line.startswith("import time:")}
        assert "curveinv.invariants" in imported, argv
        assert not {name for name in imported if name.split(".")[0] == "numpy"}, argv
        assert "curveinv.geometry" not in imported, argv


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


@pytest.mark.parametrize("command", ["invariant", "compare"])
def test_a_nontrivial_curve_is_an_error_line_and_exit_2(capsys, command):
    code, out, err = run(capsys, command, "essential_torus_circle")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("name", ["figure8_sphere", "circle_torus"])
def test_compare_shows_an_iq_disagreement_as_a_fail_table(capsys, monkeypatch, name):
    # a faulty Euler route, wherever it is bound: on every surface each base
    # prints its row and FAIL, and the command exits 3 without a traceback
    # or a reproducer
    for module in (cli, invariants):
        monkeypatch.setattr(module, "iq_euler", lambda *args: HalfLaurent.zero())
    code, out, err = run(capsys, "compare", name)
    assert (code, err) == (3, "")
    assert out.count("          FAIL\n") == len(diagram_fixture(name).regions)
    assert out.endswith("\nFAIL\n")


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


@pytest.mark.parametrize("argv,prefix", [
    (["validate"], "invalid: "),
    (["invariant"], "error: "),
    (["compare"], "error: "),
    (["move", "--site", "birth:0:0.0.250:0.0.750:opposite"], "error: "),
])
def test_a_diagram_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path, argv, prefix):
    # before, the UnicodeDecodeError of reading it ended in a traceback
    path = tmp_path / "latin1.diagram"
    path.write_bytes(b"curve 1+ 1+\nbase 0\n# \xff\n")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert (out + err).startswith(f"{prefix}cannot read {path}: ")
    assert "Traceback" not in out + err


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


@pytest.mark.parametrize("fixture", PARAMETRIC_NAMES)
def test_numeric_reads_each_level_chi_from_the_profile(capsys, monkeypatch, fixture):
    # subsurface_chi is the tests' reference; no module of the library calls it
    def refuse(*args):
        raise AssertionError("subsurface_chi was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "curveinv" and hasattr(module, "subsurface_chi"):
            monkeypatch.setattr(module, "subsurface_chi", refuse)
    code, out, _ = run(capsys, "numeric", "--fixture", fixture)
    assert code == 0 and "gauss-bonnet j=" in out
    code, out, _ = run(capsys, "numeric", "--fixture", fixture, "--format", "json")
    assert code == 0 and json.loads(out)["gauss_bonnet"]


@pytest.mark.parametrize("fixture", PARAMETRIC_NAMES)
def test_numeric_builds_two_profiles_and_two_foot_batches(capsys, monkeypatch, fixture):
    # one profile and one index function for full_report and one of each
    # for every Gauss-Bonnet level (extraction builds none); one batch of
    # feet per context, the fine and the coarse
    counts = {"subsurface_profile": 0, "index_function": 0, "_feet": 0}

    def counting(name, function):
        def counted(*args):
            counts[name] += 1
            return function(*args)
        return counted

    for name in ("subsurface_profile", "index_function"):
        for module in (geometry, invariants, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(geometry, "_feet", counting("_feet", geometry._feet))
    code, out, _ = run(capsys, "numeric", "--fixture", fixture, "--format", "json")
    assert code == 0 and json.loads(out)["gauss_bonnet"]
    assert counts == {"subsurface_profile": 2, "index_function": 2, "_feet": 2}


@pytest.mark.parametrize("fixture,param,value", [("circle_torus", "rho=1e-160", "inf"),
                                                 ("latitude", "alpha=1e-300", "nan")])
def test_numeric_curve_too_small_for_its_arc_integrals(capsys, fixture, param, value):
    # |v|^3 underflows to 0: the error names the arc, and no warning precedes it
    code, out, err = run(capsys, "numeric", "--fixture", fixture, "--param", param)
    assert (code, out) == (1, "")
    assert err == f"error: arc 0: the integral of k_g ds is {value}\n"


def test_numeric_unknown_fixture(capsys):
    code, _, err = run(capsys, "numeric", "--fixture", "nonsense")
    assert code == 1
    # the message alone, without the quotes str() puts round a KeyError's
    assert err == "error: unknown parametric fixture 'nonsense'\n"


def test_numeric_curve_leaving_the_torus_chart(capsys):
    # rho just below 1/2 keeps the circle inside [0, 1]^2 but not 1e-6 from
    # its edges
    code, out, err = run(capsys, "numeric", "--fixture", "circle_torus",
                         "--param", "rho=0.4999999")
    assert (code, out) == (1, "")
    assert err == "error: the curve leaves the open fundamental-domain chart\n"


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


def test_numeric_repeated_param_is_an_error(capsys):
    # a fault, not the last value kept in silence
    code, out, err = run(capsys, "numeric", "--fixture", "latitude",
                         "--param", "alpha=1", "--param", "alpha=2")
    assert (code, out) == (1, "")
    assert err == "error: duplicate --param alpha\n"


@pytest.mark.parametrize("fixture,param,q,message", [
    ("nonsense", None, None, "unknown parametric fixture 'nonsense'"),
    ("latitude", ["alpha=x"], None, "bad value for --param alpha: 'x'"),
    ("latitude", ["alpha=1", "alpha=1"], None, "duplicate --param alpha"),
    ("latitude", ["alpha=0"], None, "colatitude must lie in"),
    ("latitude", None, "2,", "bad value for --q: ''"),
    ("latitude", None, "nan", "--q values must be finite"),
    ("latitude", None, "-1", "q must be positive"),
])
def test_numeric_input_faults_are_raised_for_main_to_report(fixture, param, q, message):
    # cmd_numeric prints no error itself: main reports every CurveInvError
    args = argparse.Namespace(fixture=fixture, param=param, q=q, grid=None, tol=None,
                              format="text")
    with pytest.raises(CurveInvError, match=re.escape(message)):
        cli.cmd_numeric(args)


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


def test_numeric_empty_q_is_a_bad_value(capsys):
    # an empty list is not the default q values
    code, out, err = run(capsys, "numeric", "--fixture", "latitude", "--q", "")
    assert (code, out) == (1, "")
    assert err == "error: bad value for --q: ''\n"


@pytest.mark.parametrize("q", ["1e-320", "5e-324"])
def test_numeric_q_whose_powers_overflow(capsys, q):
    # q^i at the figure eight's level -1 is beyond a float: an error, not a
    # traceback
    code, out, err = run(capsys, "numeric", "--fixture", "figure8_sphere_param", "--q", q)
    assert (code, out) == (1, "")
    assert err == f"error: --q {q}: a power q^i at this curve's index levels overflows a float\n"


@pytest.mark.parametrize("q", ["1e200", "1e-200"])
def test_numeric_q_far_from_one_passes_within_rounding(capsys, q):
    # both routes give 5e99 to 15 digits; the gap is rounding of terms that
    # large, not a route disagreement
    code, out, _ = run(capsys, "numeric", "--fixture", "figure8_sphere_param",
                       "--q", q, "--format", "json")
    row = json.loads(out)["iq"][0]
    assert abs(row["exact"]) == 5e99 and row["difference"] > 1e80
    assert (code, row["pass"]) == (0, True)


@pytest.mark.parametrize("q", ["1e200", "1e-200"])
def test_numeric_q_far_from_one_still_fails_a_real_gap(capsys, monkeypatch, q):
    numeric_iq = geometry.numeric_iq

    def off(*args, **kwargs):   # 1e-6 off in relative terms
        return [v * (1 + 1e-6) for v in numeric_iq(*args, **kwargs)]

    monkeypatch.setattr(geometry, "numeric_iq", off)
    code, out, _ = run(capsys, "numeric", "--fixture", "figure8_sphere_param", "--q", q)
    assert code == 3
    assert out.splitlines()[2].endswith(" FAIL") and out.endswith("\nFAIL\n")


@pytest.mark.parametrize("q", ["0", "-1", "0.5,-2"])
def test_numeric_rejects_nonpositive_q_before_the_contexts(capsys, monkeypatch, q):
    monkeypatch.setattr(geometry, "NumericContext", None)   # building one would raise
    code, out, err = run(capsys, "numeric", "--fixture", "latitude", "--q", q)
    assert (code, out) == (1, "")
    assert err == f"error: q must be positive, got {float(q.split(',')[-1])}\n"


@pytest.mark.parametrize("grid", ["-8", "0"])
def test_numeric_rejects_nonpositive_grid(capsys, grid):
    code, out, err = run(capsys, "numeric", "--fixture", "latitude", "--grid", grid)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--grid" in err


@pytest.mark.parametrize("grid,seed_grid", [("10", 50), ("128", 128)])
def test_numeric_grid_sets_the_seed_grid(capsys, monkeypatch, grid, seed_grid):
    # before, --grid set only curve_samples, which nothing reads now
    grids = []
    context = geometry.NumericContext
    monkeypatch.setattr(geometry, "NumericContext", lambda curve, base, cfg:
                        grids.append(cfg.double_grid) or context(curve, base, cfg))
    code, _out, _err = run(capsys, "numeric", "--fixture", "latitude", "--grid", grid)
    assert code == 0 and grids == [seed_grid, max(50, seed_grid // 2)]


@pytest.mark.parametrize("grid", ["65537", "100000"])
def test_numeric_rejects_grid_above_bound(capsys, grid):
    # --grid sets the double-point seed grid; at the bound, 65536, a fixture
    # context takes 0.07-0.19 s
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
    # integers are read as in a diagram file: 0 or [1-9][0-9]* in ASCII
    ("bigon:+0", "error: bad region id: '+0'\n"),
    ("bigon:0_0", "error: bad region id: '0_0'\n"),
    ("birth:0:0.0.0250:0.0.750:opposite",
     "error: bad permille in position '0.0.0250': '0250'\n"),
])
def test_move_site_errors_name_the_bad_field(capsys, site, message):
    code, out, err = run(capsys, "move", "circle_sphere", "--site", site)
    assert code == 1
    assert out == ""
    assert err == message


@pytest.mark.parametrize("tail, message", [
    (":plan=g1~g0:x", "error: unexpected site field 'x'\n"),
    (":plan=g1~g0:plan=g0~g1", "error: unexpected site field 'plan=g0~g1'\n"),
    (":plan=g0*~g1*", "error: bad plan 'g0*~g1*': only one piece may carry '*'\n"),
    (":x", "error: unexpected site field 'x'\n"),
])
def test_move_rejects_fields_after_the_plan_and_a_second_base_piece(capsys, tail, message):
    code, out, err = run(capsys, "move", "circle_torus",
                         "--site", "birth:1:1.0.250:1.0.750:opposite" + tail)
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("site, message", [
    ("birth:99:1.0.250:1.0.750:opposite", "region 99 does not exist"),
    ("birth:1:1.0.250:1.0.750:opposite:plan=g0~g0~g0",
     "a split plan must declare one or two pieces"),
    ("birth:1:1.0.250:1.0.750:opposite:plan=g-1~g1", "piece genus must be nonnegative"),
    ("birth:1:1.0.250:1.0.750:opposite:plan=g0+5~g1",
     "plan must partition the untouched cycles []"),
])
def test_move_birth_rejections(capsys, site, message):
    code, out, err = run(capsys, "move", "circle_torus", "--site", site)
    assert (code, out, err) == (1, "", f"error: {message}\n")
