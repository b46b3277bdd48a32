import csv
import gc
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import pytest

import dunklriesz
from dunklriesz.cli import CONFIG_SCHEMA, DEFAULTS, ConfigError, _conform, main
from dunklriesz.hermite import _c_kappa_moments
from dunklriesz.reflection import root_system


def run(args, tmp_path):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(args)
    finally:
        os.chdir(cwd)


def test_basis_command(tmp_path, capsys):
    code = run(["basis", "--group", "z2", "--kappa", "0.5", "--degree", "6",
                "--out", "basis.json"], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "c_kappa=" in out and "gamma=" in out
    payload = json.loads((tmp_path / "basis.json").read_text())
    assert payload["degree"] == 6 and len(payload["indices"]) == 7


def test_basis_degree_zero(tmp_path):
    assert run(["basis", "--group", "z2", "--kappa", "1", "--degree", "0",
                "--out", "b0.json"], tmp_path) == 0
    payload = json.loads((tmp_path / "b0.json").read_text())
    assert payload["indices"] == [[0]]


def test_negative_kappa_rejected(tmp_path, capsys):
    code = run(["basis", "--group", "z2", "--kappa", "-1", "--degree", "4"], tmp_path)
    assert code == 2


def test_eval_heat_kernel(tmp_path):
    (tmp_path / "pts.csv").write_text("t,x0,y0\n1.0,0.0,0.0\n")
    code = run(["eval", "--group", "z2", "--kappa", "0", "--degree", "4",
                "--what", "heat-kernel", "--points", "pts.csv", "--out", "hk.csv"], tmp_path)
    assert code == 0
    rows = list(csv.reader((tmp_path / "hk.csv").read_text().splitlines()))
    assert rows[0][-2:] == ["value", "status"]
    val = float(rows[1][-2])
    assert val == pytest.approx((2 * math.pi * math.sinh(2.0)) ** -0.5, rel=1e-10)


def test_eval_dunkl_kernel_kappa0(tmp_path):
    (tmp_path / "pts.csv").write_text("0.7,0.3\n-1.0,2.0\n")
    code = run(["eval", "--group", "z2", "--kappa", "0", "--degree", "4",
                "--what", "dunkl-kernel", "--points", "pts.csv", "--out", "dk.csv"], tmp_path)
    assert code == 0
    rows = list(csv.reader((tmp_path / "dk.csv").read_text().splitlines()))[1:]
    for row in rows:
        x, y = float(row[0]), float(row[1])
        assert float(row[2]) == pytest.approx(math.exp(x * y), rel=1e-10)


def test_eval_riesz_off_z2_exits_2(tmp_path, capsys):
    """The Riesz kernel is Z2^d only; any other group stops at once, and
    writes no output file."""
    (tmp_path / "pts.csv").write_text("1,1.0,0.0,2.5,0.5\n")
    code = run(["eval", "--group", "a2", "--kappa", "1", "--degree", "4",
                "--what", "riesz-kernel", "--points", "pts.csv", "--out", "rk.csv"], tmp_path)
    assert code == 2
    assert "Z2^d" in capsys.readouterr().err
    assert not (tmp_path / "rk.csv").exists()


def test_eval_typed_error_keeps_existing_output(tmp_path):
    """A typed error during evaluation leaves an existing output file as it
    was, not a partial CSV."""
    (tmp_path / "pts.csv").write_text("1,1.0,0.0,2.5,0.5\n")
    (tmp_path / "rk.csv").write_bytes(b"old,bytes\n")
    code = run(["eval", "--group", "a2", "--kappa", "1", "--degree", "4",
                "--what", "riesz-kernel", "--points", "pts.csv", "--out", "rk.csv"], tmp_path)
    assert code == 2
    assert (tmp_path / "rk.csv").read_bytes() == b"old,bytes\n"


def test_eval_riesz_orbit_flagged_not_fatal(tmp_path):
    (tmp_path / "pts.csv").write_text("1,1.0,2.5\n1,1.0,1.0\n")
    code = run(["eval", "--group", "z2", "--kappa", "0.5", "--degree", "4",
                "--what", "riesz-kernel", "--points", "pts.csv", "--out", "rk.csv"], tmp_path)
    assert code == 0
    rows = list(csv.reader((tmp_path / "rk.csv").read_text().splitlines()))[1:]
    assert rows[0][-1] == "ok"
    assert rows[1][-1] == "orbit-too-close"


def test_eval_riesz_near_orbit_rows_ok(tmp_path):
    """Rows at orbit distance 1e-5 and 1e-4 are well past the floor, and
    the panels evaluate them."""
    (tmp_path / "pts.csv").write_text("1,0.5,0.50001\n1,2.0,2.0001\n")
    code = run(["eval", "--group", "z2", "--kappa", "1", "--degree", "4",
                "--what", "riesz-kernel", "--points", "pts.csv", "--out", "rk.csv"], tmp_path)
    assert code == 0
    rows = list(csv.reader((tmp_path / "rk.csv").read_text().splitlines()))[1:]
    assert [r[-1] for r in rows] == ["ok", "ok"]
    assert all(math.isfinite(float(r[-2])) for r in rows)


@pytest.mark.parametrize("what, bad, reason", [
    ("dunkl-kernel", "nan,0.5", "every value must be finite"),
    ("dunkl-kernel", "0.5,inf", "every value must be finite"),
    ("dunkl-kernel", "0.5,1.0,2.0", "3 columns, expected 2"),
    ("heat-kernel", "nan,0.5,0.5", "every value must be finite"),
    ("heat-kernel", "1.0,0.5,-inf", "every value must be finite"),
    ("heat-kernel", "0,0.5,0.5", "heat time t must be > 0"),
    ("riesz-kernel", "1,nan,0.5", "every value must be finite"),
    ("riesz-kernel", "1,0.5,inf", "every value must be finite"),
])
def test_eval_bad_point_row_exits_2(tmp_path, capsys, what, bad, reason):
    """A row that is not finite, has the wrong number of columns, or is a
    heat row at t <= 0 stops eval with an error that names it, after a good
    row and before any output."""
    good = {"dunkl-kernel": "0.5,1.0", "heat-kernel": "1.0,0.5,1.0",
            "riesz-kernel": "1,0.5,1.0"}[what]
    (tmp_path / "pts.csv").write_text(f"{good}\n{bad}\n")
    code = run(["eval", "--group", "z2", "--kappa", "0.5", "--degree", "2",
                "--what", what, "--points", "pts.csv", "--out", "out.csv"], tmp_path)
    err = capsys.readouterr().err
    assert code == 2
    row = [float(v) for v in bad.split(",")]
    assert err == f"error: points row {row}: {reason}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("arithmetic", ["auto", "float"])
def test_eval_c_kappa_overflow_exits_2(tmp_path, capsys, arithmetic):
    """Past kappa = 134 c_kappa of z2 is past the largest float: eval stops
    with an error, no RuntimeWarning and no output file, where it wrote
    0.0,ok rows.  Exact builds (auto at a rational kappa) stop too."""
    (tmp_path / "pts.csv").write_text("1.0,0.5,1.0\n")
    (tmp_path / "c.json").write_text(json.dumps({"arithmetic": arithmetic}))
    code = run(["eval", "--config", "c.json", "--group", "z2", "--kappa", "200", "--degree", "4",
                "--what", "heat-kernel", "--points", "pts.csv", "--out", "out.csv"], tmp_path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: c_kappa overflows a float") and "Warning" not in err
    assert not (tmp_path / "out.csv").exists()


def test_verify_subset_and_reports(tmp_path):
    code = run(["verify", "--group", "z2", "--kappa", "0.5", "--degree", "12",
                "--checks", "eigen,heat,riesz_l2", "--out", "rep"], tmp_path)
    assert code == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert {c["name"] for c in rep["checks"]} == {"eigen", "heat", "riesz_l2"}
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert (tmp_path / "rep.csv").read_text().startswith("check,constant,value")


def test_verify_empty_checks_noop(tmp_path):
    code = run(["verify", "--group", "z2", "--kappa", "0.5", "--degree", "4",
                "--checks", "", "--out", "rep"], tmp_path)
    assert code == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["checks"] == []


def test_verify_failure_exit_code(tmp_path):
    # mehler at N=12 fails its 1e-6 tolerance at r = 0.5 (truncation tail)
    code = run(["verify", "--group", "z2", "--kappa", "0.5", "--degree", "12",
                "--checks", "mehler", "--out", "rep"], tmp_path)
    assert code == 1


def test_verify_corrupted_basis_exit2(tmp_path, capsys):
    assert run(["basis", "--group", "z2", "--kappa", "0.5", "--degree", "4",
                "--out", "b.json"], tmp_path) == 0
    payload = json.loads((tmp_path / "b.json").read_text())
    payload["norms"][0] = 42.0
    (tmp_path / "b.json").write_text(json.dumps(payload))
    code = run(["verify", "--group", "z2", "--kappa", "0.5", "--degree", "4",
                "--basis-file", "b.json", "--checks", "eigen", "--out", "rep"], tmp_path)
    assert code == 2
    assert "checksum" in capsys.readouterr().err


def test_config_file_with_overrides(tmp_path):
    cfg = {
        "group": "z2",
        "kappa": 0.5,
        "degree": 8,
        "checks": ["eigen"],
        "verify": {"lp_samples": 5},
        "kernel": {"mehler_r_cap": 0.25},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = run(["verify", "--config", "cfg.json", "--out", "rep"], tmp_path)
    assert code == 0


def test_config_unknown_key_rejected(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"grup": "z2"}))
    assert run(["verify", "--config", "cfg.json", "--out", "rep"], tmp_path) == 2


@pytest.mark.parametrize("block, field", [
    ({"verify": {"mehler_tol": 1e-3}}, "VerifyConfig"),
    ({"kernel": {"quad_rel_tol": 1e-3}}, "KernelConfig"),
    ({"kernel": {"separation_floor": 1e-5}}, "KernelConfig"),
])
def test_config_cannot_set_tolerance(tmp_path, capsys, block, field):
    """Pass tolerances are fixed: a config that sets one is rejected before
    any check runs, so it cannot move a verdict."""
    (name, inner), = block.items()
    (key, _), = inner.items()
    assert key not in {f.name for f in fields(getattr(dunklriesz, field))}
    cfg = {"group": "z2", "kappa": 0.5, "degree": 12, "checks": ["mehler"], **block}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(["verify", "--config", "cfg.json", "--out", "rep"], tmp_path) == 2
    assert f"config.{name}: unexpected key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def test_config_root_system_block_catalogue(tmp_path):
    cfg = {
        "root_system": {"type": "catalogue", "name": "b2", "multiplicity": [1, 2]},
        "degree": 4,
        "checks": ["eigen"],
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(["verify", "--config", "cfg.json", "--out", "rep"], tmp_path) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["config"]["group"] == "b2"


def test_config_root_system_block_explicit(tmp_path):
    cfg = {
        "root_system": {
            "type": "explicit",
            "roots": [[1.0, 0.0], [0.0, 1.0]],
            "multiplicity": [0.5, 1.5],
        },
        "degree": 3,
        "checks": ["eigen"],
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(["verify", "--config", "cfg.json", "--out", "rep"], tmp_path) == 0


def test_basis_cache_round_trip(tmp_path):
    cfg = {"group": "z2", "kappa": 1.0, "degree": 6, "cache_dir": "cache",
           "arithmetic": "float", "checks": ["eigen"]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(["verify", "--config", "cfg.json", "--out", "r1"], tmp_path) == 0
    cached = os.listdir(tmp_path / "cache")
    assert len(cached) == 1
    # second run loads from cache (float basis) and still passes
    assert run(["verify", "--config", "cfg.json", "--out", "r2"], tmp_path) == 0


def test_reports_reproducible(tmp_path):
    args = ["verify", "--group", "z2", "--kappa", "0.5", "--degree", "8",
            "--checks", "eigen,heat,lp_empirical", "--seed", "7"]
    assert run(args + ["--out", "repA"], tmp_path) == 0
    assert run(args + ["--out", "repB"], tmp_path) == 0
    a = json.loads((tmp_path / "repA.json").read_text())
    b = json.loads((tmp_path / "repB.json").read_text())
    def strip(rep):
        for c in rep["checks"]:
            c.pop("runtime_ms")
        return rep
    assert strip(a) == strip(b)


def test_basis_float_only_group_i2_5(tmp_path, capsys):
    code = run(["basis", "--group", "i2(5)", "--kappa", "1", "--degree", "6",
                "--out", "b.json"], tmp_path)
    assert code == 0
    assert "arithmetic=float" in capsys.readouterr().out


def test_cache_hit_keeps_exact_report(tmp_path):
    """Exact builds bypass the float-only basis cache, so a second run reports
    the same exact result instead of a float basis read back from disk."""
    cfg = {"group": "a2", "kappa": 1, "degree": 6, "cache_dir": "cache",
           "checks": ["eigen", "riesz_l2"]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    reports = []
    for out in ("r1", "r2"):
        assert run(["verify", "--config", "cfg.json", "--out", out], tmp_path) == 0
        rep = json.loads((tmp_path / f"{out}.json").read_text())
        for c in rep["checks"]:
            c.pop("runtime_ms")
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1]
    assert json.loads(reports[1])["config"]["exact"] is True


def test_numerical_error_exits_2(tmp_path, capsys):
    # the default Mehler r cap of 0.5 cannot meet the 1e-6 tail at N = 8
    (tmp_path / "pts.csv").write_text("0.3,0.2,0.1,-0.4\n")
    code = run(["eval", "--group", "a2", "--kappa", "1", "--degree", "8",
                "--what", "dunkl-kernel", "--points", "pts.csv", "--out", "dk.csv"], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


DOCUMENTED_GROUPS = {
    "z2": {"group": "z2"},
    "z2^2": {"group": "z2^2"},
    "a2": {"group": "a2"},
    "b2": {"group": "b2", "kappa": [1, 2]},
    "i2(5)": {"group": "i2(5)"},
    "i2(6)": {"group": "i2(6)"},
    "explicit": {"roots": [[1.0, 0.0], [0.0, 1.0]]},
}
# no exact coordinates: i2(5) has cos(pi/5) roots, explicit roots are floats
NO_EXACT = {"i2(5)", "explicit"}


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
@pytest.mark.parametrize("name", sorted(DOCUMENTED_GROUPS))
def test_documented_group_builds_or_exits_2(tmp_path, capsys, name, arithmetic):
    cfg = {"kappa": 1, "degree": 2, "arithmetic": arithmetic, **DOCUMENTED_GROUPS[name]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = run(["basis", "--config", "cfg.json", "--out", "b.json"], tmp_path)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if arithmetic == "exact" and name in NO_EXACT:
        assert code == 2
        assert err.startswith("error: ") and "no exact coordinates" in err
    else:
        assert code == 0 and err == ""


def test_in_process_verify_leaves_no_cyclic_basis(tmp_path):
    """The basis, its root system, the algebra and the delta matrices are freed
    by reference counting when main() returns, not left to the cyclic gc."""
    gc.collect()
    gc.disable()
    try:
        assert run(["verify", "--group", "a2", "--kappa", "1", "--degree", "4",
                    "--out", "rep"], tmp_path) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not leaked & {"HermiteBasis", "RootSystem", "DunklAlgebra", "OperatorMatrix"}


@pytest.mark.parametrize("args, points", [
    (["--kappa", "abc"], "1,1.0,2.5\n"),
    ([], "1,1.0,abc\n"),                 # a cell that is not a number
    ([], "1,1.0,2.5\n2,1.0,2.5\n"),      # z2 has one axis
    ([], "0,1.0,2.5\n"),                 # j = 0 would wrap to the last axis
    ([], "1.5,1.0,2.5\n"),
])
def test_eval_malformed_input_exits_2(tmp_path, capsys, args, points):
    (tmp_path / "pts.csv").write_text(points)
    code = run(["eval", "--group", "z2", "--kappa", "0.5", "--degree", "2", *args,
                "--what", "riesz-kernel", "--points", "pts.csv", "--out", "rk.csv"], tmp_path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "rk.csv").exists()


def test_config_kernel_value_out_of_range_exits_2(tmp_path, capsys):
    cfg = {"degree": 4, "checks": ["eigen"], "kernel": {"mehler_r_cap": 2}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(["verify", "--config", "cfg.json", "--out", "rep"], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config validation failed: config.kernel.mehler_r_cap: 2 ")
    assert "Traceback" not in err
    assert not (tmp_path / "rep.json").exists()


def test_horm_separations_at_the_ends_of_their_range_run(tmp_path, capsys):
    """Separations just above the Riesz separation floor and just below half
    the Hormander radius run the check to a verdict: no traceback, a report."""
    cfg = {"degree": 4, "checks": ["hormander"],
           "verify": {"horm_separations": [1.1e-6, 5.9], "horm_mc_samples": 50}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(["verify", "--config", "cfg.json", "--out", "rep"], tmp_path) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["checks"][0]["config"]["separations"] == [1.1e-6, 5.9]


def test_config_file_must_hold_an_object(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text("[1, 2]")
    assert run(["verify", "--config", "cfg.json", "--out", "rep"], tmp_path) == 2
    assert "config validation failed" in capsys.readouterr().err


def test_integral_floats_read_as_integers(tmp_path):
    """JSON Schema counts 8.0 as an integer, and so does the program."""
    cfg = {"group": "z2", "kappa": 0.5, "degree": 4.0, "seed": 3.0, "checks": ["eigen"]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(["verify", "--config", "cfg.json", "--out", "a"], tmp_path) == 0
    cfg.update(degree=4, seed=3)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(["verify", "--config", "cfg.json", "--out", "b"], tmp_path) == 0
    a, b = (json.loads((tmp_path / f"{o}.json").read_text()) for o in "ab")
    for rep in (a, b):
        for c in rep["checks"]:
            c.pop("runtime_ms")
    assert a == b


CONFIG_TABLE = [
    {},
    {"group": "b2", "kappa": [1, 2], "degree": 6},
    {"degree": True},
    {"degree": 8.0},
    {"degree": 8.5},
    {"degree": -1},
    {"degree": "8"},
    {"seed": -3},
    {"seed": False},
    {"kappa": -0.5},
    {"kappa": []},
    {"kappa": [0.5, -1]},
    {"kappa": [0.5, True]},
    {"kappa": "0.5"},
    {"kappa": 0},
    {"grup": "z2"},
    {"kernel": {"separation_floor": 1e-5}, "verify": {"lp_samples": 5}},
    {"kernel": []},
    {"root_system": {"name": "a2"}},
    {"root_system": {"type": "catalogue", "name": "a2", "dim": 2}},
    {"root_system": {"type": "catalogue", "name": "a2", "dim": 0}},
    {"root_system": {"type": "catalogue", "colour": "red"}},
    {"root_system": {"type": "lattice"}},
    {"root_system": {"type": "explicit", "roots": [[1, 0], [0, "1"]]}},
    {"root_system": {"type": "explicit", "roots": [[1, 0]], "multiplicity": [1.5]}},
    {"roots": [[1.0, 0.0], [0.0, 1.0]], "kappa": [0.5, 1.5]},
    {"roots": [1.0, 0.0]},
    {"checks": ["eigen", "heat"]},
    {"checks": ["eigen", "hormandr"]},
    {"checks": "eigen"},
    {"checks": [3]},
    {"arithmetic": "exact"},
    {"arithmetic": "interval"},
    {"out": 3},
    {"cache_dir": None},
    {"dim": 2.0},
    # the kernel and verify blocks: types and ranges of their settable fields
    {"verify": {"lp_samples": "x"}},
    {"verify": {"horm_mc_samples": -5}},
    {"verify": {"horm_mc_samples": 1}},
    {"verify": {"horm_mc_samples": 2.0, "fit_t_points": 3}},
    {"verify": {"fit_grid_points": 0}},
    {"verify": {"decay_separations": 2.5}},
    {"verify": {"mehler_r_values": [0.1, 1.0]}},
    {"verify": {"mehler_r_values": []}},
    {"verify": {"horm_separations": [0.01, 0]}},
    {"verify": {"horm_separations": [0.005, 0.01]}},
    {"verify": {"horm_separations": [1e-9]}},
    {"verify": {"horm_separations": [50]}},
    {"verify": {"seed": True}},
    {"verify": {"seed": 5}},
    {"kernel": {"separation_floor": "a"}},
    {"kernel": {"separation_floor": -1e-6}},
    {"kernel": {"series_truncation": 0}},
    {"kernel": {"mehler_r_cap": "0.5"}},
    {"kernel": {"mehler_r_cap": 0.25, "series_truncation": 80}},
]


@pytest.mark.parametrize("user", CONFIG_TABLE, ids=lambda u: json.dumps(u, sort_keys=True))
def test_config_decisions_match_jsonschema(tmp_path, capsys, user):
    """The config checker accepts and rejects what a JSON Schema 2020-12
    validator does, and a rejected config exits 2 before writing a report."""
    jsonschema = pytest.importorskip("jsonschema")
    cfg = {**DEFAULTS, **user}
    valid = jsonschema.Draft202012Validator(CONFIG_SCHEMA).is_valid(cfg)
    if valid:
        _conform(cfg, CONFIG_SCHEMA)
        return
    with pytest.raises(ConfigError):
        _conform(cfg, CONFIG_SCHEMA)
    (tmp_path / "cfg.json").write_text(json.dumps(user))
    assert run(["verify", "--config", "cfg.json"], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config validation failed: ")
    assert os.listdir(tmp_path) == ["cfg.json"]


START_UP = """
import json, sys
COSTLY = ("scipy.integrate", "scipy.optimize", "jsonschema")
def loaded():
    return sorted(m for m in COSTLY if m in sys.modules)
import dunklriesz.cli
seen = [loaded()]
from dunklriesz.cli import main
for argv in (
    ["verify", "--group", "z2", "--kappa", "0.5", "--degree", "6",
     "--checks", "eigen,heat,kernel_decay", "--out", "rep"],
    ["basis", "--group", "a2", "--kappa", "1", "--degree", "2", "--out", "b.json"],
    ["basis", "--group", "b2", "--kappa", "0.25,0.7", "--degree", "2", "--out", "b2.json"],
    ["basis", "--config", "roots.json", "--degree", "2", "--out", "roots_basis.json"],
    ["verify", "--config", "exact_cfg.json", "--checks", "eigen,riesz_l2", "--out", "exact"],
    ["eval", "--group", "z2", "--kappa", "0.5", "--degree", "4",
     "--what", "riesz-kernel", "--points", "pts.csv", "--out", "rk.csv"],
):
    assert main(argv) == 0, argv
    seen.append(loaded())
print(json.dumps(seen))
"""


def test_start_up_imports_only_what_runs(tmp_path):
    """Importing the CLI, a Z2 verify with kernel_decay, a basis of a2, b2
    and explicit planar roots (whose c_kappa is a closed form), an exact a2
    verify and `eval --what riesz-kernel` (the Riesz panels) load none of
    scipy.integrate, scipy.optimize or jsonschema."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dunklriesz.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    (tmp_path / "roots.json").write_text(json.dumps(
        {"roots": [[1.0, 0.2], [-0.2, 1.0]], "kappa": [0.3, 1.2]}))
    (tmp_path / "exact_cfg.json").write_text(json.dumps(
        {"group": "a2", "kappa": 1, "degree": 4, "arithmetic": "exact"}))
    (tmp_path / "pts.csv").write_text("1,1.0,2.5\n")
    out = subprocess.run([sys.executable, "-c", START_UP], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert json.loads(out[-1]) == [[]] * 7
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert {c["name"]: c["status"] for c in rep["checks"]} == {
        "eigen": "pass", "heat": "pass", "kernel_decay": "pass"}
    exact = json.loads((tmp_path / "exact.json").read_text())
    assert exact["config"]["exact"] is True
    assert {c["name"]: c["status"] for c in exact["checks"]} == {"eigen": "pass", "riesz_l2": "pass"}
    c_kappa = json.loads((tmp_path / "b.json").read_text())["constants"]["c_kappa"]
    assert c_kappa == pytest.approx(_c_kappa_moments(root_system("a2", multiplicity=1)), rel=1e-9)
