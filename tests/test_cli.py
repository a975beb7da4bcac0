import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iterlearn
from iterlearn.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, load_experiment, main
from iterlearn.learner import TRACE_CSV_HEADER, read_trace_csv, run, synth_H_pseudo, trace_to_csv
from iterlearn.matanalysis import load_matrix
from iterlearn.plant import LiftedIlcSystem, save_ilc_system
from iterlearn.presets import (
    reference_system,
    write_reference_experiment,
)

from stability_oracles import load_certificate


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="ascii")


def scalar_config(tmp_path, k_val=0.5, iterations=30, uncertainty=None, seeds=(0,)):
    doc = {
        "format_version": 1,
        "plant": {"kind": "direct", "nominal": [[1.0]]},
        "target": [1.0],
        "uncertainty": uncertainty or {"kind": "zero"},
        "gains": {"K": [[k_val]]},
        "laws": ["p_type"],
        "iterations": iterations,
        "seeds": list(seeds),
    }
    path = tmp_path / "config.json"
    write_json(path, doc)
    return path


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

def test_lift_scalar(tmp_path):
    sys_file = tmp_path / "sys.json"
    save_ilc_system(sys_file, LiftedIlcSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]], horizon=2))
    out = tmp_path / "out"
    assert main(["lift", str(sys_file), "--out", str(out), "--quiet"]) == EXIT_OK
    P = load_matrix(out / "P.txt")
    assert np.array_equal(P, [[1.0, 0.0], [1.0, 1.0]])
    S = load_matrix(out / "S.txt")
    assert np.array_equal(S, [[1.0], [1.0]])


def test_lift_reference_system(tmp_path):
    sys_file = tmp_path / "sys.json"
    save_ilc_system(sys_file, reference_system())
    out = tmp_path / "out"
    assert main(["lift", str(sys_file), "--out", str(out), "--quiet"]) == EXIT_OK
    P = load_matrix(out / "P.txt")
    assert P.shape == (20, 20)
    assert P[0, 0] == pytest.approx(1.0)
    assert P[1, 0] == pytest.approx(-0.26)


def test_lift_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="ascii")
    assert main(["lift", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_lift_missing_file(tmp_path):
    assert main(["lift", str(tmp_path / "nope.json")]) == EXIT_IO


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_scalar_closed_form(tmp_path):
    config = scalar_config(tmp_path, iterations=30)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    data = read_trace_csv(out / "trace_p_type_seed0.csv")
    assert np.array_equal(data["err_inf"], 0.5 ** np.arange(30))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["format_version"] == 1
    assert summary["runs"][0]["law"] == "p_type"
    assert not summary["runs"][0]["diverged"]
    assert (out / "plot.svg").exists()


def test_simulate_single_iteration(tmp_path):
    config = scalar_config(tmp_path, iterations=1)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    lines = (out / "trace_p_type_seed0.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header plus one row


def test_simulate_reference_experiment(tmp_path):
    config = write_reference_experiment(tmp_path, seeds=[1], iterations=80)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    assert (out / "trace_eso_model_free_seed1.csv").exists()
    assert (out / "trace_p_type_seed1.csv").exists()
    assert (out / "plot.svg").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert {r["law"] for r in summary["runs"]} == {"eso_model_free", "p_type"}
    reports = {r["condition_id"]: r for r in summary["conditions"]["1"]}
    assert reports["eq17"]["rho"] == pytest.approx(0.87015621187164243, abs=1e-10)
    assert reports["eq17"]["holds"]
    assert reports["eq95"]["rho"] == pytest.approx(0.5, abs=1e-12)
    assert reports["eq102"]["holds"]


def test_simulate_reproducible_bytes(tmp_path):
    config = write_reference_experiment(tmp_path, seeds=[2], iterations=60)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    for name in ("trace_eso_model_free_seed2.csv", "trace_p_type_seed2.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_seed_and_iteration_overrides(tmp_path):
    config = scalar_config(tmp_path, iterations=50, seeds=(0,))
    out = tmp_path / "out"
    rc = main(
        [
            "simulate",
            "--config",
            str(config),
            "--out",
            str(out),
            "--seeds",
            "5,6",
            "--iterations",
            "7",
            "--quiet",
        ]
    )
    assert rc == EXIT_OK
    for seed in (5, 6):
        lines = (out / f"trace_p_type_seed{seed}.csv").read_text().strip().splitlines()
        assert len(lines) == 8


@pytest.mark.parametrize(
    "flag, value", [("--iterations", "0"), ("--iterations", "-3"), ("--seeds", "")]
)
def test_simulate_empty_overrides_are_config_errors(tmp_path, capsys, flag, value):
    # an override of 0 or "" is given, not absent: it must not fall back
    # to the config's 30 iterations or seed 0
    config = scalar_config(tmp_path, iterations=30)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(config), "--out", str(out), flag, value, "--quiet"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "check"])
@pytest.mark.parametrize(
    "path, value",
    [(("seeds",), [1, 2, 1]), (("laws",), ["p_type", "eso_model_free", "p_type"])],
    ids=["seeds", "laws"],
)
def test_duplicate_seeds_or_laws_are_config_errors(tmp_path, capsys, command, path, value):
    # a repeated seed or law would write its traces twice and list its runs
    # twice against one conditions entry
    assert_field_is_config_error(tmp_path, capsys, command, path, value)


def test_simulate_duplicate_seed_override_is_config_error(tmp_path, capsys):
    config = write_reference_experiment(tmp_path, seeds=[1], iterations=5)
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(config), "--out", str(out), "--seeds", "1,2, 1"]
    assert main(argv + ["--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--seeds" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1_0", "+2", "01", "1.0", "true", "1,2,", "-2", "3,-1"])
def test_simulate_seed_override_takes_json_integers(tmp_path, capsys, value):
    # each --seeds entry is read as the config's seeds are, a JSON integer
    # not below 0: int() would run 1_0 as seed 10 and +2 as seed 2
    config = write_reference_experiment(tmp_path, seeds=[1], iterations=5)
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(config), "--out", str(out), "--seeds", value]
    assert main(argv + ["--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--seeds" in err
    assert not out.exists()


MALFORMED_FIELDS = [
    (("seeds",), [None]),
    (("seeds",), "12"),
    (("seeds",), [1.5]),
    (("seeds",), [1, -1]),
    (("iterations",), None),
    (("iterations",), "30"),
    (("iterations",), 2.5),
    (("laws",), 5),
    (("laws",), "p_type"),
    (("gains", "K"), {"directive": "scaled_surrogate_inverse", "scale": None}),
    (("gains", "L1"), {"scaled_identity": "0.9"}),
    (("plant", "element_uncertainty"), None),
    (("surrogate", "banded", "size"), None),
    (("surrogate", "banded", "diagonals"), 1.0),
    (("uncertainty",), {"kind": "seeded_bounded", "bound": None}),
    (("uncertainty",), 5),
    (("uncertainty",), {"kind": "table", "rows": 5}),
    (("surrogate", "banded"), 5),
    (("plant", "system"), 5),
    (("structure",), 5),
    (("gains", "K"), {"file": 5}),
    (("plant", "system"), {"file": 5}),
    (("target",), {"value": 1.0}),
    (("u0",), {"value": 1.0}),
    (("uncertainty",), {"kind": "constant", "value": {"value": 1.0}}),
    (("output_dir",), 5),
]


MALFORMED_FIELD_IDS = [
    ".".join(p) + "=" + json.dumps(v, separators=(",", ":")).replace('"', "")
    for p, v in MALFORMED_FIELDS
]

# numbers that json reads (it writes NaN and Infinity for non-finite floats)
# but that are out of range for their field, and a target of the right size
# but not flat
UNUSABLE_NUMBER_FIELDS = {
    "element_uncertainty=NaN": (("plant", "element_uncertainty"), math.nan),
    "element_uncertainty=-0.3": (("plant", "element_uncertainty"), -0.3),
    "size=-1": (("surrogate", "banded", "size"), -1),
    "size=0": (("surrogate", "banded", "size"), 0),
    "uncertainty.seed=-3": (
        ("uncertainty",), {"kind": "seeded_bounded", "bound": 0.1, "seed": -3}
    ),
    "bound=NaN": (("uncertainty",), {"kind": "seeded_bounded", "bound": math.nan}),
    "bound=Infinity": (("uncertainty",), {"kind": "seeded_bounded", "bound": math.inf}),
    "scaled_identity=Infinity": (("gains", "L1"), {"scaled_identity": math.inf}),
    "target=NaN": (("target",), [math.nan] + [0.0] * 19),
    "u0=-Infinity": (("u0",), [0.0] * 19 + [-math.inf]),
    "target=nested": (("target",), [[0.0] * 10, [0.0] * 10]),
}


def assert_field_is_config_error(tmp_path, capsys, command, path, value):
    """``command`` on the reference experiment with the field at ``path`` set
    to ``value`` exits 2 with one ``error:`` line naming the field, and
    writes nothing: the whole config is checked before the output directory
    is made."""
    config = write_reference_experiment(tmp_path, seeds=[1], iterations=5)
    doc = json.loads(config.read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    write_json(config, doc)
    rc = main([command, "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path[-1] in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, value", MALFORMED_FIELDS, ids=MALFORMED_FIELD_IDS)
def test_simulate_malformed_field_is_config_error(tmp_path, capsys, path, value):
    assert_field_is_config_error(tmp_path, capsys, "simulate", path, value)


@pytest.mark.parametrize("path, value", MALFORMED_FIELDS, ids=MALFORMED_FIELD_IDS)
def test_check_malformed_field_is_config_error(tmp_path, capsys, path, value):
    # check parses what simulate parses, the seed-independent fields at load
    assert_field_is_config_error(tmp_path, capsys, "check", path, value)


@pytest.mark.parametrize("command", ["simulate", "check"])
@pytest.mark.parametrize(
    "path, value", UNUSABLE_NUMBER_FIELDS.values(), ids=UNUSABLE_NUMBER_FIELDS.keys()
)
def test_unusable_numbers_are_config_errors(tmp_path, capsys, command, path, value):
    assert_field_is_config_error(tmp_path, capsys, command, path, value)
    assert not (tmp_path / "out" / "plot.svg").exists()


def _as_strings(rows):
    return [[repr(x) for x in row] for row in rows]


_T = 20  # the reference experiment's horizon and output dimension
_EYE = np.eye(_T).tolist()
_SYSTEM = reference_system(_T)

# arrays of numbers with an entry that is not a JSON number: np.asarray(...,
# dtype=float) alone reads "0.1" as 0.1 and true as 1
NON_NUMBER_ENTRY_FIELDS = {
    "target=strings": (("target",), ["0.1"] * _T),
    "target=booleans": (("target",), [True] * _T),
    "u0=string": (("u0",), [0.0] * (_T - 1) + ["0"]),
    "L1=strings": (("gains", "L1"), _as_strings(_EYE)),
    "phi1=booleans": (
        ("structure",),
        {"phi1": [[i == j for j in range(_T)] for i in range(_T)], "phi2": _EYE},
    ),
    "value=strings": (("uncertainty",), {"kind": "constant", "value": ["0.1"] * _T}),
    "slope=null": (("uncertainty",), {"kind": "ramp", "slope": [None] * _T}),
    "rows=booleans": (("uncertainty",), {"kind": "table", "rows": [[False] * _T]}),
    "system.A=strings": (
        ("plant", "system"),
        {
            "A": _as_strings(_SYSTEM.A.tolist()),
            "B": _SYSTEM.B.tolist(),
            "C": _SYSTEM.C.tolist(),
            "horizon": _T,
        },
    ),
}


@pytest.mark.parametrize("command", ["simulate", "check"])
@pytest.mark.parametrize(
    "path, value", NON_NUMBER_ENTRY_FIELDS.values(), ids=NON_NUMBER_ENTRY_FIELDS.keys()
)
def test_array_entries_that_are_not_numbers_are_config_errors(
    tmp_path, capsys, command, path, value
):
    assert_field_is_config_error(tmp_path, capsys, command, path, value)
    assert not (tmp_path / "out" / "plot.svg").exists()


@pytest.mark.parametrize("command", ["simulate", "check"])
@pytest.mark.parametrize(
    "name, value",
    [("L1", _as_strings(_EYE)), ("K", [["a"]]), ("Hbar", {"file": "missing.txt"})],
    ids=["L1=strings", "K=string", "Hbar=missing-file"],
)
def test_invalid_gain_leaves_no_output_directory(tmp_path, capsys, command, name, value):
    # the gains are parsed and every seed's gain set built at load, before
    # the output directory is made
    config = write_reference_experiment(tmp_path, seeds=[1, 2], iterations=5)
    doc = json.loads(config.read_text())
    doc["gains"][name] = value
    write_json(config, doc)
    out = tmp_path / "out"
    rc = main([command, "--config", str(config), "--out", str(out), "--quiet"])
    assert rc in (EXIT_CONFIG, EXIT_IO)
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_lift_rejects_system_entries_that_are_not_numbers(tmp_path, capsys):
    sys_file = tmp_path / "sys.json"
    doc = {"format_version": 1, "A": [[1.0]], "B": [["1"]], "C": [[1.0]], "horizon": 2}
    write_json(sys_file, doc)
    rc = main(["lift", str(sys_file), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == 'error: B entries must be numbers, got "1"\n'


@pytest.mark.parametrize("path", [("gains", "K"), ("plant", "system")])
def test_check_file_reference_of_wrong_type_is_config_error(tmp_path, capsys, path):
    config = write_reference_experiment(tmp_path, seeds=[1], iterations=5)
    doc = json.loads(config.read_text())
    doc[path[0]][path[1]] = {"file": 5}
    write_json(config, doc)
    rc = main(["check", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {'.'.join(path)}.file must be a string, got 5\n"


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_output_dir_of_wrong_type_is_config_error(tmp_path, capsys, monkeypatch, command):
    # without --out, the config's output_dir names the output directory
    config = write_reference_experiment(tmp_path, seeds=[1], iterations=5)
    doc = json.loads(config.read_text())
    doc["output_dir"] = 5
    write_json(config, doc)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", str(config), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: output_dir must be a string, got 5\n"


def test_simulate_loads_no_scipy(tmp_path):
    # the library runs on numpy alone; scipy is only the tests' oracle
    config = write_reference_experiment(tmp_path, seeds=[1], iterations=5)
    src = str(Path(iterlearn.__file__).parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import iterlearn.cli\n"
        f"rc = iterlearn.cli.main(['simulate', '--config', {str(config)!r}, '--out', "
        f"{str(tmp_path / 'out')!r}, '--quiet'])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout == "0 []\n"


def test_check_with_a_structure_loads_no_scipy(tmp_path):
    # the certificate search and its file need no scipy either
    config = write_reference_experiment(tmp_path, seeds=[1], iterations=5)
    doc = json.loads(config.read_text())
    doc["structure"] = {"phi1": (0.05 * np.eye(_T)).tolist(), "phi2": _EYE}
    write_json(config, doc)
    src = str(Path(iterlearn.__file__).parents[1])
    out = tmp_path / "out"
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import iterlearn.cli\n"
        f"rc = iterlearn.cli.main(['check', '--config', {str(config)!r}, '--out', "
        f"{str(out)!r}, '--quiet'])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout == "0 []\n"
    assert json.loads((out / "report.json").read_text())["lmi"]["found"] is True
    assert load_certificate(out / "certificate.json").tau > 0


def overflow_config(tmp_path):
    """A direct plant [[10.0]] with a gain of 1e308: I - P K overflows."""
    doc = {
        "format_version": 1,
        "plant": {"kind": "direct", "nominal": [[10.0]]},
        "target": [1.0],
        "gains": {
            "K": [[1e308]],
            "H": {"directive": "pseudo_inverse_H"},
            "L1": {"scaled_identity": 0.9},
            "L2": {"scaled_identity": 0.1},
        },
        "structure": {"phi1": [[0.1]], "phi2": [[1.0]]},
        "laws": ["p_type", "eso_mixed"],
        "iterations": 5,
    }
    path = tmp_path / "overflow.json"
    write_json(path, doc)
    return path


def test_a_loop_that_overflows_is_a_verdict(tmp_path, capsys):
    # not a config error: simulate reports the divergence (every run
    # diverged, exit 3) with summary.json, check reports the verdict
    config = overflow_config(tmp_path)
    sim, chk = tmp_path / "sim", tmp_path / "chk"
    assert main(["simulate", "--config", str(config), "--out", str(sim), "--quiet"]) == EXIT_DIVERGED
    assert main(["check", "--config", str(config), "--out", str(chk), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    # an infinite radius and margin are written as null, in strict JSON
    summary = strict_json(sim / "summary.json")
    report = strict_json(chk / "report.json")
    assert all(run["diverged"] for run in summary["runs"])
    assert summary["conditions"] == report["conditions"]
    reports = {r["condition_id"]: r for r in report["conditions"]["0"]}
    for cid in ("eq04", "eq41", "eq48"):
        assert reports[cid]["method"] == "non_finite"
        assert reports[cid]["rho"] is None and reports[cid]["holds"] is False
        assert reports[cid]["margin"] is None
    assert reports["eq17"]["method"] == "dense" and reports["eq17"]["holds"]  # no gain K in it
    assert report["lmi"] == {"id": "eq44", "found": False}


def strict_json(path):
    """The JSON document at ``path``, refusing ``NaN`` and ``Infinity``,
    which RFC 8259 has no literal for."""

    def refuse(token):
        raise ValueError(f"{path.name} holds {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize(
    "u0, K, drawn", [(None, 1e9, True), ([1e10], 0.5, False)], ids=["gain", "initial_input"]
)
def test_a_run_whose_error_overflows_is_divergence(tmp_path, capsys, u0, K, drawn):
    # the error of a direct plant [[1e300]] overflows at the second row, or
    # already at the first: each run is drawn up to its last finite error,
    # and a run with none is left out, so with no curve there is no plot,
    # not even the one an earlier run left in the directory
    doc = {
        "format_version": 1,
        "plant": {"kind": "direct", "nominal": [[1e300]]},
        "target": [1.0],
        "gains": {"K": [[K]]},
        "laws": ["p_type"],
        "iterations": 5,
    }
    if u0 is not None:
        doc["u0"] = u0
    config = tmp_path / "config.json"
    write_json(config, doc)
    out = tmp_path / "out"
    out.mkdir()
    (out / "plot.svg").write_text("a plot of an earlier run")
    assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_DIVERGED
    assert capsys.readouterr().err == ""
    (run,) = strict_json(out / "summary.json")["runs"]
    trace = read_trace_csv(out / run["trace_file"])
    assert run["diverged"] and not np.isfinite(trace["err_inf"][-1])
    if drawn:
        assert run["sup_err"] is None and run["final_tail_err"] is None
        assert trace["err_inf"][0] == 1.0
        # one curve of the one finite error
        assert (out / "plot.svg").read_text().count("<polyline") == 1
    else:
        assert len(trace["err_inf"]) == 1
        assert not (out / "plot.svg").exists()


def test_a_value_error_after_load_keeps_its_traceback(tmp_path, monkeypatch):
    # only a ConfigError is a config error (exit 2): a ValueError raised
    # after the config is loaded is a fault of the program, and propagates
    config = scalar_config(tmp_path)

    def broken(*args, **kwargs):
        raise ValueError("broken condition")

    monkeypatch.setattr(iterlearn.stability, "condition_reports", broken)
    for command in ("simulate", "check"):
        with pytest.raises(ValueError, match="broken condition"):
            main([command, "--config", str(config), "--out", str(tmp_path / command), "--quiet"])


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_a_rank_deficient_pseudo_inverse_plant_is_a_config_error(tmp_path, capsys, command):
    doc = {
        "format_version": 1,
        "plant": {"kind": "direct", "nominal": [[1.0, 2.0], [2.0, 4.0]]},
        "target": [1.0, 1.0],
        "gains": {"K": [[0.1, 0.0], [0.0, 0.1]], "H": {"directive": "pseudo_inverse_H"}},
        "laws": ["p_type"],
        "iterations": 5,
    }
    config = tmp_path / "config.json"
    write_json(config, doc)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    err = "error: P must have full row rank for the pseudo-inverse gain\n"
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_ilc_lift_rejects_initial_state_policy(tmp_path, capsys, command):
    # the lifted runs have no S x0_k term, so a policy would be ignored
    config = write_reference_experiment(tmp_path, seeds=[1], iterations=5)
    system_file = tmp_path / "reference_system.json"
    doc = json.loads(system_file.read_text())
    doc["x0_policy"] = {"kind": "seeded_bounded", "bound": 5, "seed": 3}
    write_json(system_file, doc)
    rc = main([command, "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "x0_policy" in err and "'uncertainty'" in err
    assert not (tmp_path / "out").exists()


# (id, key, value): the reference system file with `key` set to `value`; key
# None makes the file a JSON array
ILC_SYSTEM_FILE_FAULTS = [
    ("x0_policy=5", "x0_policy", 5),
    ("x0_policy=fixed", "x0_policy", {"kind": "fixed", "value": [1.0, 0.0, 0.0]}),
    ("x0_policy=seeded_bounded", "x0_policy", {"kind": "seeded_bounded", "bound": 5, "seed": 3}),
    ("horizon=19.5", "horizon", 19.5),
    ("horizon=string", "horizon", "20"),
    ("horizon=true", "horizon", True),
    ("A=object", "A", {"rows": 3}),
    ("array", None, None),
    ("uncertainty", "uncertainty", {"kind": "constant", "value": [0.5] * 20}),
]


@pytest.mark.parametrize(
    "key, value", [f[1:] for f in ILC_SYSTEM_FILE_FAULTS], ids=[f[0] for f in ILC_SYSTEM_FILE_FAULTS]
)
@pytest.mark.parametrize("command", ["simulate", "check", "lift"])
def test_malformed_ilc_system_file_is_config_error(tmp_path, capsys, command, key, value):
    config = write_reference_experiment(tmp_path, seeds=[1], iterations=5)
    system_file = tmp_path / "reference_system.json"
    doc = json.loads(system_file.read_text())
    if key is None:
        doc = [doc]
    else:
        doc[key] = value
    write_json(system_file, doc)
    out = tmp_path / "out"
    if command == "lift":
        argv = ["lift", str(system_file)]
    else:
        argv = [command, "--config", str(config)]
    rc = main(argv + ["--out", str(out), "--quiet"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if key is None:
        assert "must be a JSON object" in err
    else:
        assert key in err
    if key in ("x0_policy", "uncertainty"):
        assert "experiment's 'uncertainty'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_a_negative_seed_of_a_direct_plant_is_a_config_error(tmp_path, capsys, command):
    # the seed reaches only the uncertainty of a direct plant, when its runs
    # are stepped; it is still rejected at load
    uncertainty = {"kind": "seeded_bounded", "bound": 0.1, "seed": None}
    config = scalar_config(tmp_path, uncertainty=uncertainty, seeds=(-1,))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: seeds entry must be nonnegative, got -1\n"
    assert not out.exists()


def test_simulate_all_diverged_exit_code(tmp_path):
    config = scalar_config(tmp_path, k_val=3.0, iterations=400)
    out = tmp_path / "out"
    assert (
        main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
        == EXIT_DIVERGED
    )
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"][0]["diverged"] is True


def test_simulate_invalid_config(tmp_path):
    bad = tmp_path / "c.json"
    write_json(bad, {"format_version": 1, "laws": [], "iterations": 5})
    assert main(["simulate", "--config", str(bad), "--quiet"]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_an_integer_json_cannot_read_is_a_config_error(tmp_path, capsys, command):
    # json.load raises a ValueError that is not a JSONDecodeError for an
    # integer of more than 4300 digits
    config = scalar_config(tmp_path)
    text = config.read_text().replace('"iterations": 30', '"iterations": ' + "9" * 5000)
    config.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON in ") and err.count("\n") == 1
    assert not out.exists()


def test_simulate_missing_config_is_io_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == EXIT_IO


def test_simulate_unresolvable_directive(tmp_path):
    doc = {
        "format_version": 1,
        "plant": {"kind": "direct", "nominal": [[1.0]]},
        "target": [1.0],
        "uncertainty": {"kind": "zero"},
        "gains": {"K": {"directive": "scaled_surrogate_inverse"}},  # no surrogate
        "laws": ["p_type"],
        "iterations": 5,
        "seeds": [0],
    }
    path = tmp_path / "c.json"
    write_json(path, doc)
    assert main(["simulate", "--config", str(path), "--quiet"]) == EXIT_CONFIG


def test_gains_that_do_not_read_the_plant_are_built_once(tmp_path):
    config = write_reference_experiment(tmp_path, seeds=[1, 2], iterations=5)
    exp = load_experiment(config)
    a, b = exp.configs["eso_model_free"]  # seeds 1 and 2
    assert a.plant is not b.plant
    assert a.law is b.law
    for name in ("K", "Hbar", "observer"):
        assert getattr(a.gains, name) is getattr(b.gains, name)
    # the pseudo-inverse gain reads each seed's plant
    doc = json.loads(config.read_text())
    doc["gains"] = {"K": doc["gains"]["K"], "H": {"directive": "pseudo_inverse_H"}}
    doc["laws"] = ["p_type"]  # the one law these gains serve; every run is built at load
    write_json(config, doc)
    exp = load_experiment(config)
    a, b = exp.seed_gains[1], exp.seed_gains[2]
    assert a.K is b.K
    for seed, gains in ((1, a), (2, b)):
        P = exp.plants[seed].full()
        assert np.array_equal(gains.H, synth_H_pseudo(P))
    assert not np.array_equal(a.H, b.H)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_matches_simulate_conditions(tmp_path):
    config = write_reference_experiment(tmp_path, seeds=[1, 2], iterations=40)
    sim_out = tmp_path / "sim"
    chk_out = tmp_path / "chk"
    assert main(["simulate", "--config", str(config), "--out", str(sim_out), "--quiet"]) == EXIT_OK
    assert main(["check", "--config", str(config), "--out", str(chk_out), "--quiet"]) == EXIT_OK
    summary = json.loads((sim_out / "summary.json").read_text())
    report = json.loads((chk_out / "report.json").read_text())
    assert summary["conditions"] == report["conditions"]


def test_check_with_structure_emits_certificate(tmp_path):
    doc = {
        "format_version": 1,
        "plant": {"kind": "direct", "nominal": [[1.0]]},
        "target": [1.0],
        "uncertainty": {"kind": "zero"},
        "gains": {
            "K": [[0.5]],
            "H": {"directive": "pseudo_inverse_H"},
            "L1": {"scaled_identity": 0.9},
            "L2": {"scaled_identity": 0.1},
        },
        "structure": {"phi1": [[0.1]], "phi2": [[1.0]]},
        "laws": ["eso_mixed"],
        "iterations": 5,
        "seeds": [0],
    }
    config = tmp_path / "c.json"
    write_json(config, doc)
    out = tmp_path / "out"
    assert main(["check", "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["lmi"]["id"] == "eq44"
    assert report["lmi"]["found"] is True
    cert = load_certificate(out / report["lmi"]["certificate_file"])
    assert cert.tau > 0
    reports = {r["condition_id"]: r for r in report["conditions"]["0"]}
    assert {"eq04", "eq17", "eq41", "eq48"} <= set(reports)
    assert reports["eq04"]["holds"] and reports["eq04"]["rho"] == pytest.approx(0.5)


def small_config(tmp_path, gains, laws, surrogate=None, nominal=True, structure=True):
    # a 2 x 2 direct plant; without a nominal map, its model error is the whole map
    P = [[1.0, 0.0], [0.3, 0.8]]
    doc = {
        "format_version": 1,
        "plant": {"kind": "direct", "nominal": P, "delta": [[0.02, 0.0], [0.0, -0.01]]},
        "target": [1.0, -0.5],
        "gains": gains,
        "laws": laws,
        "iterations": 5,
        "seeds": [0],
    }
    if not nominal:
        doc["plant"] = {"kind": "direct", "nominal": [[0.0, 0.0], [0.0, 0.0]], "delta": P}
    if surrogate is not None:
        doc["surrogate"] = surrogate
    if structure:
        doc["structure"] = {"phi1": [[0.05, 0.0], [0.0, 0.05]], "phi2": [[1.0, 0.0], [0.0, 1.0]]}
    path = tmp_path / "c.json"
    write_json(path, doc)
    return path


K2 = [[0.5, 0.0], [0.0, 0.5]]
OBSERVER = {"L1": {"scaled_identity": 0.9}, "L2": {"scaled_identity": 0.1}}
HBAR2 = [[2.0, 0.0], [1.0, 2.0]]
H2 = (np.array(K2) @ np.array(HBAR2)).tolist()  # H = K Hbar, exactly

# configs that simulate rejects, and the one error line each prints
REJECTED = {
    "model_free_without_surrogate": (
        {"K": K2, "Hbar": HBAR2, **OBSERVER}, ["eso_model_free"],
        "eso_model_free requires a surrogate map",
    ),
    "mixed_without_H": (
        {"K": K2, **OBSERVER}, ["p_type", "eso_mixed"],
        "eso_mixed requires the compensation gain H",
    ),
    "K_of_the_wrong_shape": ({"K": np.eye(3).tolist()}, ["p_type"], "K must be 2x2 for this plant"),
    "observer_of_the_wrong_size": (
        {"K": K2, "L1": [[0.9]], "L2": [[0.1]]}, ["p_type"],
        "observer gains must be 2x2, the error dimension of K",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_check_rejects_what_simulate_rejects(tmp_path, capsys, case):
    gains, laws, message = REJECTED[case]
    config = small_config(tmp_path, gains, laws)
    errors = []
    for command in ("simulate", "check"):
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        errors.append(captured.err)
    assert errors[0] == errors[1] == f"error: {message}\n"


MISFIT_STRUCTURE = "structure.phi1 must have 2 rows and structure.phi2 2 columns for this plant"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("structure", {"phi1": [[0.05]], "phi2": K2}, MISFIT_STRUCTURE),
        ("structure", {"phi1": K2, "phi2": [[1.0, 0.0, 0.0]]}, MISFIT_STRUCTURE),
        (
            "surrogate", [[1.0, 0.0, 0.0], [0.2, 0.9, 0.0]],
            "surrogate must be 2x2 for this plant, got shape (2, 3)",
        ),
    ],
    ids=["phi1_rows", "phi2_columns", "surrogate"],
)
@pytest.mark.parametrize("command", ["simulate", "check"])
def test_a_structure_or_surrogate_that_misfits_the_plant_is_a_config_error(
    tmp_path, capsys, command, field, value, message
):
    # checked at load: the certificate search, and the condition eq95
    # around the surrogate (with no eso_model_free law to check it), would
    # only meet the shapes after the output directory is made
    config = small_config(tmp_path, {"K": K2, "H": H2, **OBSERVER}, ["p_type"])
    doc = json.loads(config.read_text())
    doc[field] = value
    write_json(config, doc)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def hand_rule_condition_ids(observer, H, Hbar, surrogate, nominal):
    """The hand list the catalog's selection replaced."""
    ids = ["eq04"]
    if nominal:
        ids.append("eq48")
    if observer:
        ids.append("eq17")
        if H:
            ids.append("eq41")
        if Hbar:
            ids.append("eq62")
    if surrogate:
        ids.append("eq95")
        if Hbar and observer:
            ids.append("eq102")
    return ids


def hand_rule_inequality(H, Hbar, surrogate):
    """The hand branch of check that the catalog's selection replaced."""
    if surrogate and Hbar:
        return "eq101"
    if Hbar:
        return "eq65"
    if H:
        return "eq44"
    return None


@pytest.mark.parametrize("observer", [False, True])
def test_catalog_selects_the_hand_rules_conditions_and_inequality(tmp_path, observer):
    import itertools

    for H, Hbar, surrogate, nominal in itertools.product([False, True], repeat=4):
        gains = {"K": K2, **(OBSERVER if observer else {})}
        if H:
            gains["H"] = H2
        if Hbar:
            gains["Hbar"] = HBAR2
        row = tmp_path / f"{int(H)}{int(Hbar)}{int(surrogate)}{int(nominal)}"
        row.mkdir()
        config = small_config(
            row, gains, ["p_type"], surrogate=[[1.0, 0.0], [0.2, 0.9]] if surrogate else None,
            nominal=nominal,
        )
        assert main(["check", "--config", str(config), "--out", str(row), "--quiet"]) == EXIT_OK
        report = json.loads((row / "report.json").read_text())
        ids = [r["condition_id"] for r in report["conditions"]["0"]]
        assert ids == hand_rule_condition_ids(observer, H, Hbar, surrogate, nominal), row.name
        # the hand branch sent a design without an observer to a search that
        # failed on it; no condition of such a design is reported
        expected = hand_rule_inequality(H, Hbar, surrogate) if observer else None
        assert report["lmi"]["id"] == expected, row.name


def test_structure_without_observer_reports_no_inequality(tmp_path):
    config = small_config(tmp_path, {"K": K2, "H": H2}, ["p_type"])
    out = tmp_path / "out"
    assert main(["check", "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["lmi"] == {"id": None, "found": False}
    assert [r["condition_id"] for r in report["conditions"]["0"]] == ["eq04", "eq48"]
    assert not (out / "certificate.json").exists()


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def test_plot_overlays_traces(tmp_path):
    config = write_reference_experiment(tmp_path, seeds=[1], iterations=40)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    svg = tmp_path / "overlay.svg"
    rc = main(
        [
            "plot",
            str(out / "trace_eso_model_free_seed1.csv"),
            str(out / "trace_p_type_seed1.csv"),
            "--out",
            str(svg),
            "--quiet",
        ]
    )
    assert rc == EXIT_OK
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "trace_eso_model_free_seed1" in text


def test_plot_single_trace(tmp_path):
    config = scalar_config(tmp_path, iterations=20)
    out = tmp_path / "out"
    main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
    svg = tmp_path / "one.svg"
    assert main(["plot", str(out / "trace_p_type_seed0.csv"), "--out", str(svg), "--quiet"]) == EXIT_OK
    assert svg.read_text().count("<polyline") == 1


def test_plot_labels_with_markup_or_non_ascii_names(tmp_path):
    import xml.etree.ElementTree as ET

    config = scalar_config(tmp_path, iterations=20)
    out = tmp_path / "out"
    main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
    trace = (out / "trace_p_type_seed0.csv").read_bytes()
    paths = [tmp_path / "a&b<c.csv", tmp_path / "caf\u00e9.csv"]
    for path in paths:
        path.write_bytes(trace)
    svg = tmp_path / "labels.svg"
    assert main(["plot", *map(str, paths), "--out", str(svg), "--quiet"]) == EXIT_OK
    assert svg.read_bytes().isascii()
    texts = [el.text for el in ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b<c" in texts and "caf\u00e9" in texts
    # one label alone, each in a document of its own
    for path in paths:
        assert main(["plot", str(path), "--out", str(svg), "--quiet"]) == EXIT_OK
        texts = [el.text for el in ET.parse(svg).getroot().iter()]
        assert path.stem in texts


def test_plot_rejects_header_mismatch(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n0,1\n", encoding="ascii")
    assert main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == EXIT_CONFIG


def test_plot_rejects_empty_csv(tmp_path):
    bad = tmp_path / "empty.csv"
    bad.write_text("", encoding="ascii")
    assert main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "rows, bad",
    [
        (["0,1,1,1,1,nan,0", "1,inf,1,1,1,nan,1"], "infinite"),
        (["0,nan,1,1,1,nan,0", "1,nan,1,1,1,nan,1"], "no finite"),
    ],
)
def test_plot_names_a_curve_it_cannot_draw(tmp_path, capsys, rows, bad):
    # neither curve gives the log axis a range: one error a line naming it
    trace = tmp_path / "blown.csv"
    trace.write_text("\n".join([TRACE_CSV_HEADER, *rows]) + "\n", encoding="ascii")
    out = tmp_path / "x.svg"
    assert main(["plot", str(trace), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: curve 'blown' has an ") and bad in err
    assert err.count("\n") == 1 and not out.exists()


# ---------------------------------------------------------------------------
# misc interfaces
# ---------------------------------------------------------------------------

def test_simulate_seed_alone_or_batched_same_bytes(tmp_path):
    # the runs of one law are stepped together; a seed's trace must not
    # depend on which other seeds share its batch
    config = write_reference_experiment(tmp_path, seeds=[1, 2], iterations=30)
    both, alone = tmp_path / "both", tmp_path / "alone"
    assert main(["simulate", "--config", str(config), "--out", str(both), "--quiet"]) == EXIT_OK
    assert len(list(both.glob("trace_*.csv"))) == 4
    argv = ["simulate", "--config", str(config), "--out", str(alone), "--seeds", "2", "--quiet"]
    assert main(argv) == EXIT_OK
    assert len(list(alone.glob("trace_*.csv"))) == 2
    for name in ("trace_eso_model_free_seed2.csv", "trace_p_type_seed2.csv"):
        assert (both / name).read_bytes() == (alone / name).read_bytes()


def test_simulate_writes_the_traces_of_recorded_runs(tmp_path):
    # simulate keeps no states; each CSV must be that of the run recorded
    # alone, diverged runs included (seeds 0 and 21 diverge at T = 100)
    config = write_reference_experiment(tmp_path, seeds=[0, 1, 21], iterations=70, horizon=100)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    exp = load_experiment(config)
    diverged = 0
    for law in exp.laws:
        for seed, run_config in zip(exp.seeds, exp.configs[law]):
            trace = run(run_config)
            diverged += trace.diverged
            text = (out / f"trace_{law}_seed{seed}.csv").read_text(encoding="ascii")
            assert text == trace_to_csv(trace)
    assert diverged == 4


def test_simulate_lifts_each_seed_once(tmp_path, monkeypatch):
    from iterlearn import plant

    calls = []
    real_lift = plant.lift_ilc
    monkeypatch.setattr(plant, "lift_ilc", lambda sys: calls.append(sys) or real_lift(sys))
    config = write_reference_experiment(tmp_path, seeds=[1, 2, 3], iterations=10)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s"), "--quiet"]) == 0
    assert len(calls) == 3
    calls.clear()
    doc = json.loads(config.read_text())
    doc["structure"] = {"phi1": (0.05 * np.eye(20)).tolist(), "phi2": np.eye(20).tolist()}
    write_json(config, doc)
    assert main(["check", "--config", str(config), "--out", str(tmp_path / "c"), "--quiet"]) == 0
    assert len(calls) == 3
    calls.clear()
    doc["plant"]["role"] = "uncertain_nominal"  # one more lift: the nominal system
    write_json(config, doc)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "n"), "--quiet"]) == 0
    assert len(calls) == 4


@pytest.mark.parametrize(
    ("phi1", "phi2"), [(1e200, 1.0), (1e308, 1.0), (0.05, 1e306)], ids=["1e200", "1e308", "phi2"]
)
def test_check_rejects_an_overflowing_structure_without_warnings(tmp_path, capsys, phi1, phi2):
    # the Schur term, the screen or the full test's tolerance overflows;
    # the search rejects those candidates by their infinities, not by what
    # LAPACK makes of them, and warns nowhere
    config = write_reference_experiment(tmp_path, seeds=[1], iterations=5)
    doc = json.loads(config.read_text())
    doc["structure"] = {
        "phi1": np.full((20, 20), phi1).tolist(),
        "phi2": (phi2 * np.eye(20)).tolist(),
    }
    write_json(config, doc)
    assert main(["check", "--config", str(config), "--out", str(tmp_path / "c"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert report["lmi"] == {"id": "eq101", "found": False}


def _pseudo_inverse_H(doc):
    # H = K Hbar would not hold with a per-seed H, so Hbar goes
    del doc["gains"]["Hbar"]
    doc["gains"]["H"] = {"directive": "pseudo_inverse_H"}
    doc["laws"] = ["eso_mixed"]


def test_pseudo_inverse_H_is_built_once_per_seed(tmp_path, monkeypatch):
    from iterlearn import learner

    seeds = list(range(1, 9))
    config = write_reference_experiment(tmp_path, seeds=seeds, iterations=5)
    doc = json.loads(config.read_text())
    _pseudo_inverse_H(doc)
    doc["laws"] = ["eso_mixed", "p_type"]
    doc["structure"] = {"phi1": (0.05 * np.eye(20)).tolist(), "phi2": np.eye(20).tolist()}
    write_json(config, doc)
    calls = []

    def counted(P):
        calls.append(P)
        return synth_H_pseudo(P)

    synth_H_pseudo = learner.synth_H_pseudo
    monkeypatch.setattr(learner, "synth_H_pseudo", counted)
    # simulate: 2 laws and the condition reports of 8 seeds; check: the
    # laws' configs, the reports and the certificate search
    for command in ("simulate", "check"):
        calls.clear()
        assert main([command, "--config", str(config), "--out", str(tmp_path / command),
                     "--quiet"]) == EXIT_OK
        assert len(calls) == len(seeds)


def test_every_lift_and_pseudo_inverse_happens_at_load(tmp_path, monkeypatch):
    # the experiment is built whole by load_experiment: each seed's plant,
    # gain set and runs; the commands only read them
    from collections import Counter

    from iterlearn import cli, learner, plant

    seeds = [1, 2, 3]
    config = write_reference_experiment(tmp_path, seeds=seeds, iterations=5)
    doc = json.loads(config.read_text())
    _pseudo_inverse_H(doc)
    doc["plant"]["role"] = "uncertain_nominal"  # one more lift: the nominal system
    doc["structure"] = {"phi1": (0.05 * np.eye(20)).tolist(), "phi2": np.eye(20).tolist()}
    write_json(config, doc)

    calls, at_load = Counter(), []
    for module, name in ((plant, "lift_ilc"), (learner, "synth_H_pseudo")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a)
        )
    real_load = cli.load_experiment

    def load(*args):
        exp = real_load(*args)
        assert list(exp.plants) == list(exp.seed_gains) == exp.seeds == seeds
        for law in exp.laws:
            assert [c.seed for c in exp.configs[law]] == seeds
        at_load.append(Counter(calls))
        return exp

    monkeypatch.setattr(cli, "load_experiment", load)
    for command in ("simulate", "check"):
        calls.clear()
        at_load.clear()
        assert main([command, "--config", str(config), "--out", str(tmp_path / command),
                     "--quiet"]) == EXIT_OK
        assert calls == {"lift_ilc": len(seeds) + 1, "synth_H_pseudo": len(seeds)}
        assert at_load == [calls]


def test_pseudo_inverse_H_keeps_the_eq41_loop_block_triangular(tmp_path):
    # H is lower triangular like each lifted plant, so eq41 couples time
    # steps only forward and its radius is read step by step; every step of
    # a reference draw is the same at any horizon.  Through the normal
    # equations, draws 0 and 21 at T = 100 read 1.096 and 1.118 (violated)
    # from a dense solve.
    radii = {}
    for horizon in (20, 100):
        config = write_reference_experiment(
            tmp_path / str(horizon), seeds=[0, 21], iterations=5, horizon=horizon
        )
        doc = json.loads(config.read_text())
        _pseudo_inverse_H(doc)
        write_json(config, doc)
        for seed, reports in load_experiment(config).condition_map().items():
            eq41 = next(r for r in reports if r["condition_id"] == "eq41")
            assert eq41["method"] == "block_triangular" and eq41["holds"]
            radii[horizon, seed] = eq41["rho"]
    for seed in ("0", "21"):
        assert radii[100, seed] == pytest.approx(radii[20, seed], rel=1e-12)
        assert radii[100, seed] < 0.9


def _hbar_from_nominal(doc):
    doc["plant"]["role"] = "uncertain_nominal"
    doc["gains"]["Hbar"] = {"directive": "hbar_from_nominal"}


def _uncertain_nominal(doc):
    doc["plant"]["role"] = "uncertain_nominal"


def _direct_plant(doc):
    from iterlearn.plant import lift_ilc

    nominal, _, _ = lift_ilc(reference_system(20))
    delta = 0.01 * np.random.default_rng(0).standard_normal(nominal.shape)
    doc["plant"] = {"kind": "direct", "nominal": nominal.tolist(), "delta": delta.tolist()}


# each variant of the reference experiment, and whether a gain reads the
# seed's plant (hbar_from_nominal reads only the one nominal map)
CONDITION_VARIANTS = {
    "reference": (lambda doc: None, False),
    "pseudo_inverse_H": (_pseudo_inverse_H, True),
    "hbar_from_nominal": (_hbar_from_nominal, False),
    "uncertain_nominal": (_uncertain_nominal, False),
    "direct_plant": (_direct_plant, False),
}


@pytest.mark.parametrize("variant", sorted(CONDITION_VARIANTS))
def test_condition_reports_reuse_the_seed_independent_work(tmp_path, monkeypatch, variant):
    from collections import Counter

    from iterlearn import stability

    edit, gains_read_plant = CONDITION_VARIANTS[variant]
    seeds = [1, 2, 3]
    config = write_reference_experiment(tmp_path, seeds=seeds, iterations=5)
    doc = json.loads(config.read_text())
    edit(doc)
    write_json(config, doc)

    def counted(real, counter, at):
        def call(*args):
            counter[args[at]] += 1
            return real(*args)

        return call

    exp, forms, radii = load_experiment(config), Counter(), Counter()
    monkeypatch.setattr(stability, "_robust_form", counted(stability._robust_form, forms, 3))
    monkeypatch.setattr(stability, "_report", counted(stability._report, radii, 0))
    conditions = exp.condition_map()
    monkeypatch.undo()

    # one form per condition per gain set; a radius no model error enters,
    # once per gain set; every other radius, once per seed
    ids = [r["condition_id"] for r in conditions["1"]]
    assert {"eq17", "eq95"} <= set(ids)
    per_set = len(seeds) if gains_read_plant else 1
    assert forms == {cid: per_set for cid in ids}
    error_free = {"eq17", "eq48", "eq95"}
    assert radii == {cid: per_set if cid in error_free else len(seeds) for cid in ids}
    # each seed's reports are those of a fresh experiment's check_condition
    for seed in seeds:
        fresh = load_experiment(config)
        a_plant, gains = fresh.plants[seed], fresh.seed_gains[seed]
        expected = [
            stability.check_condition(cid, a_plant, gains, fresh.surrogate).to_dict()
            for cid in ids
        ]
        assert conditions[str(seed)] == expected


def test_condition_map_memory_does_not_grow_with_the_seeds(tmp_path):
    # with a pseudo_inverse_H each seed has its own gain set, and no seed's
    # loops are held while the next seed is judged
    import tracemalloc

    from iterlearn.presets import reference_seeds

    seeds = reference_seeds(8, start=0, horizon=100)
    peaks = {}
    for count in (4, 8):
        config = write_reference_experiment(
            tmp_path / str(count), seeds=seeds[:count], iterations=5, horizon=100
        )
        doc = json.loads(config.read_text())
        _pseudo_inverse_H(doc)
        _uncertain_nominal(doc)
        write_json(config, doc)
        exp = load_experiment(config)
        tracemalloc.start()
        try:
            exp.condition_map()
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] <= 1.2 * peaks[4]


def observer_divergence_config(tmp_path, laws):
    # H = 0 leaves the input loop stable while the observer loop has
    # spectral radius 2.47, so only the observer estimates blow up
    doc = {
        "format_version": 1,
        "plant": {"kind": "direct", "nominal": [[1.0, 0.0], [0.0, 1.0]]},
        "target": [1.0, -0.5],
        "uncertainty": {"kind": "cumulative_sine"},
        "gains": {
            "K": [[0.5, 0.0], [0.0, 0.5]],
            "H": [[0.0, 0.0], [0.0, 0.0]],
            "L1": {"scaled_identity": 3.5},
            "L2": {"scaled_identity": 0.1},
        },
        "laws": laws,
        "iterations": 2000,
        "seeds": [0],
    }
    path = tmp_path / "config.json"
    write_json(path, doc)
    return path


def test_simulate_observer_only_divergence(tmp_path):
    config = observer_divergence_config(tmp_path, ["eso_mixed"])
    out = tmp_path / "one"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_DIVERGED
    (run,) = json.loads((out / "summary.json").read_text())["runs"]
    assert run["diverged"] is True and run["rows"] == run["diverged_at"] + 1 < 2000
    assert run["diverged_component"] == "e_hat"
    data = read_trace_csv(out / "trace_eso_mixed_seed0.csv")
    assert all(np.all(np.isfinite(col)) for col in data.values())
    assert data["diverged"][-1] == 1 and not np.any(data["diverged"][:-1])

    config = observer_divergence_config(tmp_path, ["eso_mixed", "p_type"])
    out = tmp_path / "two"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
    runs = json.loads((out / "summary.json").read_text())["runs"]
    assert [r["diverged"] for r in runs] == [True, False]
    assert [r["diverged_component"] for r in runs] == ["e_hat", None]
    assert runs[1]["rows"] == 2000


@settings(max_examples=25, deadline=None)
@given(
    plant_seed=st.integers(0, 10_000),
    k_scale=st.floats(0.2, 4.0),
    h_scale=st.floats(0.0, 3.0),
    l1=st.floats(0.2, 3.5),
)
def test_simulate_divergence_is_never_a_config_error(plant_seed, k_scale, h_scale, l1):
    # large learning or observer gains blow up some runs or all of them;
    # that is divergence (exit 3 when every run diverged, 0 otherwise),
    # never a config error
    rng = np.random.default_rng(plant_seed)
    P = np.diag(rng.uniform(0.5, 2.0, 2)) + 0.3 * rng.standard_normal((2, 2))
    P_inv = np.linalg.inv(P)
    doc = {
        "format_version": 1,
        "plant": {"kind": "direct", "nominal": P.tolist()},
        "target": rng.standard_normal(2).tolist(),
        "uncertainty": {"kind": "seeded_bounded", "bound": 0.5},
        "gains": {
            "K": (k_scale * P_inv).tolist(),
            "H": (h_scale * P_inv).tolist(),
            "L1": {"scaled_identity": l1},
            "L2": {"scaled_identity": 0.1},
        },
        "laws": ["p_type", "eso_mixed", "eso_full_state"],
        "iterations": 60,
        "seeds": [0, 1],
    }
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        write_json(config, doc)
        out = Path(tmp) / "out"
        code = main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
        assert code != EXIT_CONFIG
        runs = json.loads((out / "summary.json").read_text())["runs"]
    assert code == (EXIT_DIVERGED if all(r["diverged"] for r in runs) else EXIT_OK)
