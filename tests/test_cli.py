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
from iterlearn.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main
from iterlearn.learner import read_trace_csv
from iterlearn.matanalysis import load_matrix
from iterlearn.plant import LiftedIlcSystem, save_ilc_system
from iterlearn.presets import (
    reference_system,
    write_reference_experiment,
)
from iterlearn.stability import load_certificate


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
    assert not list(out.glob("*.csv"))


MALFORMED_FIELDS = [
    (("seeds",), [None]),
    (("seeds",), "12"),
    (("seeds",), [1.5]),
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
    "bound=NaN": (("uncertainty",), {"kind": "seeded_bounded", "bound": math.nan}),
    "bound=Infinity": (("uncertainty",), {"kind": "seeded_bounded", "bound": math.inf}),
    "scaled_identity=Infinity": (("gains", "L1"), {"scaled_identity": math.inf}),
    "target=NaN": (("target",), [math.nan] + [0.0] * 19),
    "u0=-Infinity": (("u0",), [0.0] * 19 + [-math.inf]),
    "target=nested": (("target",), [[0.0] * 10, [0.0] * 10]),
}


def assert_field_is_config_error(tmp_path, capsys, command, path, value):
    """``command`` on the reference experiment with the field at ``path`` set
    to ``value`` exits 2 with one ``error:`` line naming the field."""
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


@pytest.mark.parametrize("path", [("gains", "K"), ("plant", "system")])
def test_check_file_reference_of_wrong_type_is_config_error(tmp_path, capsys, path):
    config = write_reference_experiment(tmp_path, seeds=[1], iterations=5)
    doc = json.loads(config.read_text())
    doc[path[0]][path[1]] = {"file": 5}
    write_json(config, doc)
    rc = main(["check", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ".".join(path) + ".file must be a string" in err


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
    # scipy is imported only where a check needs LAPACK; a simulation never does
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


def test_plot_rejects_header_mismatch(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n0,1\n", encoding="ascii")
    assert main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == EXIT_CONFIG


def test_plot_rejects_empty_csv(tmp_path):
    bad = tmp_path / "empty.csv"
    bad.write_text("", encoding="ascii")
    assert main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == EXIT_CONFIG


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
