"""Every demo runs cleanly and prints one expected line."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name, expected",
    [
        ("01_lifting_basics.py", "lifted maps: P (20, 20), Q (20, 60), S (20, 3)"),
        ("02_observer_disturbance_tracking.py", "contraction: True"),
        ("03_updating_law_comparison.py", "predicted stall level for the plain law: 1.500"),
        ("04_robust_certificates.py", "errors all keep the loop contractive: True"),
        ("05_model_free_benchmark.py", "benchmark seeds (amplification-sane draws): [1, 2, 3]"),
    ],
)
def test_demo_runs(name, expected, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out
