"""The demos that exercise the observer and certificate APIs run cleanly."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name, expected",
    [
        ("02_observer_disturbance_tracking.py", "contraction: True"),
        ("04_robust_certificates.py", "errors all keep the loop contractive: True"),
    ],
)
def test_demo_runs(name, expected, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out
