"""Golden for the degraded-fleet report table.

The table is a pure function of the seeds and the injected fault, so
it is diffed character-for-character.  Regenerate after an intentional
change with:

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/chaos/test_degraded_golden.py
"""

import os
import pathlib

import pytest

from repro.runtime import render_degraded, run_fleet

from .conftest import small_specs

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "goldens"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDENS"))


def _check(name: str, text: str) -> None:
    path = GOLDEN_DIR / f"{name}.txt"
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden {path}; run with REPRO_REGEN_GOLDENS=1")
    assert text == path.read_text(), (
        f"{name} drifted from its golden; if the change is intentional, "
        f"regenerate with REPRO_REGEN_GOLDENS=1")


def test_degraded_report_golden(tmp_path):
    specs = small_specs()
    specs[1] = specs[1].with_faults(process=("transient",) * 4,
                                    chaos_dir=str(tmp_path))
    fleet = run_fleet(specs, jobs=1, retries=1, strict=False,
                      backoff_base=0.0)
    assert not fleet.ok
    _check("degraded_report", render_degraded(fleet) + "\n")
