"""SIGINT mid-fleet: journaled progress survives, resume completes.

A child process runs a serial checkpointed fleet whose second target
hangs; the parent waits until the first outcome hits the journal,
interrupts the child, and then resumes the fleet from the journal in
its own process.  The resumed run must skip the completed target and
finish byte-identical to a clean baseline - the whole point of
flushing the journal on the way out of ``run_fleet``.
"""

import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.runtime import run_fleet

from .conftest import small_specs

HERE = pathlib.Path(__file__).parent
SRC = HERE.parents[1] / "src"

CHILD = """\
import sys
conftest_dir, ckpt, chaos_dir = sys.argv[1], sys.argv[2], sys.argv[3]
sys.path.insert(0, conftest_dir)
from conftest import small_specs
from repro.runtime import run_fleet
specs = small_specs()
specs[1] = specs[1].with_faults(process=("hang",),
                                chaos_dir=chaos_dir, hang_s=120.0)
run_fleet(specs, jobs=1, checkpoint=ckpt)
"""


def test_sigint_flushes_journal_and_resume_completes(tmp_path,
                                                     clean_baseline):
    ckpt = tmp_path / "fleet.ckpt"
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(HERE), str(ckpt),
         str(chaos_dir)],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        # Wait for the first completed target to reach the journal;
        # the child is then inside the second target's injected hang.
        give_up = time.monotonic() + 120.0
        while time.monotonic() < give_up:
            if (ckpt.exists()
                    and '"kind": "outcome"' in ckpt.read_text()):
                break
            time.sleep(0.05)
        else:
            pytest.fail("child never journaled its first target")
        time.sleep(0.3)  # let the hanging target actually start
        child.send_signal(signal.SIGINT)
        returncode = child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    assert returncode != 0  # the interrupt aborted the fleet...

    resumed = run_fleet(small_specs(), jobs=1, checkpoint=str(ckpt),
                        resume=True)
    assert resumed.checkpoint_hits >= 1  # ...but its progress survived
    assert resumed.attempts == len(small_specs()) - resumed.checkpoint_hits
    assert resumed.signatures() == clean_baseline.signatures()
    assert resumed.stats.tests == clean_baseline.stats.tests
