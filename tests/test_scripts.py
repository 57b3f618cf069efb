"""The scripts under scripts/ run at small sizes and print their tables."""

import os
import subprocess
import sys
from pathlib import Path

import ncinv
from ncinv.hilbert import dims_by_quadrature

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run(name, *argv):
    src = str(Path(ncinv.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


def run_script(name, *argv):
    done = run(name, *argv)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_hilbert_table():
    lines = run_script("hilbert_table.py", "--max-d", "2", "--max-m", "4")
    assert lines[:2] == ["# d = 1", "m,enum,cheb,quad,abs_err"]
    verdicts = [line for line in lines if line.startswith("# exact")]
    assert verdicts == ["# exact methods agree: True, quadrature within 1e-08: True -> ok"] * 2


def test_hilbert_table_default_panels_follow_the_cli_rule():
    # d = 255, max_m = 2 needs 257 panels, one more than 256.
    lines = run_script("hilbert_table.py", "--max-d", "256", "--max-m", "2")
    verdicts = [line for line in lines if line.startswith("# exact")]
    assert len(verdicts) == 256 and all(line.endswith("-> ok") for line in verdicts)


def test_hilbert_table_refuses_too_few_panels():
    done = run("hilbert_table.py", "--nodes", "5")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith("error: --nodes 5 is below 6, the fewest panels that make "
                                "the quadrature exact at d=1, max-m 8\n")


def test_quadrature_convergence():
    lines = run_script("quadrature_convergence.py",
                       "--max-d", "1", "--max-m", "3", "--max-panels", "8")
    assert lines[:2] == ["# d = 1", "panels,max_abs_err,estimate"]
    rows = [line.split(",") for line in lines[2:6]]
    assert [row[0] for row in rows] == ["1", "2", "4", "8"]
    # The estimate for p panels is the node-doubling difference max |Q_p - Q_2p|.
    for panels, _err, estimate in rows:
        coarse = dims_by_quadrature(1, 3, int(panels)).dims
        fine = dims_by_quadrature(1, 3, 2 * int(panels)).dims
        assert estimate == f"{max(abs(a - b) for a, b in zip(coarse, fine)):.3e}"
