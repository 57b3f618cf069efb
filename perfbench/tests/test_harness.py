"""Harness hygiene: job output goes to files, the peak memory reported for a
job is the job's own, no job can reach ~/.cache, the benchmark touches only
entry points the program keeps, and without the program it fails cleanly."""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SOURCES = sorted(HERE.glob("*.py"))


@pytest.fixture
def spawner():
    spawner = run.Spawner()
    yield spawner
    spawner.close()
    assert spawner.proc.returncode == 0


def test_large_output_goes_to_a_file(spawner, tmp_path):
    # 3 MB on stdout would block forever on a pipe that nobody reads.
    argv = [sys.executable, "-c", "import sys; sys.stdout.write('x' * 3_000_000)"]
    res = spawner.run(argv, dict(os.environ), tmp_path / "out", tmp_path / "err")
    assert res["rc"] == 0 and not res["timed_out"]
    assert (tmp_path / "out").stat().st_size == 3_000_000


def test_peak_rss_is_the_childs_own(spawner, tmp_path):
    ballast = bytearray(b"\x01") * (300 << 20)  # grow this process by 300 MB
    argv = [sys.executable, "-c", "pass"]
    res = spawner.run(argv, dict(os.environ), tmp_path / "out", tmp_path / "err")
    assert res["maxrss_kb"] < 100 << 10
    # The reason for the spawner: a child started by this (large) process
    # reports at least this process's peak.
    proc = subprocess.Popen(argv)
    _, _, usage = os.wait4(proc.pid, 0)
    assert usage.ru_maxrss >= 300 << 10
    del ballast


def test_every_cached_job_names_its_cache(tmp_path):
    for name, build in wl.WORKLOADS.items():
        inputs = tmp_path / name
        inputs.mkdir()
        for op in build(7, inputs):
            if op.argv and op.argv[0] in ("dim", "hilbert"):
                assert op.cached or "--no-cache" in op.argv, op.label


def test_jobs_run_with_home_and_default_cache_inside_the_run():
    r = run.Run("counting", 1, 1, False)
    try:
        assert Path(r.env["HOME"]).is_relative_to(r.dir)
        assert Path(r.env["NCINV_CACHE_DIR"]).is_relative_to(r.dir)
    finally:
        r.close()
    assert not r.dir.exists()


def test_only_kept_entry_points_are_used():
    banned = re.compile(r"ncinv\.cache|ResultCache|straighten_step|\b_iter_\w+")
    for path in SOURCES:
        assert not banned.search(path.read_text()), path.name


def test_references_import_nothing_from_the_program():
    tree = ast.parse((HERE / "references.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "ncinv" for a in node.names)
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "ncinv"


def test_malformed_jobs_count_as_failed_and_nothing_else_does():
    r = run.Run("algebra", 1, 1, False)
    try:
        bad = wl.Op("rewrite", None, ["rewrite", "x.json"], malformed=True)
        r.cli_outcome(bad, {"rc": 1, "timed_out": False, "maxrss_kb": 1}, b"Traceback ...")
        r.cli_outcome(bad, {"rc": 2, "timed_out": False, "maxrss_kb": 1}, b"Traceback ...")
        r.cli_outcome(bad, {"rc": 2, "timed_out": False, "maxrss_kb": 1}, b"error: bad file")
        good = wl.Op("basis", None, ["basis"])
        assert r.cli_outcome(good, {"rc": 0, "timed_out": False, "maxrss_kb": 5}, b"")
        assert (r.attempted, r.failed, r.errors, r.peak_rss_kb) == (4, 2, [], 5)
    finally:
        r.close()


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "counting",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_a_run_prints_every_gated_metric_and_leaves_no_files(tmp_path):
    env = dict(os.environ, HOME=str(tmp_path))
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "free-probability",
                           "--seed", "3", "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=170, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert not (tmp_path / ".cache").exists()
    assert not list(run.WORK.glob("free-probability-*"))
