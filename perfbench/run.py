"""ncinv benchmark: runs one workload (or all) and prints its metrics.

    python3 perfbench/run.py [--workload counting|algebra|free-probability|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is taken from ``src/`` beside this directory
and is not installed.  One process runs the jobs one at a time: CLI jobs as
``python -m ncinv.cli ...`` children (through ``spawner.py``), library jobs
as in-process calls.  A run measures whole rounds of the workload's
operations until ``--seconds`` is used up and reports medians over rounds.
With ``--trace 1`` each round also replays the CLI jobs in-process with
spans around every layer (``spans.py``) and reports per-layer figures
instead of end-to-end ones.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

JOB_TIMEOUT_S = 120
SETUP_SAMPLES = 4  # per round

# Gated end-to-end metrics (untraced run) and per-layer metrics (traced run);
# every workload reports every one of them.
END_TO_END = {"setup_s": "s", "cli_s": "s", "round_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.startup_s": "s", "cli.cold_main_s": "s", "cli.warm_main_s": "s",
    "cli.self_s": "s", "partitions.self_s": "s",
    "cli.output_bytes": "count", "partitions.pairings": "count",
    "hilbert.quadrature_nodes": "count", "symbolic.basis_elements": "count",
    "symbolic.terms": "count", "group_action.witness_checks": "count",
    "brackets.input_crossings": "count", "brackets.output_terms": "count",
}
# Printed beside them: inclusive span time of the calls each layer metric names.
LAYER_CALLS = {
    "partitions.count_s": ("partitions.count_m_partite_nc_pairings",),
    "partitions.enumerate_s": ("partitions.enumerate_m_partite_nc_pairings",),
    "partitions.moebius_s": ("partitions.nc_moebius",),
    "hilbert.enumeration_s": ("hilbert.dims_by_enumeration",),
    "hilbert.chebyshev_s": ("hilbert.dims_by_chebyshev",),
    "hilbert.quadrature_s": ("hilbert.dims_by_quadrature",),
    "symbolic.basis_s": ("symbolic.noncrossing_basis",),
    "symbolic.format_s": ("symbolic.pretty", "symbolic.to_json_dict"),
    "group_action.is_invariant_s": ("group_action.is_invariant",),
    "brackets.parse_s": ("brackets.from_json_dict",),
    "brackets.to_noncrossing_s": ("brackets.to_noncrossing",),
    "freeprob.moments_s": ("freeprob.moments_from_cumulants",),
    "freeprob.cumulants_s": ("freeprob.cumulants_from_moments",),
    "freeprob.psi_s": ("freeprob.psi_mixed_moment",),
}
LAYERS = ("cli", "partitions", "hilbert", "symbolic", "group_action", "brackets", "freeprob")


class Spawner:
    """Client of spawner.py, started before the harness grows (see there)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, env, stdout: Path, stderr: Path) -> dict:
        request = {"argv": argv, "env": env, "cwd": str(ROOT), "stdout": str(stdout),
                   "stderr": str(stderr), "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        return json.loads(reply)

    def close(self) -> None:
        """Stop the spawner; a job still running (after an error) is killed."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()


class Run:
    """One workload run: its files, its child processes and its tallies."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool) -> None:
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.dir = WORK / f"{name}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs, self.out, self.caches, self.home = (
            self.dir / "inputs", self.dir / "out", self.dir / "cache", self.dir / "home")
        for path in (self.inputs, self.out, self.caches, self.home):
            path.mkdir(parents=True)
        # Every dim and hilbert job names its cache directory; HOME and the
        # default cache variable point inside the run so a job that did not
        # would be caught below instead of touching ~/.cache.
        self.default_cache = self.dir / "default-cache"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), HOME=str(self.home),
                        NCINV_CACHE_DIR=str(self.default_cache), PYTHONIOENCODING="utf-8")
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.verified: dict[int, bytes] = {}
        self.peak_rss_kb = 0
        self.setup_times: list[float] = []

    # -- jobs ---------------------------------------------------------------

    def spawn(self, spawner: Spawner, argv, tag: str):
        out, err = self.out / f"{tag}.out", self.out / f"{tag}.err"
        res = spawner.run([sys.executable] + argv, self.env, out, err)
        return res, out.read_bytes(), err.read_bytes()

    def time_setup(self, spawner: Spawner, samples: int) -> None:
        """Time a fresh interpreter running ``import ncinv``, ``samples`` times.

        Samples are taken before every round, so that they span the run like
        the other figures do, and setup_s is their median."""
        for _ in range(samples):
            res, _out, err = self.spawn(spawner, ["-c", "import ncinv"], "setup")
            if res["rc"] != 0:
                raise RuntimeError(f"import ncinv failed: {err.decode(errors='replace')}")
            self.setup_times.append(res["wall_s"])

    def argv_for(self, op: wl.Op, cache_dirs: dict[int, Path], index: int, rnd: int):
        if not op.cached:
            return list(op.argv)
        if op.repeat_of is None:
            cache_dirs[index] = self.caches / f"r{rnd}-op{index}"
        directory = cache_dirs[index if op.repeat_of is None else op.repeat_of]
        return [str(directory) if a == wl.CACHE else a for a in op.argv]

    def check(self, index: int, op: wl.Op, value) -> None:
        """Check an output against its reference once; later rounds must
        reproduce the checked bytes exactly."""
        if isinstance(value, bytes):
            digest = hashlib.sha256(value).digest()
            if self.verified.get(index) == digest:
                return
        try:
            op.check(value)
        except (wl.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return
        if isinstance(value, bytes):
            self.verified[index] = digest

    def cli_outcome(self, op: wl.Op, res: dict, stderr: bytes) -> bool:
        """Count the job; True when it succeeded and its output is to be checked."""
        self.attempted += 1
        if op.malformed:
            # Expected: a clear error and exit 2.  Counted as failed otherwise.
            if res["rc"] != 2 or b"Traceback" in stderr:
                self.failed += 1
            return False
        if res["rc"] != 0 or res["timed_out"]:
            self.failed += 1
            self.errors.append(f"{op.label}: exit {res['rc']}: "
                               f"{stderr.decode(errors='replace')[-300:]}")
            return False
        self.peak_rss_kb = max(self.peak_rss_kb, res["maxrss_kb"])
        return True

    # -- rounds -------------------------------------------------------------

    def round(self, spawner, ops, calls, rnd: int, tracer: Tracer | None):
        """Run every op once.  Returns the wall time of each timed op, the
        round's layer figures, and the time spent checking outputs."""
        walls: dict[int, float] = {}
        layer: dict[str, float] = {"startup": 0.0, "cold": 0.0, "warm": 0.0, "bytes": 0}
        cache_dirs: dict[int, Path] = {}
        outputs: dict[int, bytes] = {}
        checking = 0.0
        for i, op in enumerate(ops):
            if op.argv is not None:
                argv = self.argv_for(op, cache_dirs, i, rnd)
                res, out, err = self.spawn(spawner, ["-m", "ncinv.cli"] + argv, f"op{i}")
                if not self.cli_outcome(op, res, err):
                    continue
                walls[i] = res["wall_s"]
                layer["bytes"] += len(out)
                outputs[i] = out
                t0 = time.perf_counter()
                if op.repeat_of is not None and out != outputs.get(op.repeat_of):
                    self.errors.append(f"{op.label}: warm output differs from cold output")
                self.check(i, op, out)
                checking += time.perf_counter() - t0
                if tracer is not None:
                    self.replay(tracer, op, i, argv, out, res["wall_s"], layer, rnd)
            else:
                self.attempted += 1
                gc.collect()
                if tracer is not None:
                    tracer.job = [i, "call"]
                t0 = time.perf_counter()
                result = calls[i]()
                walls[i] = time.perf_counter() - t0
                t0 = time.perf_counter()
                self.check(i, op, result)
                checking += time.perf_counter() - t0
        return walls, layer, checking

    def replay(self, tracer: Tracer, op, i, argv, sub_out: bytes, sub_wall: float,
               layer: dict, rnd: int) -> None:
        """Run a CLI job's argv through ncinv.cli.main in-process, twice."""
        import ncinv.cli
        if op.cached:
            # Its own cache directory, filled by the cold pass, hit by the warm one.
            owner = i if op.repeat_of is None else op.repeat_of
            directory = str(self.caches / f"r{rnd}-op{owner}-inproc")
            argv = [directory if a.startswith(str(self.caches)) else a for a in argv]
        for phase in ("cold", "warm"):
            tracer.job = [i, phase]
            tracer.counting = phase == "cold"
            if op.kind == "basis" and phase == "cold" and "json" not in argv:
                ncinv.partitions.enumerate_m_partite_nc_pairings(op.shape[1], op.shape[0])
            first = len(tracer.spans)
            path = self.out / f"op{i}-{phase}.inproc"
            gc.collect()
            with open(path, "w", encoding="utf-8") as out, open(path.with_suffix(".err"), "w") as err:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = ncinv.cli.main(argv)
            _name, start, end, _parent, _job = tracer.spans[first]
            layer[phase] += end - start
            if phase == "cold":
                layer["startup"] += sub_wall - (end - start)
            if code != 0 or path.read_bytes() != sub_out:
                self.errors.append(f"{op.label}: in-process {phase} run differs from the child's")
        tracer.counting = True

    def execute(self) -> dict:
        spawner = Spawner()
        try:
            import ncinv
            ops = wl.WORKLOADS[self.name](self.seed, self.inputs)
            self.time_setup(spawner, 1)  # compiles the bytecode; not counted
            self.setup_times.clear()
            calls = {i: op.prepare(ncinv) for i, op in enumerate(ops) if op.prepare is not None}
            tracer = Tracer() if self.trace else None
            rounds, layer_rounds = [], []
            start = time.perf_counter()
            with tracer.patch() if tracer else contextlib.nullcontext():
                while True:
                    if not tracer:
                        self.time_setup(spawner, SETUP_SAMPLES)
                    t0 = time.perf_counter()
                    first_span = len(tracer.spans) if tracer else 0
                    counts_before = dict(tracer.counts) if tracer else {}
                    walls, layer, checking = self.round(spawner, ops, calls, len(rounds), tracer)
                    rounds.append(walls)
                    print(f"# round {len(rounds)}: {sum(walls.values()):.4f} s", file=sys.stderr)
                    if tracer:
                        layer_rounds.append(self.layer_figures(tracer, first_span, counts_before,
                                                               layer))
                    took = time.perf_counter() - t0 - checking
                    if time.perf_counter() + took > start + self.seconds:
                        break
        finally:
            spawner.close()
        if tracer:
            (WORK / "spans").mkdir(parents=True, exist_ok=True)
            tracer.write(WORK / "spans" / f"{self.name}-seed{self.seed}.json")
        for leak in (self.default_cache, self.home / ".cache"):
            if leak.exists():
                self.errors.append(f"a job wrote to {leak.name}: a cache directory was not passed")
        if tracer:
            figures = {k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]}
        else:
            figures = self.job_figures(ops, rounds)
            figures.update(setup_s=statistics.median(self.setup_times),
                           peak_rss_mb=self.peak_rss_kb / 1024)
        figures["rounds"] = len(rounds)
        return figures

    @staticmethod
    def job_figures(ops, rounds: list[dict[int, float]]) -> dict:
        """Each job's median wall time over the rounds, summed per kind.

        A slow moment on a shared machine then spoils one sample of one job,
        not the round it falls in."""
        figures: dict[str, float] = {"cli_s": 0.0, "round_s": 0.0}
        for i, op in enumerate(ops):
            samples = [r[i] for r in rounds if i in r]
            if not samples:
                continue
            wall = statistics.median(samples)
            key = wl.KIND_METRICS[op.kind]
            figures[key] = figures.get(key, 0.0) + wall
            figures["round_s"] += wall
            if op.argv is not None and op.repeat_of is None:
                figures["cli_s"] += wall
        return figures

    def layer_figures(self, tracer: Tracer, first: int, counts_before: dict, layer: dict) -> dict:
        own = tracer.self_times()
        spans = tracer.spans[first:]
        out = {
            "cli.startup_s": layer["startup"], "cli.cold_main_s": layer["cold"],
            "cli.warm_main_s": layer["warm"], "cli.output_bytes": layer["bytes"],
            "trace.spans": len(spans),
            "trace.overhead_s": len(spans) * tracer.span_cost_s,
        }
        for key in PER_LAYER:
            if PER_LAYER[key] == "count" and key != "cli.output_bytes":
                out[key] = tracer.counts.get(key, 0) - counts_before.get(key, 0)
        inclusive: dict[str, float] = {}
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        for index, (name, start, end, _parent, job) in enumerate(spans, start=first):
            if job is not None and job[1] == "warm":
                continue
            inclusive[name] = inclusive.get(name, 0.0) + end - start
            self_by_layer[name.split(".")[0]] += own[index]
        for key, layer_name in ((f"{n}.self_s", n) for n in LAYERS):
            out[key] = self_by_layer[layer_name]
        for key, names in LAYER_CALLS.items():
            out[key] = sum(inclusive.get(n, 0.0) for n in names)
        enum_s = out["partitions.count_s"] + out["partitions.enumerate_s"]
        out["partitions.pairings_per_s"] = out["partitions.pairings"] / enum_s if enum_s else 0.0
        return out

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def unit_of(key: str) -> str:
    if key in END_TO_END:
        return END_TO_END[key]
    if key in PER_LAYER:
        return PER_LAYER[key]
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    return "count"


def report(name: str, seed: int, figures: dict, run: Run, trace: bool) -> dict:
    gated = PER_LAYER if trace else END_TO_END
    print(f"# workload {name} seed {seed} trace {int(trace)}: {figures['rounds']} rounds, "
          f"{run.attempted} operations attempted, {run.failed} failed")
    for key in sorted(figures):
        # A breakdown figure of a layer or job kind this workload never runs
        # reads 0 and is left out.
        if key in gated or (key != "rounds" and figures[key]):
            tag = "" if key in gated else "  (not gated)"
            print(f"{key} {figures[key]!r} {unit_of(key)}{tag}")
    for error in run.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": figures[k], "unit": u} for k, u in gated.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=list(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ncinv" / "cli.py").is_file():
        print(f"perfbench: no ncinv sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Stopped from outside: unwind, so the spawner, its job and the scratch
    # directory are cleaned up.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace))
        try:
            os.environ.update(HOME=str(run.home), NCINV_CACHE_DIR=str(run.default_cache))
            figures = run.execute()
        finally:
            run.close()
        print(json.dumps(report(name, args.seed, figures, run, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
