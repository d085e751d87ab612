"""Run the lgh benchmark.

    python3 perfbench/run.py                                  # every workload, untraced
    python3 perfbench/run.py --workload suite --seed 3 --seconds 36 --trace 0
    python3 perfbench/run.py --workload linear-sweep --trace 1   # per-layer numbers

One workload runs in one process, as a closed loop with one client: passes
run back to back until the next one would end after ``--seconds``, with at
least two passes.  Human-readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every check passed the correctness
gate, 1 when one failed, and 2 when the benchmark could not start.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import layers
import workloads
from spans import Recorder
from speed import Speedometer

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
}



# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def residual_digest(residuals: dict) -> str:
    """Bit-exact fingerprint of a report's residuals."""
    text = ";".join(f"{k}={float(v).hex()}" for k, v in sorted(residuals.items()))
    return hashlib.sha256(text.encode()).hexdigest()


class Gate:
    """Judges every check of every pass.

    A check fails when it raised, when its report did not pass, when it used
    fewer samples than asked without exhausting its draw budget, or when its
    residual digest differs from the one it had in the first pass.
    """

    def __init__(self):
        self.reference: dict[str, str] = {}
        self.names: list[str] | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def judge(self, label: str, results) -> None:
        names = [r.name for r in results]
        if self.names is None:
            self.names = names
        elif names != self.names:
            self.attempted += 1
            self.failures.append(f"{label}: the checks differ from those of the first pass")
        for r in results:
            self.attempted += 1
            problem = self._problem(r)
            if problem:
                self.failures.append(f"{label} {r.name}: {problem}")

    def _problem(self, r) -> str | None:
        if r.error:
            return r.error
        rep = r.report
        if not rep["passed"]:
            return f"report failed: residuals {rep['residuals']} against tol {rep['tol']}"
        used = rep["samples_used"]
        if used < r.min_samples and used + rep["samples_discarded"] < r.oversample * r.min_samples:
            return f"used {used} of {r.min_samples} samples"
        digest = residual_digest(rep["residuals"])
        if self.reference.setdefault(r.name, digest) != digest:
            return "residual digest differs from the first pass"
        return None

    @property
    def failed(self) -> int:
        return len(self.failures)


def headroom_dex(results) -> tuple[float, str]:
    """min log10(tol / max residual) over judged reports (finite tol, nonzero
    residual), with the check that sets it."""
    best = (math.inf, "")
    for r in results:
        rep = r.report
        if rep is None or not math.isfinite(rep["tol"]):
            continue
        worst = max(rep["residuals"].values(), default=0.0)
        if worst > 0:
            best = min(best, (math.log10(rep["tol"] / worst), r.name))
    return best


def samples_used(results) -> int:
    return sum(r.report["samples_used"] for r in results if r.report is not None)


# ---------------------------------------------------------------------------
# provenance and set-up
# ---------------------------------------------------------------------------

def git_revision() -> str | None:
    if not (workloads.ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=workloads.ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, a revision id that needs no git."""
    h = hashlib.sha256()
    for path in sorted((workloads.SRC / "lgh").rglob("*.py")):
        h.update(path.relative_to(workloads.SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, lgh_threads: str | None) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "lgh_threads": lgh_threads,
    }


def time_setups(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall seconds of fresh processes that start Python, import lgh, build
    the workload's inputs and run its warm-up, one after another."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=workloads.ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise workloads.StartError(f"set-up of {workload} failed:\n{proc.stderr}")
    return times


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def percentile_with_tail(values: list[float], beyond: int = 10) -> tuple[float, str]:
    """The highest percentile with at least ``beyond`` samples above it, or
    the maximum when that percentile would lie below the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * beyond:
        return ordered[-1], f"max of n={n}"
    return ordered[n - beyond - 1], f"p{math.floor(100 * (n - beyond) / n)} of n={n}"


def measure(lgh, work, seconds: float, trace: bool, out=print) -> dict:
    """Run passes until the next would end after ``seconds``; with ``trace``,
    alternate untraced and traced passes.  Returns the gate and the figures.

    Reference bursts run between untraced passes, never inside one.
    """
    gate = Gate()
    walls = {False: [], True: []}
    rates, relative, first, layer_rows = [], [], None, []
    speed = Speedometer()
    recorder = Recorder()
    start = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        if traced:
            recorder.reset()
            tally = layers.Tally()
            layers.install(lgh, recorder, tally)
            speed.before = None  # bursts before this pass say nothing of the next
            t0 = time.perf_counter()
            try:
                results = work.run_pass()
            finally:
                wall = time.perf_counter() - t0
                recorder.uninstall()
            layer_rows.append(layers.pass_metrics(recorder, tally, wall, getattr(work, "doc_bytes", 0)))
            note = "traced"
        else:
            results, wall, burst = speed.timed(work.run_pass)
            rates.append(samples_used(results) / wall)
            relative.append(wall / burst)
            note = f"median reference burst {burst * 1e3:.3f} ms"
        index += 1
        gate.judge(f"pass {index}{' (traced)' if traced else ''}", results)
        walls[traced].append(wall)
        first = first or results
        out(f"pass {index}: {wall:.3f} s, {note}")
        enough = index >= 2 and (not trace or layer_rows)
        typical = median(walls[False] + walls[True])
        if enough and time.perf_counter() - start + typical > seconds:
            break
    return {
        "gate": gate,
        "walls": walls[False],
        "traced_walls": walls[True],
        "rates": rates,
        "relative": relative,
        "first": first,
        "layer_rows": layer_rows,
        "missing": recorder.missing,
    }


def default_seconds() -> float:
    """``run_seconds`` from BENCHMARK.json, so the two cannot drift apart."""
    path = workloads.ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise workloads.StartError(f"no {path}; pass --seconds")
    return float(json.loads(path.read_text())["run_seconds"])


def run_one(args) -> int:
    lgh_threads = os.environ.pop("LGH_THREADS", None)  # one client, no thread pool
    lgh = workloads.import_lgh()
    out = functools.partial(print, flush=True)
    prov = provenance(args, lgh_threads)
    out(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    out("provenance " + json.dumps(prov, sort_keys=True))
    setups = [] if args.trace else time_setups(args.workload, args.seed, SETUP_REPEATS)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workloads.ROOT) as workdir:
        t0 = time.perf_counter()
        work = workloads.build(lgh, args.workload, args.seed, Path(workdir))
        work.warm_up()
        out(f"in-process set-up: {time.perf_counter() - t0:.3f} s")
        m = measure(lgh, work, args.seconds, bool(args.trace), out)
    gate = m["gate"]
    for failure in gate.failures:
        out(f"FAILED {failure}")
    if args.trace:
        metrics = layers.run_metrics(m["layer_rows"], m["traced_walls"], m["walls"])
        units = {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
        for key, value in metrics.items():
            out(f"  {key:<24}{value:>16.6g} {units[key]}")
        if m["missing"]:
            out(f"not traced (no longer in lgh): {', '.join(m['missing'])}")
    else:
        headroom, worst = headroom_dex(m["first"])
        metrics = {
            "setup_s": median(setups),
            "wall_ref": median(m["relative"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        tail, tail_label = percentile_with_tail(m["walls"])
        rows = [
            ("setup_s", metrics["setup_s"], "s", f"median of {len(setups)} fresh processes"),
            ("wall_s", median(m["walls"]), "s", f"median of n={len(m['walls'])} passes; {tail_label}: {tail:.4f} s"),
            ("wall_ref", metrics["wall_ref"], "ref", "median of pass / median reference burst around it"),
            ("samples_per_s", median(m["rates"]), "1/s", "samples used per second of a pass"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB", ""),
            ("failed_frac", gate.failed / gate.attempted, "", f"{gate.failed} of {gate.attempted} checks"),
            ("headroom_min_dex", headroom, "dex", f"set by {worst}"),
        ]
        for key, value, unit, note in rows:
            out(f"  {key:<20}{value:>14.4f} {unit:<5} {note}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=workloads.ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} did not finish (exit {proc.returncode})", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the lgh verifier.")
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = default_seconds()
        return run_all(args) if args.workload == "all" else run_one(args)
    except workloads.StartError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
