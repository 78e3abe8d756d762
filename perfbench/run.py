"""Benchmark of the ``cbounds`` command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload compare-d4 --seed 1 --seconds 25 --trace 0

``--trace 0`` launches the workload as ``python -m commutator_bounds``
subprocesses for ``--seconds`` seconds and reports the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` runs it in this process with spans around
the calls into each module and reports the per-layer metrics instead.  The
last line of stdout is the result; the line before it holds the details
(spread, sample counts, output digests and the environment).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import CheckError, Determinism, read_checked
from workloads import SETUP, WORKERS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: One BLAS thread per worker process.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WARMUP_FRACTION = 8
MIN_LAUNCHES = 3
MIN_SETUPS = 5
#: Every launch is killed at this many seconds after the benchmark started,
#: so the benchmark itself always ends well inside three minutes.
HARD_LIMIT_S = 165.0


class Budget:
    def __init__(self) -> None:
        self.start = time.perf_counter()

    def left(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)


def child_env(work: Path) -> dict[str, str]:
    """Environment for a ``cbounds`` child: source on the path, BLAS pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "CB_"))}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Launch:
    wall_s: float
    returncode: int
    maxrss_kb: int
    stderr: str


def launch(argv: list[str], env: dict[str, str], cwd: Path, budget: Budget) -> Launch:
    """Run ``python -m commutator_bounds argv --out cwd/out`` in ``cwd``.

    Wall time runs from spawn to exit.  ``maxrss_kb`` is the largest resident
    set of the child and of the worker processes it reaped; at exec the
    kernel also counts this process's own peak, which stays far below the
    child's because outputs are streamed, never loaded whole.
    """
    cmd = [sys.executable, "-m", "commutator_bounds", *argv, "--out", str(cwd / "out")]
    with open(cwd / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        killer = threading.Timer(max(budget.left(), 0.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")[-2000:]
    return Launch(wall, proc.returncode, usage.ru_maxrss, stderr)


@dataclass
class Tally:
    """Attempted and failed runs, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, run) -> bool:
        """Count one run; ``run()`` raises CheckError when it is wrong."""
        self.attempted += 1
        try:
            run()
        except CheckError as err:
            self.failures.append(f"{what}: {err}")
            return False
        return True


def checked_launch(
    wl: Workload, seed: int, size: int, env, work, budget, tally: Tally, digests: Determinism
) -> Launch:
    """Launch in a fresh directory, then check the exit code, output and digest."""
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        result = launch(wl.argv(seed, size), env, Path(tmp), budget)

        def check() -> None:
            if result.returncode != 0:
                raise CheckError(f"exit code {result.returncode}: {result.stderr.strip()[-300:]}")
            digest = read_checked(Path(tmp) / "out", wl.check, size)
            digests.check(f"{wl.name} size={size} seed={seed}", digest)

        tally.record(wl.name, check)
    return result


def summary(values: list[float]) -> dict:
    """Median, the samples in run order and the highest percentile with ten beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "values": values}
    if n >= 20:
        q = 1.0 - 10.0 / n
        out[f"p{100 * q:.0f}"] = ordered[min(n - 1, int(q * n))]
    return out


def run_end_to_end(wl: Workload, seed: int, seconds: float, env, work, budget, tally):
    digests = Determinism()

    def timed(w: Workload, size: int | None = None) -> Launch:
        size = w.size if size is None else size
        return checked_launch(w, seed, size, env, work, budget, tally, digests)

    # The first launches after a pause run slow (bytecode, page cache, clock
    # ramp), so a set-up launch and a short workload launch come first; they
    # are checked but not timed.
    timed(SETUP)
    timed(wl, max(1, wl.size // WARMUP_FRACTION))
    walls: list[float] = []
    rss: list[float] = []
    setups: list[float] = []
    start = time.perf_counter()
    while budget.left() > 0:
        result = timed(wl)
        walls.append(result.wall_s)
        rss.append(result.maxrss_kb / 1024.0)
        # Set-up launches alternate with the workload, so both see the same
        # machine over the window.
        setups.append(timed(SETUP).wall_s)
        elapsed = time.perf_counter() - start
        # Stop before a cycle that would end past the window.
        if len(walls) >= MIN_LAUNCHES and elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    while len(setups) < MIN_SETUPS and budget.left() > 0:
        setups.append(timed(SETUP).wall_s)
    samples = {
        "wall_s": walls,
        "items_per_s": [wl.size / w for w in walls],
        "setup_s": setups,
        "peak_rss_mb": rss,
    }
    return {k: summary(v) for k, v in samples.items()}, digests.digests


def environment(env: dict[str, str], work: Path, budget: Budget) -> dict:
    """What the numbers depend on, as seen by a ``cbounds`` child."""
    probe = (
        "import json, platform, numpy, scipy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'blas': blas.get('name'),"
        " 'blas_version': blas.get('version')}))\n"
    )
    try:
        out = subprocess.run(
            [sys.executable, "-c", probe], cwd=work, env=env, capture_output=True,
            text=True, timeout=max(budget.left(), 1.0), check=True,
        )
        info = json.loads(out.stdout)
    except (subprocess.SubprocessError, json.JSONDecodeError) as err:
        info = {"probe_error": str(err)[-300:]}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=5,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        **info,
        "blas_threads": BLAS_THREADS,
        "workers": WORKERS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "commutator_bounds" / "__init__.py").is_file():
        print(f"error: no commutator_bounds package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload]
    budget = Budget()
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    tally = Tally()
    try:
        env = child_env(work)
        if args.trace:
            import layers  # imports the program into this process

            values, detail = layers.run_traced(wl, args.seed, env, work, budget, tally)
            names = spec["per_layer"]
        else:
            stats, digests = run_end_to_end(wl, args.seed, args.seconds, env, work, budget, tally)
            values = {k: s["median"] for k, s in stats.items()}
            detail = {"stats": stats, "sha256": digests}
            names = spec["end_to_end"]
        detail.update(
            workload=wl.name, seed=args.seed, trace=args.trace,
            launches=tally.attempted, failures=tally.failures,
            environment=environment(env, work, budget),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
