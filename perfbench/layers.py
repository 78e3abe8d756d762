"""The traced run: per-layer metrics from spans around each module's calls.

The workload runs in this process through ``cli.main`` three times:

- bare, one worker: only ``cli.main`` and ``map_ordered`` are timed;
- traced, one worker: every call ``cli`` makes into a module, and the
  optimizer's half steps, eigensolver, ratio and norm calls, record spans;
- bare, two workers: ``map_ordered`` is timed at the benchmark's worker count.

With one worker every task runs in this process, so its spans are seen.
Layers the workload does not call are measured on a short traced run of each
other command (``Workload.probe_size``), so every metric is measured in
every traced run; the details line names the run each metric came from.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from checks import CheckError, Determinism, read_checked
from spans import LayerTotal, Target, Tracer, patched, totals
from workloads import WORKERS, WORKLOADS, Workload

IMPORT_REPEATS = 3
_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def _import_program(env: dict[str, str]):
    for name, value in env.items():
        if name.endswith("_NUM_THREADS"):
            os.environ[name] = value  # before numpy loads BLAS
    sys.path.insert(0, env["PYTHONPATH"])
    from commutator_bounds import cli

    return cli


def targets(full: bool) -> list[Target]:
    """Attributes to wrap: ``map_ordered`` only, or every layer boundary."""
    import scipy.linalg
    from commutator_bounds import averages, cli, optimizer

    out = [Target(cli, "map_ordered", "parallel.map", lambda fn, tasks, workers: len(tasks))]
    if not full:
        return out
    sample = lambda dim, count, rng: count  # noqa: E731
    return out + [
        Target(cli, "sample_hermitian_batch", "states.sample", sample),
        Target(cli, "sample_density_batch", "states.sample", sample),
        Target(cli, "sample_unit_vectors", "states.sample", sample),
        Target(cli, "batch_bounds", "bounds.batch_bounds", lambda a, b, rho: len(a)),
        Target(cli, "violation_masks", "bounds.violation_masks", lambda cols: len(cols["product"])),
        Target(cli, "mub_sample_columns", "mub.sample_columns", lambda phases, lams, a, b: len(a)),
        Target(averages.Moments, "of", "averages.moments", lambda values: len(values)),
        Target(cli, "merge_moments", "averages.merge", lambda parts: len(parts)),
        Target(cli, "maximize_ratio", "optimizer.maximize_ratio"),
        Target(getattr(optimizer, "_RatioProblem", None), "half_step", "optimizer.half_step"),
        Target(scipy.linalg, "eigh", "optimizer.eigh"),
        Target(optimizer, "ratio", "optimizer.ratio"),
        Target(optimizer, "weighted_norm_sq", "linalg.weighted_norm_sq"),
    ]


def _per_item(t: LayerTotal, scale: float) -> float:
    return t.total_s / t.items * scale if t.items else 0.0


def _per_half_step(layer: str):
    def metric(t: dict[str, LayerTotal]) -> float:
        steps = t["optimizer.eigh"].calls
        return t[layer].total_s / steps * 1e3 if steps else 0.0

    return metric


#: metric -> (span whose calls show the run exercised the layer, formula)
LAYER_METRICS = {
    "states.sample_us_per_item": ("states.sample", lambda t: _per_item(t["states.sample"], 1e6)),
    "bounds.batch_bounds_us_per_triple": (
        "bounds.batch_bounds", lambda t: _per_item(t["bounds.batch_bounds"], 1e6)),
    "bounds.violation_masks_us_per_triple": (
        "bounds.violation_masks", lambda t: _per_item(t["bounds.violation_masks"], 1e6)),
    "mub.sample_columns_ns_per_sample": (
        "mub.sample_columns", lambda t: _per_item(t["mub.sample_columns"], 1e9)),
    "averages.moments_ns_per_sample": (
        "averages.moments", lambda t: _per_item(t["averages.moments"], 1e9)),
    "averages.merge_s": ("averages.merge", lambda t: t["averages.merge"].total_s),
    "optimizer.half_steps": ("optimizer.eigh", lambda t: t["optimizer.eigh"].calls),
    "optimizer.ms_per_half_step": ("optimizer.eigh", _per_half_step("optimizer.half_step")),
    "optimizer.eigh_ms_per_half_step": ("optimizer.eigh", _per_half_step("optimizer.eigh")),
    "optimizer.ratio_calls": ("optimizer.ratio", lambda t: t["optimizer.ratio"].calls),
    "optimizer.ratio_s": ("optimizer.ratio", lambda t: t["optimizer.ratio"].total_s),
    "linalg.weighted_norm_sq_s": (
        "linalg.weighted_norm_sq", lambda t: t["linalg.weighted_norm_sq"].total_s),
}


class _Totals(dict):
    def __missing__(self, key: str) -> LayerTotal:
        return LayerTotal()


def layer_metrics(runs: list[tuple[str, dict[str, LayerTotal]]]) -> tuple[dict, dict]:
    """Each layer metric from the first run that called the layer.

    ``runs`` is (label, per-span totals), the workload's own run first.
    Returns the values and, per metric, the label of the run it came from.
    """
    values, source = {}, {}
    for metric, (span, formula) in LAYER_METRICS.items():
        label, t = next(
            ((label, t) for label, t in runs if t.get(span, LayerTotal()).calls),
            (None, {}),
        )
        values[metric] = formula(_Totals(t))
        source[metric] = label
    return values, source


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Seconds to import ``commutator_bounds``, and the part spent in scipy.

    ``-X importtime`` prints a module when its import ends, indented one
    step deeper than the module that imported it, so a module's parent is
    the next line that is indented less.  The scipy part sums the cumulative
    time of each scipy module imported from outside scipy.
    """
    package = 0.0
    scipy_part = 0.0
    stack: list[tuple[int, str]] = []  # (indent, name) of later, shallower lines
    for _, cumulative, indent, name in reversed(_IMPORT_LINE.findall(stderr)):
        depth = len(indent)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name == "commutator_bounds":
            package = int(cumulative) * 1e-6
        elif _is_scipy(name) and not _is_scipy(parent):
            scipy_part += int(cumulative) * 1e-6
        stack.append((depth, name))
    return package, scipy_part


def import_times(env: dict[str, str], work: Path, budget, tally) -> tuple[float, float]:
    """Median of ``parse_importtime`` over fresh interpreters."""
    package, scipy_part = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import commutator_bounds"],
            cwd=work, env=env, capture_output=True, text=True, timeout=max(budget.left(), 1.0),
        )
        total, scipy_s = parse_importtime(proc.stderr)

        def check() -> None:
            if proc.returncode != 0 or total <= 0.0:
                raise CheckError(f"import failed: {proc.stderr.strip()[-300:]}")

        if tally.record("import", check):
            package.append(total)
            scipy_part.append(scipy_s)
    if not package:
        return 0.0, 0.0
    return statistics.median(package), statistics.median(scipy_part)


@dataclass
class Pass:
    """One in-process run of a command."""

    wall: float
    totals: dict[str, LayerTotal]
    bytes: int
    missing: list[str]


def run_metrics(bare: Pass, traced: Pass, parallel: Pass, imports: tuple[float, float]) -> dict:
    """Metrics of the workload's own runs: output, parallel map, set-up, tracing cost."""
    serial_map = bare.totals["parallel.map"].total_s
    parallel_map = parallel.totals["parallel.map"].total_s
    return {
        "cli.write_s": traced.totals["cli.main"].self_s,
        "cli.output_bytes": traced.bytes,
        "parallel.map_s": parallel_map,
        "parallel.tasks": traced.totals["parallel.map"].items,
        "parallel.efficiency": serial_map / (WORKERS * parallel_map) if parallel_map else 0.0,
        "setup.import_s": imports[0],
        "setup.import_scipy_s": imports[1],
        "trace.overhead_ratio": traced.wall / bare.wall,
    }


def run_traced(wl: Workload, seed: int, env: dict[str, str], work: Path, budget, tally):
    imports = import_times(env, work, budget, tally)
    cli = _import_program(env)
    digests = Determinism()

    def one(w: Workload, size: int, workers: int, full: bool) -> Pass:
        out = work / "traced.out"
        argv = w.argv(seed, size, workers) + [
            "--out", str(out), "--counterexample-dir", str(work / "counterexamples"),
        ]
        tracer = Tracer()
        with patched(tracer, targets(full)) as missing:
            start = time.perf_counter()
            try:
                code = tracer.wrap("cli.main", cli.main)(argv)
            except Exception:  # a crash is a failed run, not a crashed benchmark
                code = traceback.format_exc(limit=3)
            wall = time.perf_counter() - start
        size_bytes = out.stat().st_size if out.exists() else 0

        def check() -> None:
            if code != 0:
                raise CheckError(f"cli.main returned {code}")
            digest = read_checked(out, w.check, size)
            # Same seed and size must give the same bytes at any worker count.
            digests.check(f"{w.name} size={size} seed={seed}", digest)

        tally.record(f"{w.name} traced={full} workers={workers}", check)
        out.unlink(missing_ok=True)
        return Pass(wall, _Totals(totals(tracer.spans)), size_bytes, missing)

    bare = one(wl, wl.size, 1, False)
    traced = one(wl, wl.size, 1, True)
    parallel = one(wl, wl.size, WORKERS, False)
    probes = [
        (w.name, one(w, w.probe_size, 1, True).totals)
        for w in WORKLOADS.values()
        if w.probe_size and w.command[0] != wl.command[0]
    ]
    values, source = layer_metrics([(wl.name, traced.totals), *probes])
    values.update(run_metrics(bare, traced, parallel, imports))
    detail = {
        "layer_source": source,
        "walls_s": {"bare": bare.wall, "traced": traced.wall, "parallel": parallel.wall},
        "spans": {name: vars(t) for name, t in sorted(traced.totals.items())},
        "unwrapped": traced.missing,
        "sha256": digests.digests,
    }
    return values, detail
