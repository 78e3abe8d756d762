"""Command-line frontend: comparisons, figure data, Monte Carlo averages, campaigns.

Every command is byte-reproducible for a fixed seed: all randomness flows
through counter-based streams keyed on (seed, command, task index), so the
worker count changes scheduling but never values.  Data goes to the output
stream (stdout by default), diagnostics to stderr; ``CB_LOG`` sets the
diagnostic level.

Exit codes: 0 success; 1 hard-inequality violation or non-converged trials;
2 usage error; 3 conjectured-inequality violation recorded; 4 I/O error;
5 counterexample file written.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from contextlib import nullcontext, suppress
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from ._parallel import Stream, map_ordered, task_rng
from .averages import (
    FIG1_HEADER,
    MC_BATCH,
    MIN_QUBIT_SAMPLES,
    Moments,
    averaged_bounds_qubit,
    chunk_moments,
    chunk_plan,
    fig1_rows,
    merge_moments,
    qubit_bound_samples,
)
from .bounds import BOUND_NAMES, HARD_BOUND_NAMES, batch_bounds, violation_masks
from .mub import (
    FIG2_HEADER,
    MIN_MUB_SAMPLES,
    MUB_COLUMN_NAMES,
    fig2_rows,
    fourier_phases,
    mub_b2_average,
    mub_column_averages,
    mub_sample_columns,
)
from .optimizer import matrix_to_pairs, maximize_ratio, result_record
from .states import (
    checked_spectrum,
    sample_density,
    sample_density_batch,
    sample_hermitian_batch,
    sample_unit_vectors,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CONJECTURE = 3
EXIT_IO = 4
EXIT_COUNTEREXAMPLE = 5

_BATCH = 4096
# verify-conjecture's defaults are the optimizer's, read before anything can rebind the name
_OPT_DEFAULTS = maximize_ratio.__kwdefaults__


def _output(path: str):
    """The stream for --out, as a context manager: stdout when the path is '-'."""
    if path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_rows(out, rows, fmt: str, keys=()) -> None:
    """Write dict rows as sorted-key JSON lines, or as CSV under a ``keys`` header.

    CSV cells hold floats as their shortest round-trip decimal (``float.__repr__``,
    also for numpy floats), other values as ``str``, and a missing key as nothing.
    """
    if fmt == "json":
        for row in rows:
            out.write(json.dumps(row, sort_keys=True) + "\n")
        return
    out.write(",".join(keys) + "\n")
    for row in rows:
        cells = (row.get(key, "") for key in keys)
        out.write(",".join(float.__repr__(v) if isinstance(v, float) else str(v) for v in cells))
        out.write("\n")


# ---------------------------------------------------------------------------
# compare


# One compare line, its keys in the sorted order of json.dumps(record, sort_keys=True).
# %r of a Python float is float.__repr__, which json writes for every finite float, and
# batch_bounds raises before a non-finite column gets here.
_COMPARE_LINE = (
    '{"bound1": %r, "bound2": %r, "dim": %d, "index": %d, "luo_park": %r, '
    '"pass_bound1": %s, "pass_bound2": %s, "pass_luo_park": %s, "pass_robertson": %s, '
    '"pass_schrodinger": %s, "product": %r, "purity": %r, "robertson": %r, "schrodinger": %r}\n'
)
_PASS = ("true", "false")  # the JSON pass flag, indexed by the violation mask
# Lines per piece of text.  Each piece is built from its own slice of the columns, so
# no object the formatting makes outlives a piece.  Against the former serial writer,
# one string per batch of 4096 lines raised the peak RSS of `compare --dim 4 --samples
# 50000 --workers 2` by 8 %, pieces of 256 lines by under 1 % (2 cores, 1 BLAS thread).
_PIECE = 256


def _compare_lines(dim: int, start: int, cols: dict, masks: dict) -> list[str]:
    """The JSON lines of one batch, row ``i`` having index ``start + i``, in pieces."""
    pieces = []
    for lo in range(0, len(cols["product"]), _PIECE):
        part = slice(lo, lo + _PIECE)
        v = {name: cols[name][part].tolist() for name in ("purity", "product", *BOUND_NAMES)}
        p = {name: map(_PASS.__getitem__, masks[name][part].tolist()) for name in BOUND_NAMES}
        index = range(start + lo, start + lo + len(v["product"]))
        rows = zip(
            v["bound1"], v["bound2"], repeat(dim), index, v["luo_park"],
            p["bound1"], p["bound2"], p["luo_park"], p["robertson"], p["schrodinger"],
            v["product"], v["purity"], v["robertson"], v["schrodinger"],
        )
        pieces.append("".join([_COMPARE_LINE % row for row in rows]))
    return pieces


def _compare_task(seed: int, dim: int, chunk: tuple[int, int]):
    """One batch of compare: its output lines in pieces, its count of hard-inequality
    violations and the counterexample payloads of its ``bound2`` violations."""
    batch_index, count = chunk
    start = batch_index * _BATCH
    rng = task_rng(seed, Stream.COMPARE, dim, batch_index)
    a = sample_hermitian_batch(dim, count, rng)
    b = sample_hermitian_batch(dim, count, rng)
    # A and B are unitarily invariant and independent of rho = V diag(lam) V^dag, so
    # (lam, V^dag A V, V^dag B V) has the law of (lam, A, B): the triples are read in
    # the state's eigenbasis as drawn, and only the spectrum is needed.
    lam = np.linalg.eigvalsh(sample_density_batch(dim, count, rng))
    cols = batch_bounds(a, b, lam)
    masks = violation_masks(cols)
    counterexamples = []
    for i in np.nonzero(masks["bound2"])[0]:
        counterexamples.append(
            {
                "index": int(start + i),
                "dim": int(dim),
                "spectrum": lam[i].tolist(),
                "a": matrix_to_pairs(a[i]),
                "b": matrix_to_pairs(b[i]),
                "rho": matrix_to_pairs(np.diag(lam[i])),
                "product": float(cols["product"][i]),
                "bound2": float(cols["bound2"][i]),
            }
        )
    hard = int(sum(masks[name].sum() for name in HARD_BOUND_NAMES))
    return _compare_lines(dim, start, cols, masks), hard, counterexamples


def _cmd_compare(args) -> int:
    task = partial(_compare_task, args.seed, args.dim)
    hard_violations = 0
    conjecture_violations = 0
    with _output(args.out) as out:
        for lines, hard, counterexamples in map_ordered(
            task, chunk_plan(args.samples, _BATCH), args.workers
        ):
            out.writelines(lines)
            hard_violations += hard
            conjecture_violations += len(counterexamples)
            for payload in counterexamples:
                path = _write_counterexample(args, "compare", payload)
                logger.warning("conjectured inequality violated; wrote %s", path)
    if conjecture_violations:
        return EXIT_CONJECTURE
    if hard_violations:
        return EXIT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# figure tables


def _cmd_figure(header: str, table, args) -> int:
    """A figure table: ``table(points)`` under its CSV ``header``."""
    keys = header.split(",")
    rows = (dict(zip(keys, row)) for row in table(args.points).tolist())
    with _output(args.out) as out:
        _write_rows(out, rows, "csv", keys)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Monte Carlo averages


def _mub_samples(lams: np.ndarray, count: int, rng) -> np.ndarray:
    """mub.mub_samples, line for line."""
    d = lams.shape[0]
    a = sample_unit_vectors(d, count, rng)
    b = sample_unit_vectors(d, count, rng)
    return mub_sample_columns(fourier_phases(d), lams, a, b)


def _mc_moments(sample, tag: Stream, args) -> Moments:
    """averages.seeded_moments, its batches mapped over the workers.  This and _mub_samples
    repeat the library through this module's names, which perfbench's traced run wraps
    (map_ordered, merge_moments, sample_unit_vectors, mub_sample_columns; ROADMAP item 16)."""
    per_batch = partial(chunk_moments, sample, args.seed, tag)
    chunks = chunk_plan(args.samples, MC_BATCH)
    return merge_moments(list(map_ordered(per_batch, chunks, args.workers)))


_ESTIMATE_KEYS = ("name", "mean", "std_error", "samples", "target", "z")


def _estimate_rows(names, targets, moments) -> list[dict]:
    values = (
        (name, est.mean, est.std_error, est.samples, float(t), est.z_score(float(t)))
        for name, t, est in zip(names, targets, moments.estimates())
    )
    return [dict(zip(_ESTIMATE_KEYS, row)) for row in values]


def _parse_spectrum(text: str | None, dim: int) -> np.ndarray:
    """The ``--spectrum`` values, or the uniform spectrum when absent, as given, for readers
    that each divide them by their sum once in ``checked_spectrum`` as the library does;
    ValueError naming the flag unless that call passes them."""
    try:
        values = np.full(dim, 1.0 / dim) if text is None else [float(t) for t in text.split(",")]
        checked_spectrum(values, dim)
    except ValueError as err:
        raise ValueError(f"--spectrum: {err}") from err
    return np.asarray(values)


def _cmd_mc_average(args) -> int:
    if args.mub:
        if args.samples < MIN_MUB_SAMPLES:
            raise ValueError(f"--mub averaging needs --samples >= {MIN_MUB_SAMPLES}")
        lams = _parse_spectrum(args.spectrum, args.dim)
        samples = partial(_mub_samples, checked_spectrum(lams))
        moments = _mc_moments(samples, Stream.MC_MUB, args)
        names = MUB_COLUMN_NAMES
        targets = mub_column_averages(lams)
    else:
        if args.dim != 2 or args.spectrum is not None:
            raise ValueError("--dim and --spectrum need --mub; the --purity average is over qubits")
        moments = _mc_moments(partial(qubit_bound_samples, args.purity), Stream.MC_PURITY, args)
        names = BOUND_NAMES
        targets = averaged_bounds_qubit(args.purity).as_array()
    with _output(args.out) as out:
        _write_rows(out, _estimate_rows(names, targets, moments), args.format, _ESTIMATE_KEYS)
    return EXIT_OK


# ---------------------------------------------------------------------------
# mutually unbiased averages in closed form (their Monte Carlo check is mc-average --mub)


def _cmd_mub_average(args) -> int:
    lams = _parse_spectrum(args.spectrum, args.dim)
    comm_norm, luo_park = mub_column_averages(lams)[:2]
    # both vanish exactly: rho commutes with A, and B's diagonal in A's eigenbasis is constant
    rows = [
        {"name": "luo_park_mub_avg", "value": luo_park},
        {"name": "bound2_mub_avg", "value": mub_b2_average(lams)},
        {"name": "comm_norm_avg", "value": comm_norm},
        {"name": "robertson_mub", "value": 0.0},
        {"name": "schrodinger_mub", "value": 0.0},
    ]
    # the estimate columns stay in the CSV header, always empty, so readers of its layout still work
    keys = ("name", "value") + _ESTIMATE_KEYS[1:]
    with _output(args.out) as out:
        _write_rows(out, rows, args.format, keys)
    return EXIT_OK


# ---------------------------------------------------------------------------
# conjecture campaign


def _conjecture_task(seed: int, dim: int, trial: int, **options) -> dict:
    """One trial: ``maximize_ratio(..., **options)`` on a random Dirichlet spectrum."""
    rho = sample_density(dim, "flat-simplex", task_rng(seed, Stream.CONJECTURE, dim, trial, 0))
    opt_rng = task_rng(seed, Stream.CONJECTURE, dim, trial, 1)
    result = maximize_ratio(rho, rng=opt_rng, **options)
    record = result_record(result)
    record["trial"] = trial
    return record


def _write_counterexample(args, kind: str, payload: dict) -> Path:
    """Write ``payload`` to a new ``{kind}_d{dim}_s{seed}_{index or trial}.json`` in
    ``--counterexample-dir``, or else to the first free ``..._1.json``, ``..._2.json``, ..."""
    directory = Path(args.counterexample_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{kind}_d{payload['dim']}_s{args.seed}_{payload.get('trial', payload.get('index'))}"
    path, copies = directory / f"{stem}.json", 0
    # mode "x" never writes over a recorded file: a taken name raises, and the next is tried
    while True:
        with suppress(FileExistsError), path.open("x", encoding="utf-8") as out:
            out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
            return path
        copies += 1
        path = directory / f"{stem}_{copies}.json"


def _cmd_verify_conjecture(args) -> int:
    if args.no_witness_seed and args.restarts < 1:
        raise ValueError("--no-witness-seed needs --restarts >= 1")
    task = partial(
        _conjecture_task,
        args.seed,
        args.dim,
        restarts=args.restarts,
        max_iters=args.max_iters,
        tol=args.tol,
        mode=args.mode,
        seed_witness=not args.no_witness_seed,
    )
    records = map_ordered(task, range(args.trials), args.workers)

    counterexamples = 0
    non_converged = []
    max_deviation = 0.0
    with _output(args.out) as out:
        for record in records:
            _write_rows(out, (record,), "json")
            max_deviation = max(max_deviation, record["relative_deviation"])
            if not record["converged"]:
                non_converged.append(record["trial"])
            if record["exceeds_conjecture"]:
                counterexamples += 1
                path = _write_counterexample(args, "conjecture", record)
                logger.warning("conjectured constant exceeded; wrote %s", path)
        summary = {
            "summary": True,
            "dim": args.dim,
            "mode": args.mode,
            "trials": args.trials,
            "max_relative_deviation": max_deviation,
            "all_converged": not non_converged,
            "non_converged_trials": non_converged,
            "counterexamples": counterexamples,
        }
        _write_rows(out, (summary,), "json")
    if counterexamples:
        return EXIT_COUNTEREXAMPLE
    if non_converged:
        return EXIT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _checked(convert, accept, rule: str):
    """An argparse ``type``: ``convert`` the text, then reject it as "must be ``rule``"
    unless ``accept(value)``."""

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" names the type
    return parse


def _count(low: int, high: float = math.inf):
    """An integer ``type`` accepting ``low`` through ``high``."""
    rule = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
    return _checked(int, lambda n: low <= n <= high, rule)


_SPECTRUM_HELP = (
    "--dim comma-separated values forming a state spectrum, divided by their sum"
    " (default uniform)"
)
_SAMPLES_HELP = f"integer >= {MIN_QUBIT_SAMPLES} ({MIN_MUB_SAMPLES} with --mub)"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=_count(0), default=42, help="base RNG seed, integer >= 0 (default 42)"
    )
    common.add_argument(
        "--workers",
        type=_count(1),
        default=os.cpu_count() or 1,
        help="worker processes, integer >= 1 (default: available parallelism)",
    )
    common.add_argument("--out", default="-", help="output path (default stdout)")
    common.add_argument(
        "--counterexample-dir",
        default="counterexamples",
        help="directory for counterexample artifacts",
    )
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("csv", "json"), default="json", help="report format")

    parser = argparse.ArgumentParser(
        prog="cbounds",
        description="Variance-product uncertainty bounds from state-weighted commutator norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", parents=[common], help="bound comparison over random triples")
    p.add_argument("--dim", type=_count(2), required=True, help="integer >= 2")
    p.add_argument("--samples", type=_count(1), required=True, help="integer >= 1")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fig1", parents=[common], help="averaged qubit bounds vs purity (CSV)")
    p.add_argument("--points", type=_count(2), required=True, help="integer >= 2")
    p.set_defaults(func=partial(_cmd_figure, FIG1_HEADER, fig1_rows))

    p = sub.add_parser("fig2", parents=[common], help="unbiased-pair averages vs purity (CSV)")
    p.add_argument("--points", type=_count(2), required=True, help="integer >= 2")
    p.set_defaults(func=partial(_cmd_figure, FIG2_HEADER, fig2_rows))

    p = sub.add_parser("mc-average", parents=[common, report], help="Monte Carlo averaged bounds")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--purity",
        type=_checked(float, lambda x: 0.5 <= x <= 1.0, "in [0.5, 1]"),
        help="float in [0.5, 1]",
    )
    mode.add_argument("--mub", action="store_true", help="average a mutually unbiased pair instead")
    p.add_argument("--dim", type=_count(2), default=2, help="integer >= 2 (default 2)")
    p.add_argument("--spectrum", default=None, help=_SPECTRUM_HELP)
    p.add_argument(
        "--samples", type=_count(MIN_QUBIT_SAMPLES), required=True, help=_SAMPLES_HELP
    )
    p.set_defaults(func=_cmd_mc_average)

    p = sub.add_parser(
        "verify-conjecture", parents=[common], help="maximize the commutator ratio per state"
    )
    p.add_argument("--dim", type=_count(2, 15), required=True, help="integer in [2, 15]")
    p.add_argument("--trials", type=_count(1), default=20, help="integer >= 1 (default 20)")
    for flag, low, key in (("--restarts", 0, "restarts"), ("--max-iters", 1, "max_iters")):
        help_text = f"integer >= {low} (default {_OPT_DEFAULTS[key]})"
        p.add_argument(flag, type=_count(low), default=_OPT_DEFAULTS[key], help=help_text)
    p.add_argument(
        "--tol",
        type=_checked(float, lambda x: 0.0 <= x < math.inf, "finite and >= 0"),
        default=_OPT_DEFAULTS["tol"],
        help=f"finite float >= 0 (default {_OPT_DEFAULTS['tol']})",
    )
    p.add_argument(
        "--mode",
        choices=("hermitian", "complex"),
        default=_OPT_DEFAULTS["mode"],
        help=f"search Hermitian pairs or all complex pairs (default {_OPT_DEFAULTS['mode']})",
    )
    p.add_argument(
        "--no-witness-seed",
        action="store_true",
        help="rely on random starts only (independent check of attainability)",
    )
    p.set_defaults(func=_cmd_verify_conjecture)

    p = sub.add_parser(
        "mub-average", parents=[common, report], help="mutually unbiased closed-form averages"
    )
    p.add_argument("--dim", type=_count(2), required=True, help="integer >= 2")
    p.add_argument("--spectrum", default=None, help=_SPECTRUM_HELP)
    p.set_defaults(func=_cmd_mub_average)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("CB_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())
