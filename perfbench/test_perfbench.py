"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``.

They need neither the program nor numpy: outputs and spans are synthetic.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import layers
import run
from checks import (
    CheckError, Determinism, check_compare, check_mc_mub, check_verify, read_checked,
)
from spans import Span, Target, Tracer, patched, self_times, totals
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _lines(text: str) -> list[str]:
    return text.splitlines(keepends=True)


def _compare_text(n: int, dim: int = 4) -> str:
    lines = []
    for i in range(n):
        record = {"dim": dim, "index": i, "product": 1.0, "purity": 0.5}
        for name in ("robertson", "schrodinger", "luo_park", "bound1", "bound2"):
            record[name] = 0.5
            record[f"pass_{name}"] = True
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


# -- names ------------------------------------------------------------------


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_names_match_spec(monkeypatch, tmp_path):
    """Runs the end-to-end loop on a fake program and compares the metric names."""
    def verify_output(trials: int) -> str:
        summary = {"summary": True, "trials": trials, "all_converged": True,
                   "counterexamples": 0, "max_relative_deviation": 0.0}
        rows = [{"trial": i} for i in range(trials)] + [summary]
        return "".join(json.dumps(row) + "\n" for row in rows)

    def fake_launch(argv, env, cwd, budget):
        if argv[0] == "fig1":
            text = "purity,robertson\n0.5,0.0\n1.0,0.25\n"
        else:
            text = verify_output(int(argv[argv.index("--trials") + 1]))
        (cwd / "out").write_text(text)
        return run.Launch(0.01, 0, 50_000, "")

    monkeypatch.setattr(run, "launch", fake_launch)
    tally = run.Tally()
    stats, _ = run.run_end_to_end(WORKLOADS["verify-d8"], 1, 0.0, {}, tmp_path, run.Budget(), tally)
    assert tally.failures == [] and tally.attempted == 2 + 2 * run.MIN_LAUNCHES + 2
    assert sorted(m["name"] for m in SPEC["end_to_end"]) == sorted(stats)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_per_layer_names_match_spec():
    empty = layers.Pass(1.0, layers._Totals(), 0, [])
    values, _ = layers.layer_metrics([("w", {})])
    values.update(layers.run_metrics(empty, empty, empty, (0.5, 0.25)))
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(values)


# -- checkers ---------------------------------------------------------------


def test_compare_accepts_good_output():
    check_compare(_lines(_compare_text(5)), 4, 5)


def test_compare_rejects_truncated_file(tmp_path):
    text = _compare_text(5)
    with pytest.raises(CheckError, match="newline"):
        check_compare(_lines(text[:-40]), 4, 5)
    with pytest.raises(CheckError, match="expected 5 lines"):
        check_compare(_lines(text.rsplit("\n", 2)[0] + "\n"), 4, 5)
    path = tmp_path / "out"
    path.write_text(text[:-40])
    with pytest.raises(CheckError):
        read_checked(path, lambda lines, n: check_compare(lines, 4, n), 5)


def test_compare_rejects_flipped_pass_flag():
    text = _compare_text(5).replace('"pass_bound2": true', '"pass_bound2": false', 1)
    with pytest.raises(CheckError, match="pass_bound2"):
        check_compare(_lines(text), 4, 5)


def test_changed_byte_is_flagged_for_the_same_seed(tmp_path):
    check = lambda lines, n: check_compare(lines, 4, n)  # noqa: E731
    text = _compare_text(5)
    digests = []
    for i, body in enumerate([text, text, text.replace('"product": 1.0', '"product": 1.5', 1)]):
        path = tmp_path / f"out{i}"
        path.write_text(body)
        digests.append(read_checked(path, check, 5))  # the changed file still parses
    determinism = Determinism()
    determinism.check("seed=1", digests[0])
    determinism.check("seed=1", digests[1])
    determinism.check("seed=2", digests[2])  # another seed may differ
    with pytest.raises(CheckError, match="sha256"):
        determinism.check("seed=1", digests[2])


def test_verify_rejects_non_converged_summary():
    rows = [json.dumps({"trial": i}) for i in range(2)]
    summary = {"summary": True, "trials": 2, "all_converged": True, "counterexamples": 0,
               "max_relative_deviation": 1e-12, "non_converged_trials": []}
    check_verify(_lines("\n".join(rows + [json.dumps(summary)]) + "\n"), 2)
    summary["all_converged"] = False
    with pytest.raises(CheckError):
        check_verify(_lines("\n".join(rows + [json.dumps(summary)]) + "\n"), 2)


def test_mc_mub_rejects_large_z():
    names = ("comm_norm", "lp_term", "lp_factor_a", "lp_factor_b")
    rows = [{"name": n, "samples": 10, "z": 0.5} for n in names]
    check_mc_mub([json.dumps(r) + "\n" for r in rows], 10)
    rows[2]["z"] = -7.0
    with pytest.raises(CheckError):
        check_mc_mub([json.dumps(r) + "\n" for r in rows], 10)


# -- spans ------------------------------------------------------------------


def test_self_time_on_synthetic_tree():
    spans = [
        Span("main", 0.0, 10.0, -1, 1),
        Span("map", 1.0, 7.0, 0, 4),
        Span("task", 1.5, 3.0, 1, 1),
        Span("task", 3.0, 6.0, 1, 1),
        Span("merge", 8.0, 9.0, 0, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 3.0, 1.0])
    t = totals(spans)
    assert t["task"].calls == 2 and t["task"].total_s == pytest.approx(4.5)
    assert t["map"].items == 4


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 4.0, -1, 1), Span("a", 1.0, 3.0, 0, 1), Span("b", 2.0, 5.0, 0, 1)]
    assert self_times(spans)[0] == pytest.approx(1.0)


class _Owner:
    @classmethod
    def make(cls, n):
        return cls, n

    def step(self, x):
        return x + 1


def test_patched_wraps_and_restores():
    import types

    module = types.SimpleNamespace(fn=lambda x: x * 2)
    raw = (module.fn, _Owner.__dict__["make"], _Owner.__dict__["step"])
    tracer = Tracer()
    targets = [
        Target(module, "fn", "mod.fn"),
        Target(_Owner, "make", "owner.make", lambda n: n),
        Target(_Owner, "step", "owner.step"),
        Target(None, "gone", "missing.layer"),
    ]
    with patched(tracer, targets) as missing:
        assert module.fn(3) == 6
        assert _Owner.make(5) == (_Owner, 5)
        assert _Owner().step(1) == 2
    assert missing == ["missing.layer"]
    assert (module.fn, _Owner.__dict__["make"], _Owner.__dict__["step"]) == raw
    assert [s.name for s in tracer.spans] == ["mod.fn", "owner.make", "owner.step"]
    assert tracer.spans[1].items == 5


def test_layer_metrics_fall_back_to_first_run_that_called_the_layer():
    main = totals([Span("bounds.batch_bounds", 0.0, 2.0, -1, 1000)])
    probe = totals([Span("optimizer.eigh", 0.0, 0.004, -1, 1)] * 2)
    values, source = layers.layer_metrics([("main", main), ("probe", probe)])
    assert values["bounds.batch_bounds_us_per_triple"] == pytest.approx(2000.0)
    assert values["optimizer.half_steps"] == 2
    assert source["optimizer.half_steps"] == "probe"
    assert source["bounds.batch_bounds_us_per_triple"] == "main"


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy",
        "import time:       200 |        500 |         scipy.linalg",
        "import time:       300 |       1000 |     scipy.optimize",
        "import time:        50 |         50 |     numpy",
        "import time:        10 |       1200 |   commutator_bounds.averages",
        "import time:         5 |       1300 | commutator_bounds",
    ])
    assert layers.parse_importtime(stderr) == pytest.approx((1300e-6, 1000e-6))
