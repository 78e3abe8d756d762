"""The benchmark's traced run still sees every layer the CLI calls.

perfbench measures per-layer cost by wrapping functions where ``cli`` (and
``averages.Moments``) look them up.  A refactor that routes a call around
those names leaves the benchmark reading 0 for that layer without failing,
so this runs ``cli.main`` in process under the benchmark's own wrappers and
checks that each layer records calls.  It only reads ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import spans

        yield layers, spans
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize(
    "argv, layer_names",
    [
        (
            ["mc-average", "--mub", "--dim", "4", "--samples", "131072"],
            ["parallel.map", "states.sample", "mub.sample_columns", "averages.moments",
             "averages.merge"],
        ),
        (
            ["compare", "--dim", "4", "--samples", "4096"],
            ["parallel.map", "states.sample", "bounds.batch_bounds", "bounds.violation_masks"],
        ),
        (
            ["verify-conjecture", "--dim", "3", "--trials", "2", "--restarts", "1",
             "--max-iters", "5"],
            ["optimizer.maximize_ratio", "optimizer.half_step", "optimizer.eigh",
             "optimizer.ratio", "linalg.weighted_norm_sq"],
        ),
    ],
    ids=["mc-mub", "compare", "verify-conjecture"],
)
def test_traced_run_sees_every_layer(tracing, argv, layer_names, tmp_path):
    from commutator_bounds import cli

    layers, spans = tracing
    tracer = spans.Tracer()
    argv = argv + [
        "--workers", "1", "--out", str(tmp_path / "out"),
        "--counterexample-dir", str(tmp_path / "counterexamples"),
    ]
    with spans.patched(tracer, layers.targets(True)) as missing:
        code = cli.main(argv)
    assert code == 0
    assert missing == []
    totals = spans.totals(tracer.spans)
    for name in layer_names:
        assert name in totals and totals[name].calls > 0, name
