"""The benchmark's workloads: one ``cbounds`` command each, at a pinned size.

Why each exists, and which layers it stresses, is written down in
``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from checks import check_compare, check_fig1, check_mc_mub, check_verify

#: Worker processes for every run.  Matches the two cores the figures in
#: README.md were taken on; with one BLAS thread each, no run has more
#: threads than cores.
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # subcommand and its fixed flags
    size_flag: str  # flag that sets the amount of work
    size: int  # items of work per run: triples, trials or samples
    check: Callable[[Iterable[str], int], None]  # (output lines, size) -> raises CheckError
    probe_size: int | None = None  # small size for the traced run of other workloads

    def argv(self, seed: int, size: int | None = None, workers: int = WORKERS) -> list[str]:
        return [
            *self.command,
            self.size_flag,
            str(self.size if size is None else size),
            "--seed",
            str(seed),
            "--workers",
            str(workers),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare-d4",
            ("compare", "--dim", "4"),
            "--samples",
            50_000,
            lambda lines, n: check_compare(lines, 4, n),
            probe_size=4096,
        ),
        Workload(
            "compare-d16",
            ("compare", "--dim", "16"),
            "--samples",
            8192,  # two batches of 4096, one per worker
            lambda lines, n: check_compare(lines, 16, n),
        ),
        Workload(
            "verify-d8",
            ("verify-conjecture", "--dim", "8", "--restarts", "8", "--max-iters", "20"),
            "--trials",
            12,
            check_verify,
            probe_size=1,
        ),
        Workload(
            "mc-mub-d4",
            ("mc-average", "--mub", "--dim", "4"),
            "--samples",
            2_000_000,
            check_mc_mub,
            probe_size=1 << 17,
        ),
    )
}

#: A run that does no work: its wall time is the set-up every command pays.
SETUP = Workload("setup", ("fig1",), "--points", 2, check_fig1)
