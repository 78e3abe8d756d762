"""Acceptance gate: every release criterion at full scale, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines
as they are produced (pytest -v alone shows one line per criterion anyway).
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from commutator_bounds import (
    DensityMatrix,
    averaged_bounds_qubit,
    batch_bounds,
    commutator,
    crossover_purities,
    conjectured_constant,
    equality_witness,
    fourier_mub_pair,
    maximize_ratio,
    mc_mub_average,
    monte_carlo_qubit_average,
    mub_b2_average,
    mub_commutator_norm_average,
    mub_lp_average,
    mub_vanishing_check,
    qubit_commutator_norm_identity,
    qubit_spectrum_from_purity,
    ratio,
    sample_density_batch,
    sample_hermitian_batch,
    sample_unit_vectors,
    sample_unitary,
    sphere_moment_check,
    violation_masks,
    weighted_norm_sq,
    Observable,
)
from commutator_bounds._parallel import task_rng

SEED = 987654321


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_hard_inequality_suite(tmp_path):
    started = time.time()
    samples_per_dim = 100_000
    chunk = 20_000
    worst = 0.0
    violations = 0
    conjecture_violations = 0
    for dim in range(2, 9):
        rng = task_rng(SEED, 1, dim)
        done = 0
        while done < samples_per_dim:
            n = min(chunk, samples_per_dim - done)
            a = sample_hermitian_batch(dim, n, rng)
            b = sample_hermitian_batch(dim, n, rng)
            rho = sample_density_batch(dim, n, rng)
            cols = batch_bounds(a, b, rho)
            masks = violation_masks(cols)
            for name in ("robertson", "schrodinger", "luo_park", "bound1"):
                violations += int(masks[name].sum())
                deficit = np.max(
                    (cols[name] - cols["product"]) / np.maximum(1.0, cols[name])
                )
                worst = max(worst, float(deficit))
            # the conjectured inequality is tracked on the same corpus; any
            # violation is serialized, never silently accepted
            for i in np.nonzero(masks["bound2"])[0]:
                conjecture_violations += 1
                artifact = tmp_path / f"counterexample_d{dim}_{done + i}.json"
                artifact.write_text(
                    repr(
                        {
                            "dim": dim,
                            "a": a[i].tolist(),
                            "b": b[i].tolist(),
                            "rho": rho[i].tolist(),
                            "spectrum": np.sort(np.linalg.eigvalsh(rho[i])).tolist(),
                        }
                    )
                )
                print(f"conjectured-inequality violation serialized to {artifact}")
            done += n
    elapsed = time.time() - started
    _report(
        1,
        "hard-inequality suite",
        violations == 0 and conjecture_violations == 0,
        f"7x10^5 triples, worst relative excess {worst:.2e}, "
        f"conjecture violations {conjecture_violations}, {elapsed:.0f}s",
    )


def test_criterion_2_conjecture_reproduction():
    started = time.time()
    worst = 0.0
    failed = []
    for dim in range(2, 9):
        for trial in range(20):
            rng = task_rng(SEED, 2, dim, trial)
            lam = np.sort(rng.dirichlet(np.ones(dim)))
            rho = DensityMatrix.from_spectrum(lam)
            result = maximize_ratio(rho, restarts=2, rng=rng)
            worst = max(worst, result.relative_deviation)
            if result.relative_deviation > 1e-5:
                failed.append((dim, trial, result.relative_deviation))
    elapsed = time.time() - started
    _report(
        2,
        "conjectured constant reproduced by optimization",
        not failed,
        f"140 spectra (d=2..8), worst |achieved/conjectured - 1| = {worst:.2e}, {elapsed:.0f}s",
    )


def test_criterion_3_witness_exactness():
    rng = task_rng(SEED, 3)
    worst = 0.0
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(2, 11))
        lam = np.sort(rng.dirichlet(np.ones(dim)))
        if lam[0] <= 0.0:
            continue
        rho = DensityMatrix.from_spectrum(lam)
        a, b = equality_witness(rho)
        worst = max(worst, abs(ratio(a, b, rho) / conjectured_constant(rho) - 1.0))
        checked += 1
    _report(
        3,
        "analytic witness attains the conjectured constant",
        worst < 1e-10,
        f"10^3 spectra (d<=10), worst relative error {worst:.2e}",
    )


def test_criterion_4_closed_form_averages():
    spot_lp = abs(averaged_bounds_qubit(0.5).luo_park - 1.0)
    spot_rob = abs(averaged_bounds_qubit(1.0).robertson - 2.0 / 9.0)
    spots_ok = spot_lp < 1e-12 and spot_rob < 1e-12

    started = time.time()
    worst_z = 0.0
    for i, purity in enumerate(np.linspace(0.5, 1.0, 20)):
        estimates = monte_carlo_qubit_average(float(purity), 1_000_000, SEED + i)
        targets = averaged_bounds_qubit(float(purity)).as_array()
        for est, target in zip(estimates, targets):
            worst_z = max(worst_z, abs(est.z_score(float(target))))
    elapsed = time.time() - started
    _report(
        4,
        "Monte Carlo reproduces averaged closed forms",
        spots_ok and worst_z < 4.0,
        f"20 purities x 10^6 samples, worst |z| = {worst_z:.2f}, "
        f"spot errors {spot_lp:.1e}/{spot_rob:.1e}, {elapsed:.0f}s",
    )


def test_criterion_5_crossover_purities():
    p_r, p_s = crossover_purities()
    err_r = abs(p_r - 0.875)
    err_s = abs(p_s - (np.sqrt(3.0) - 1.0))
    _report(
        5,
        "crossover purities",
        err_r < 1e-12 and err_s < 1e-9,
        f"P_R err {err_r:.2e}, P_S err {err_s:.2e}",
    )


def test_criterion_6_mub_identities():
    exact_ok = (
        mub_commutator_norm_average(2) == 0.25
        and abs(mub_commutator_norm_average(3) - 4.0 / 27.0) < 1e-16
        and abs(mub_commutator_norm_average(4) - 3.0 / 32.0) < 1e-16
    )

    started = time.time()
    worst_z = 0.0
    for dim in (2, 3, 4):
        rng = task_rng(SEED, 6, dim)
        lam = np.sort(rng.dirichlet(np.ones(dim)))
        result = mc_mub_average(dim, lam, 1_000_000, SEED + dim)
        worst_z = max(worst_z, abs(result.comm_norm.z_score(mub_commutator_norm_average(dim))))

    worst_vanishing = 0.0
    for dim in range(2, 7):
        rng = task_rng(SEED, 6, 100 + dim)
        for _ in range(20):
            pair = fourier_mub_pair(
                dim, sample_unit_vectors(dim, 1, rng)[0], sample_unit_vectors(dim, 1, rng)[0]
            )
            robertson, schrodinger = mub_vanishing_check(pair, rng.dirichlet(np.ones(dim)))
            worst_vanishing = max(worst_vanishing, robertson, schrodinger)
    elapsed = time.time() - started
    _report(
        6,
        "mutually unbiased identities",
        exact_ok and worst_z < 4.0 and worst_vanishing < 1e-10,
        f"exact table ok, MC worst |z| = {worst_z:.2f}, "
        f"worst vanishing bound {worst_vanishing:.1e}, {elapsed:.0f}s",
    )


def test_criterion_7_qubit_mub_dominance():
    # 10^4-point grid over [1/2, 1); at the pure endpoint both averages are
    # exactly zero, so strict dominance is only claimed short of it.
    grid = np.linspace(0.5, 1.0, 10_000, endpoint=False)
    lp = np.array([mub_lp_average(qubit_spectrum_from_purity(float(p))) for p in grid])
    b2 = np.array([mub_b2_average(qubit_spectrum_from_purity(float(p))) for p in grid])
    dominance = bool(np.all(b2 >= lp - 1e-15))
    equality = np.nonzero(b2 - lp <= 1e-12)[0]
    only_at_half = equality.tolist() == [0]
    _report(
        7,
        "conjectured bound dominates Luo-Park for unbiased qubit pairs",
        dominance and only_at_half,
        f"min gap on open interior {np.min((b2 - lp)[1:]):.2e}, equality set {equality.tolist()[:3]}",
    )


def test_criterion_8_identity_recoveries():
    started = time.time()
    # state-independence of the weighted commutator norm for qubits
    rng = task_rng(SEED, 8, 0)
    n = 10_000
    a = sample_unit_vectors(3, n, rng)
    b = sample_unit_vectors(3, n, rng)
    radii = rng.uniform(0.0, 1.0, n)
    dirs = sample_unit_vectors(3, n, rng)
    worst_identity = 0.0
    for i in range(n):
        rho = DensityMatrix.from_bloch(radii[i] * dirs[i])
        matrix_path = weighted_norm_sq(
            commutator(Observable.from_bloch(a[i]), Observable.from_bloch(b[i])), rho
        )
        worst_identity = max(
            worst_identity, abs(matrix_path - qubit_commutator_norm_identity(a[i], b[i]))
        )

    # sphere second moments
    worst_moment_z = 0.0
    for dim in (2, 3):
        result = sphere_moment_check(dim, 1_000_000, SEED + dim)
        target = np.eye(dim) / dim
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(
                result.std_error > 0, np.abs(result.mean - target) / result.std_error, 0.0
            )
        worst_moment_z = max(worst_moment_z, float(z.max()))

    # unweighted commutator-norm inequality, general and normal cases
    bw_ok = True
    for dim in range(2, 11):
        rng = task_rng(SEED, 8, 100 + dim)
        n = 1000
        ga = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
        gb = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
        herm = (ga + ga.conj().transpose(0, 2, 1)) / 2.0
        normal = np.empty_like(ga)
        for i in range(n):
            u = sample_unitary(dim, rng)
            diag = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            normal[i] = (u * diag) @ u.conj().T
        for a_batch in (ga, herm, normal):
            comm = a_batch @ gb - gb @ a_batch
            lhs = np.sum(np.abs(comm) ** 2, axis=(1, 2))
            rhs = (
                2.0
                * np.sum(np.abs(a_batch) ** 2, axis=(1, 2))
                * np.sum(np.abs(gb) ** 2, axis=(1, 2))
            )
            bw_ok = bw_ok and bool(np.all(lhs <= rhs * (1.0 + 1e-12)))
    elapsed = time.time() - started
    _report(
        8,
        "identity recoveries",
        worst_identity < 1e-10 and worst_moment_z < 5.0 and bw_ok,
        f"qubit identity worst err {worst_identity:.1e}, moments worst |z| = "
        f"{worst_moment_z:.2f}, commutator-norm inequality ok={bw_ok}, {elapsed:.0f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ("compare", "--dim", "2", "--samples", "500", "--seed", "7", "--workers", "2"),
        ("fig1", "--points", "20", "--seed", "7", "--workers", "1"),
        ("fig2", "--points", "20", "--seed", "7", "--workers", "1"),
        ("mc-average", "--purity", "0.8", "--samples", "20000", "--seed", "7", "--workers", "2"),
        (
            "verify-conjecture",
            "--dim",
            "2",
            "--trials",
            "3",
            "--restarts",
            "1",
            "--seed",
            "7",
            "--workers",
            "2",
        ),
        ("mub-average", "--dim", "3", "--seed", "7", "--workers", "1"),
    ]
    # The children run in tmp_path, where a relative PYTHONPATH does not resolve.
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    mismatched = []
    for command in commands:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "commutator_bounds", *command],
                capture_output=True,
                cwd=tmp_path,
                env=env,
                timeout=600,
            )
            assert proc.returncode == 0, (command, proc.stderr.decode())
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            mismatched.append(command[0])
    _report(
        9,
        "CLI byte-level determinism",
        not mismatched,
        f"6 commands x 2 runs each{'; mismatched: ' + ', '.join(mismatched) if mismatched else ''}",
    )
