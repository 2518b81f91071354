"""Layer micro-benchmarks: one building block per metric, timed per call without tracing.

Each value is the median of a fixed number of individually timed calls,
in microseconds, on inputs drawn from the run's seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import inputs as gen
from coherence_speed.avgdist import avg_distance_bruteforce
from coherence_speed.dynamics import HamiltonianPath, evolve
from coherence_speed.linalg import OrthogonalDecomposition, SpectralHamiltonian, matrix_sqrt_psd
from coherence_speed.metrics import affinity

DIMS = (2, 4, 8)
ORBIT_LEVELS = (2, 4, 6)
EVOLVE_STEPS = 32


def _median_us(fn, reps: int) -> float:
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def names() -> list[str]:
    per_dim = ("eigh", "from_matrix", "decomposition", "matrix_sqrt_psd", "affinity",
               "evolve_step")
    return ([f"micro.{block}.d{d}_us" for block in per_dim for d in DIMS]
            + [f"micro.orbit.m{m}_us" for m in ORBIT_LEVELS])


def run(seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 4])
    out = {}
    for d in DIMS:
        h = gen.random_hermitian(rng, d, 2.0)
        h1 = gen.random_hermitian(rng, d, 2.0)
        basis = gen.haar_unitary(rng, d)
        projs = tuple(np.outer(basis[:, k], basis[:, k].conj()) for k in range(d))
        rho, _ = gen.spectral_density(rng, d, d)
        sigma, _ = gen.spectral_density(rng, d, d)
        psi = gen.haar_state(rng, d)
        path = HamiltonianPath.linear(h, h1, 1.0, steps=EVOLVE_STEPS)
        out[f"micro.eigh.d{d}_us"] = _median_us(lambda: np.linalg.eigh(h), 400)
        out[f"micro.from_matrix.d{d}_us"] = _median_us(
            lambda: SpectralHamiltonian.from_matrix(h), 400)
        out[f"micro.decomposition.d{d}_us"] = _median_us(
            lambda: OrthogonalDecomposition(projs), 400)
        out[f"micro.matrix_sqrt_psd.d{d}_us"] = _median_us(lambda: matrix_sqrt_psd(rho), 400)
        out[f"micro.affinity.d{d}_us"] = _median_us(lambda: affinity(rho, sigma), 400)
        out[f"micro.evolve_step.d{d}_us"] = _median_us(lambda: evolve(psi, path), 30) / EVOLVE_STEPS
    for m in ORBIT_LEVELS:
        basis = gen.haar_unitary(rng, m)
        ham = SpectralHamiltonian.from_spectrum(gen.distinct_levels(rng, m), basis)
        rho, _ = gen.spectral_density(rng, m, m)
        out[f"micro.orbit.m{m}_us"] = _median_us(
            lambda: avg_distance_bruteforce(rho, ham, 1.3), {2: 200, 4: 60, 6: 7}[m])
    return out
