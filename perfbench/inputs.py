"""Seeded input generators (the benchmark's own numpy code, not the program's)."""

from __future__ import annotations

import numpy as np


def haar_unitary(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_state(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def distinct_levels(rng, m: int, lo: float = 0.0, hi: float = 4.0,
                    min_gap: float = 0.05) -> np.ndarray:
    while True:
        vals = np.sort(rng.uniform(lo, hi, m))
        if float(np.min(np.diff(vals))) >= min_gap:
            return vals


def ginibre_density(rng, d: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Random density matrix of the given rank, plus its first column direction
    (the state vector itself when rank is 1)."""
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    a = g @ g.conj().T
    rho = a / np.trace(a).real
    return (rho + rho.conj().T) / 2.0, g[:, 0] / np.linalg.norm(g[:, 0])


def spectral_density(rng, d: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Density V diag(p) V† with rank nonzero weights, each at least 0.1 / rank,
    and its exact square root V diag(sqrt p) V†."""
    v = haar_unitary(rng, d)
    p = np.zeros(d)
    p[:rank] = 0.9 * rng.dirichlet(np.ones(rank)) + 0.1 / rank
    rho = (v * p) @ v.conj().T
    root = (v * np.sqrt(p)) @ v.conj().T
    return (rho + rho.conj().T) / 2.0, (root + root.conj().T) / 2.0


def random_hermitian(rng, d: int, norm: float) -> np.ndarray:
    """Hermitian matrix rescaled to the given spectral norm."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2.0
    return h * (norm / float(np.max(np.abs(np.linalg.eigvalsh(h)))))


def partition(rng, d: int, m: int) -> list[np.ndarray]:
    """Random partition of range(d) into m nonempty index groups."""
    idx = rng.permutation(d)
    cuts = np.sort(rng.choice(np.arange(1, d), size=m - 1, replace=False))
    return [np.sort(g) for g in np.split(idx, cuts)]


def random_kraus(rng, d: int, n_ops: int) -> tuple[np.ndarray, ...]:
    """Kraus operators cut from the first d columns of a Haar unitary on d * n_ops."""
    iso = haar_unitary(rng, d * n_ops)[:, :d]
    return tuple(np.ascontiguousarray(iso[j * d:(j + 1) * d]) for j in range(n_ops))


def kraus_document(ops) -> dict:
    return {"label": "perfbench-random-qubit",
            "kraus": [[[[float(x.real), float(x.imag)] for x in row] for row in k] for k in ops]}
