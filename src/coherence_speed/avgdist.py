"""Permutation-averaged evolution distance: brute force and closed form.

Fix a Hamiltonian with distinct levels lambda_0 < ... < lambda_{M-1}
and eigenprojectors P_0..P_{M-1}.  Reassigning the level values to the
projector blocks in every possible order gives M! isospectral
Hamiltonians H_s = sum_m lambda_m P_{s(m)}.  The quantity of interest
is the average squared-Hellinger distance between a state and its
time-t evolutions across that family:

    sbar(t) = (1/M!) sum_s D(rho, exp(-i H_s t) rho exp(i H_s t)).

The closed form factorizes the average into a state-independent
oscillatory coefficient and the affinity coherence of the state with
respect to the eigenprojector decomposition:

    sbar(t) = 2 (1 - B(t)) c_half(rho),
    B(t)    = 2 / (M (M - 1)) * sum_{m<n} cos((lambda_m - lambda_n) t).

``avg_distance_bruteforce`` evaluates the sum literally and is kept as
an independent oracle for the closed form.  It works in the eigenbasis
V of H, where every U_s is the diagonal phase row
phi_s = exp(-i lambda_s t) of the orbit, from ``linalg._phases`` as every
evolution phase of the package is.  ``_orbit_terms``, the one
orbit kernel (capped at BRUTE_FORCE_CAP levels), yields the terms of
one or many orbits, each once its last chunk is done, handing a term its
rows and their one owner's operands whole (else each row's owner's);
``_orbit_means`` takes their ``math.fsum`` means.  The kernel also
serves ``channels.theorem3_bound``, ``battery.qudit_battery_bound`` and
``thm3-dpi-per-permutation``, which build the full U_s from the same
phase rows (``_eigenbasis_operators``).  The mixed-state kernel
``_bruteforces`` takes checked states, each with its Hamiltonian and
time, all of one dimension (``_bruteforce``, one state at a sequence of
times, repeats its Hamiltonian): it forms R = V† rho V, rho by the lower
triangle its check read (``_Density.hermitian``), and Q = V† sqrt(rho) V
as one stack each, builds each evolved state S_s = phi_s R phi_s†
elementwise (sigma_s = U_s rho U_s† in the basis V), and takes each
term from S_s's own eigendecomposition, with NotPSD and the dead band
but no second Hermiticity check (``_psd_sqrt_eig``), one stacked
diagonalization per chunk, with Q as the root of R.  It never uses
sqrt(S_s) = phi_s Q phi_s†, i.e. sqrt(sigma_s) = U_s sqrt(rho) U_s†,
which is the closed form's own derivation step; the change of basis V
is fixed and applies to rho as a whole, so it removes no dependence on
s.  A single call passes lists of one.

``_closed_forms``, the one closed form, takes per level count every
projector family in one ``_families`` call and every coherence in one
``_c_halves`` pass; B(t) stays one row per trial (a time or an array of
times), since np.cos over a longer array rounds some entries apart.

For a pure state rho = |psi><psi| every sigma_s is pure too, and its
affinity with rho is |<psi|U_s|psi>|^2, so ``_bruteforce_pure`` takes
each term from the state vector with no square root and no dead band.
It stays independent of the closed form: U_s is the full matrix built
from the same phase rows, psi is used as given, and
no eigenspace weight r_m = <psi|P_m|psi> enters, since
sum_m r_m exp(-i lambda_s(m) t) is one step from the closed form's own
derivation.  Mixed states keep the eigendecomposition of every S_s; the
path is chosen by what the checked state (``linalg._Density``) holds, a
vector or only a matrix, never by thresholding eigenvalues of rho.
``b_coefficient`` of an array of times is bit for bit its per-point value.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .coherence import _c_halves
from .errors import DegenerateSpectrum, DimensionMismatch, SingleLevel, TooManyLevels
from .linalg import (
    TOL_DEGEN,
    SpectralHamiltonian,
    _Density,
    _eigenbasis_operators,
    _families,
    _levels,
    _phases,
    _psd_sqrt_eig,
    _read_only,
    _require_finite,
    dagger,
)
from .metrics import _hellinger

BRUTE_FORCE_CAP = 8  # 8! = 40320 permutations


def avg_distance_bruteforce(rho, ham: SpectralHamiltonian, t: float) -> float:
    """Literal permutation average of D(rho, U_s rho U_s†) (correctly rounded sum).

    Permutations are enumerated in lexicographic order.  Raises TooManyLevels
    when the distinct level count exceeds BRUTE_FORCE_CAP, and ``_entry``'s errors.
    """
    return _bruteforce(_entry(rho, ham, t), ham, [t])[0]


def _entry(rho, ham: SpectralHamiltonian, t) -> _Density:
    """The checked state of both entries: ValueError unless t is finite, then
    ``_Density.of(rho)``, then DimensionMismatch unless rho has the dimension of ham."""
    _require_finite("t", t)
    state = _Density.of(rho)
    if len(state.rho) != ham.dim:
        raise DimensionMismatch("state dimension does not match decomposition")
    return state


def _bruteforce(state: _Density, ham: SpectralHamiltonian, ts) -> list[float]:
    """avg_distance_bruteforce of a checked state at each time of ts (module docstring); from
    the state's vector (``_bruteforce_pure``) when it keeps one."""
    if state.psi is not None:
        return _bruteforce_pure(state.psi, ham, ts)
    return _bruteforces([state] * len(ts), [ham] * len(ts), ts)


def _bruteforces(states, hams, ts) -> list[float]:
    """The mixed-state oracle of each checked state on its Hamiltonian at its time, all of
    one dimension, in stacked passes (module docstring); TooManyLevels before any orbit work."""
    v = np.array([ham.eigenvectors for ham in hams])
    r, q = dagger(v) @ np.array([[state.hermitian for state in states],
                                 [state.root for state in states]]) @ v

    def distances(lam, t, r, q):      # each S_s = phi_s R phi_s† from its own eigh
        phi = _phases(lam, t)
        return _hellinger(q, *_psd_sqrt_eig(phi[:, :, None] * r * phi.conj()[:, None, :]))

    return _orbit_means(hams, distances, np.array(ts, dtype=complex)[:, None], r, q)


def _bruteforce_pure(psi: np.ndarray, ham: SpectralHamiltonian, ts) -> list[float]:
    """_bruteforce of |psi><psi| from the unit vector psi: mean of 2 (1 - |<psi|U_s|psi>|^2),
    each overlap taken with the full U_s and clipped into [0, 1], as affinity clips."""
    def terms(lam, t):
        phi = _phases(lam, t)
        u = _eigenbasis_operators(ham.eigenvectors, phi)
        u_psi = (u.reshape(-1, ham.dim) @ psi).reshape(phi.shape)     # every U_s psi, one product
        return 2.0 * (1.0 - np.clip(np.abs(u_psi @ psi.conj()) ** 2, 0.0, 1.0))

    return _orbit_means([ham] * len(ts), terms, np.array(ts, dtype=complex)[:, None])


# Orbit members per stacked evaluation (5!): every orbit of up to 5 levels is one chunk, and
# 8 levels at d = 16 hold chunks of 120 d x d complex matrices (0.5 MB each) instead of one of
# 40320 (165 MB).  The mixed-state oracle's one stacked eigh per chunk is most of its time at
# 6 and 7 levels; larger chunks measured no faster there.
ORBIT_CHUNK = 120


@functools.lru_cache(maxsize=8)
def _orbit_table(m_count: int) -> np.ndarray:
    """Read-only (M!, M) table: row k is the inverse of the k-th assignment of
    itertools.permutations(range(M)), i.e. the level on each block."""
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(m_count))),
                        dtype=np.intp, count=math.factorial(m_count) * m_count)
    return _read_only(np.argsort(perms.reshape(-1, m_count), axis=1))


def _orbit_terms(hams, term, *stacks) -> Iterator[np.ndarray]:
    """Yield each Hamiltonian's orbit terms (all of one dimension) once its last chunk is done.

    Row k of an orbit holds the level on each eigenvector column for the k-th assignment s of
    itertools.permutations(range(M)), level m on block s[m] as permute_levels puts it, so that
    H_s = V diag(row_k) V†.  The orbits follow one another in one list cut into chunks of
    ORBIT_CHUNK rows; term(rows, *entries) maps a chunk to its terms, each entry being its stack's
    row (one per Hamiltonian) of a chunk's one owner, whole, to broadcast, or else the row of each
    row's owner.  TooManyLevels at the first next(), before any orbit work, past BRUTE_FORCE_CAP.
    """
    counts = [ham.level_count for ham in hams]
    if max(counts) > BRUTE_FORCE_CAP:
        raise TooManyLevels(f"{max(counts)} levels exceed brute-force cap {BRUTE_FORCE_CAP}")
    ends = [0, *itertools.accumulate(map(math.factorial, counts))]

    def rows(i, a, b):              # list positions a:b, all in orbit i
        return hams[i].levels[_orbit_table(counts[i])[a - ends[i]:b - ends[i], hams[i].level_of]]

    pieces = []                     # the terms of the orbit in progress
    for k in range(0, ends[-1], ORBIT_CHUNK):
        stop = min(k + ORBIT_CHUNK, ends[-1])
        first, last = bisect.bisect_right(ends, k) - 1, bisect.bisect_left(ends, stop)
        if last == first + 1:       # one owner: its operands whole, no owner rows
            spans = [(first, k, stop)]
            chunk = term(rows(first, k, stop), *[stack[first] for stack in stacks])
        else:
            spans = [(i, max(k, ends[i]), min(stop, ends[i + 1])) for i in range(first, last)]
            owner = np.arange(first, last).repeat([b - a for _, a, b in spans])
            chunk = term(np.concatenate([rows(*span) for span in spans]),
                         *(stack.take(owner, 0) for stack in stacks))
        for i, a, b in spans:
            pieces.append(chunk[a - k:b - k])
            if b == ends[i + 1]:
                yield pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
                pieces = []


def _orbit_means(hams, term, *stacks) -> list[float]:
    """Correctly rounded (``math.fsum``) mean of each orbit's terms, one orbit held at a time."""
    return [math.fsum(terms.tolist()) / len(terms)
            for terms in _orbit_terms(hams, term, *stacks)]


def _closed_forms(roots, hams, ts) -> list[tuple[float, float, float]]:
    """(B(t), c_half(rho), 2 (1 - B(t)) c_half(rho)) of each root sqrt(rho) of a checked state
    (a stack, or a sequence of them) on its Hamiltonian at its time, all of one dimension, in
    one pass per level count (module docstring).  A single level has B = 1 and distance 0;
    for an array of times, B and the distance are arrays, except on a single level."""
    roots, counts = np.asarray(roots), [ham.level_count for ham in hams]
    if len(set(counts)) > 1:        # one pass per level count, each in trial order
        forms = [None] * len(hams)
        for m in set(counts):
            same = [i for i, count in enumerate(counts) if count == m]
            for i, form in zip(same, _closed_forms(roots[same], [hams[i] for i in same],
                                                   [ts[i] for i in same])):
                forms[i] = form
        return forms
    coefs = [1.0 if count == 1 else _pair_cos_mean(ham.levels, t)
             for ham, count, t in zip(hams, counts, ts)]
    return [(coef, coh, 2.0 * (1.0 - coef) * coh)
            for coef, coh in zip(coefs, _c_halves(roots, _families(hams)))]


def a_coefficient(eigenvalues, t):
    """Oscillatory coefficient for a nondegenerate spectrum.

    A(t) = 2 / (d (d - 1)) * sum_{m<n} cos((lambda_m - lambda_n) t);
    requires pairwise-distinct eigenvalues.  An array of times gives an
    array of coefficients of the same shape.  Levels and times must be finite.
    """
    lam = np.sort(_levels(eigenvalues))
    _require_finite("t", t)
    if len(lam) < 2:
        raise SingleLevel("need at least two eigenvalues")
    if np.min(np.diff(lam)) <= TOL_DEGEN:
        raise DegenerateSpectrum("eigenvalues are not pairwise distinct; "
                                 "group levels and use b_coefficient")
    return _pair_cos_mean(lam, t)


def b_coefficient(levels, t):
    """Oscillatory coefficient over the distinct levels of a degenerate spectrum.

    Finite levels; an array of finite times gives an array of coefficients of the same shape.
    """
    lam = np.sort(_levels(levels))
    _require_finite("t", t)
    if len(lam) < 2:
        raise SingleLevel("one distinct level: the averaged distance is identically 0")
    return _pair_cos_mean(lam, t)


@functools.lru_cache(maxsize=64)
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(d, k=1), the level pairs m < n in row order, built once per d (read-only)."""
    return tuple(_read_only(index) for index in np.triu_indices(d, k=1))


def _pair_cos_mean(lam: np.ndarray, t):
    """Mean of cos((lambda_m - lambda_n) t) over the pairs m < n: float, or array for array t."""
    d = len(lam)
    m, n = _upper_pairs(d)
    mean = 2.0 * np.add.reduce(np.cos(np.multiply.outer(t, lam[m] - lam[n])), -1) / (d * (d - 1))
    return float(mean) if mean.ndim == 0 else mean


@dataclass(frozen=True)
class AvgDistanceResult:
    """One grid point of the averaged-distance identity.

    brute_force is None when the permutation count was over the cap or
    the caller skipped it.
    """

    t: float
    brute_force: float | None
    closed_form: float
    coefficient: float
    coherence: float

    @property
    def gap(self) -> float | None:
        if self.brute_force is None:
            return None
        return abs(self.brute_force - self.closed_form)


def avg_distance_closed(rho, ham: SpectralHamiltonian, t: float,
                        *, include_brute: bool | None = None) -> AvgDistanceResult:
    """Closed form 2 (1 - B(t)) c_half(rho), optionally with the brute-force value.

    include_brute defaults to "when the level count is within the cap".
    A single-level Hamiltonian gives coefficient 1 and distance 0.  Raises ``_entry``'s errors.
    """
    state = _entry(rho, ham, t)     # one root serves c_half and the oracle
    coef, coh, closed = _closed_forms([state.root], [ham], [t])[0]
    if include_brute is None:
        include_brute = ham.level_count <= BRUTE_FORCE_CAP
    brute = _bruteforce(state, ham, [t])[0] if include_brute else None
    return AvgDistanceResult(t=float(t), brute_force=brute, closed_form=closed,
                             coefficient=coef, coherence=coh)


def benchmark_overlap_check(eigenvalues, phases, t: float) -> tuple[float, float]:
    """Two routes to the oscillatory coefficient for a nondegenerate spectrum.

    Left: A(t) from the pairwise-cosine sum.  Right: the survival
    probability of the uniform superposition with arbitrary fixed
    phases, rescaled as d/(d-1) * (|<phi_0|phi_t>|^2 - 1/d).  The result
    does not depend on the phases, which like the levels and t must be finite.
    """
    lam, th = _levels(eigenvalues), _levels(phases)
    _require_finite("t", t)
    d = len(lam)
    if len(th) != d:
        raise DimensionMismatch("one phase per eigenvalue required")
    lhs = a_coefficient(lam, t)
    amp0 = np.exp(1j * th) / np.sqrt(d)
    ampt = amp0 * _phases(lam, t)
    overlap = abs(np.vdot(amp0, ampt)) ** 2
    rhs = d / (d - 1.0) * (overlap - 1.0 / d)
    return lhs, float(rhs)

