"""Seeded verification suites shared by the CLI and the acceptance tests.

Every check draws its own ensemble from a named seed, measures a worst
figure (an identity gap or an inequality violation), and compares it to
the check's tolerance.  The command line runs the suites; the
acceptance tests call the same functions with the same defaults, so a
green CLI run and a green test run mean the same thing.

A check is declared once, by its decorator, which names its suite, its
salt, its default tolerance and trial count, its dimension rule and its
side conditions, and registers it in SUITES: suites and their checks run
in declaration order.  Every body returns figures; only ``_check`` reduces
and judges them.

* ``_check(suite, name, salt=, tol=, trials=None, dims=None, inequality=False,
  sides=None, count=None, detail=None)`` takes ``body(rng, trials, dims) ->
  {label: figures}``, rng ``default_rng([seed, salt])``, each column in trial
  or loop order.  A column's worst is its maximum (-inf if empty), or its
  minimum (+inf) under a floor, gt or ge.  The column not in ``sides`` is the
  headline, whose worst is the check's: a gap passes when worst < tol, an
  inequality (lhs - rhs, ``inequality=True``) when worst <= tol.  Each side
  ``label: (comparison, bound)`` must hold too; ``label: None`` is only
  shown.  A non-finite figure fails the check, and detail names it (``trial
  k: non-finite figure nan`` in the headline, whose worst it is, or ``label
  [k]: ...``); else detail lists each named column's worst, or is
  ``detail(columns)``.  The trial count is the headline's, or ``count(trials)``.
* ``_trials(suite, name, salt=, trials=, tol=, inequality=False, dims=None,
  stacked=False)`` makes the headline from ``body(i, rng, d) -> figure``, one
  trial's; trial i draws from child i of ``SeedSequence([seed, salt])``.  A
  stacked check declares ``body(rngs, dims) -> figures``, one per trial in
  order, and gets the picker under any rule: each trial draws from its own
  generator, in trial order, then stacked passes evaluate them bit for bit
  as one by one (``_by_dim``, ``_rounds``).

``dims`` is a sequence cycled by trial or loop index, a draw ``rng -> d``
made where the body asks, or the int a check is fixed at.  A body calls
the picker ``dims(index=0, rng=None)``; a per-trial ``_trials`` body with a
cycle or a fixed rule gets ``d = dims(i)``.  Only the decorator reads the
caller's ``dim``: it replaces a cycled or drawn dimension, a fixed check
notes ``dim fixed at N``, and thm2-equality (no rule: its multiplicities set
its dimension) takes ``dims.dim`` as a floor and notes its ``dims.used``.

Every check declares its own salt, unique in this module, even a check
that draws nothing, so no two checks draw the same ensemble.  Both
decorators give ``check_*(*, seed=0, trials=None, dim=None, tol=None)``,
where None means the declared default.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .avgdist import (
    _bruteforces,
    _closed_forms,
    _orbit_terms,
    a_coefficient,
    avg_distance_closed,
    benchmark_overlap_check,
)
from .battery import (
    BatteryConfig,
    avg_extracted_work,
    constant_axis,
    parabola_pulse,
    qudit_battery_bound,
    rotating_axis,
    simulate_battery,
    sin2_pulse,
    sin4_pulse,
    spin_operator,
)
from .channels import (
    StinespringDilation,
    _apply_kraus,
    _dilate,
    _random_channels,
    _theorem3_bound,
    apply_kraus,
    equality_gap_analysis,
    qutrit_equality_channel,
)
from .coherence import _c_halves, c_half, c_l1, closest_incoherent, is_refinement
from .dynamics import (
    HamiltonianPath,
    Trajectory,
    _linear_samples,
    energy_uncertainty,
    evolve,
    finite_difference_speed,
    instantaneous_speed,
    qubit_closed_form,
)
from .errors import UnknownSuite
from .linalg import (
    TOL_ZERO,
    OrthogonalDecomposition,
    SpectralHamiltonian,
    _Density,
    _eigenbasis_operators,
    _families,
    _ginibre,
    _haar_unitaries,
    _phases,
    _psd_sqrt_eig,
    _rebuild,
    _trace_second,
    _trusted,
    dagger,
    haar_random_state,
    hermitianize,
    partial_trace,
    pure_density,
    random_density,
    random_unitary,
    unitary_exp,
)
from .metrics import _hellinger, d_affinity_half, hellinger, qsl_bounds


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: worst observed figure vs tolerance."""

    name: str
    passed: bool
    worst: float
    tol: float
    trials: int
    elapsed: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (f"{status} {self.name}: worst {self.worst:.3e} "
                f"(tol {self.tol:.1e}, {self.trials} trials, {self.elapsed:.2f}s)")
        if self.detail:
            text += f" - {self.detail}"
        return text


# suite name -> its checks, filled by the declarations below
SUITES: dict[str, tuple] = {}


class _Dims:
    """One run's dimension picker: a declared ``dims`` rule and the caller's ``dim``."""

    def __init__(self, rule, dim):
        self.rule, self.dim, self.used = rule, dim, set()

    def __call__(self, index: int = 0, rng=None) -> int:
        rule = self.rule
        if isinstance(rule, int) or self.dim:
            return rule if isinstance(rule, int) else self.dim
        return rule(rng) if callable(rule) else rule[index % len(rule)]


def _check(suite: str, name: str, *, salt: int, tol: float, trials: int | None = None, dims=None,
           inequality: bool = False, sides: dict | None = None, count=None, detail=None):
    """Declare a check from ``body(rng, trials, dims)`` into its suite (module docstring)."""
    default_tol, default_trials, rule, sides = tol, trials, dims, sides or {}

    def declare(body):
        def check(*, seed=0, trials=None, dim=None, tol=None) -> CheckResult:
            tol = default_tol if tol is None else tol
            n = default_trials if trials is None else trials
            dims = _Dims(rule, dim)
            t0 = time.perf_counter()
            columns = body(np.random.default_rng([seed, salt]), n, dims)
            head = next(label for label in columns if label not in sides)
            rules = {head: (operator.le if inequality else operator.lt, tol), **sides}
            worst = {label: min(columns[label], default=math.inf)
                     if side and side[0] in (operator.gt, operator.ge)
                     else max(columns[label], default=-math.inf) for label, side in rules.items()}
            bad = [(label, k) for label in rules for k, x in enumerate(columns[label])
                   if not math.isfinite(x)]
            if bad:
                label, k = bad[0]
                worst[label] = columns[label][k]
                where = f"trial {k}" if label == head else f"{label} [{k}]"
                passed, text = False, f"{where}: non-finite figure {worst[label]}"
            else:
                passed = all(side[0](worst[label], side[1])
                             for label, side in rules.items() if side)
                text = detail(columns) if detail else ", ".join(
                    f"{label} {worst[label]:.1e}" for label in columns if label)
            if dim and (rule is None or isinstance(rule, int)):   # dim did not pick the dimension
                note = f"dim fixed at {rule}" if rule else f"ran d = {sorted(dims.used)}"
                text = f"{text}; {note}" if text else note
            return CheckResult(name, passed, worst[head], tol,
                               count(n) if count else len(columns[head]),
                               time.perf_counter() - t0, text)

        check.__name__ = check.__qualname__ = body.__name__
        check.__doc__ = body.__doc__
        check.salt, check.dims, check.body = salt, rule, getattr(body, "body", body)
        SUITES[suite] = SUITES.get(suite, ()) + (check,)
        return check
    return declare


def _trials(suite: str, name: str, *, salt: int, trials: int, tol: float,
            inequality: bool = False, dims=None, stacked: bool = False):
    """Declare a check from ``body(i, rng, d)`` or ``body(rngs, dims)`` (module docstring)."""
    def declare(body):
        def run(rng, n, pick):
            rngs = rng.spawn(n)     # child i of SeedSequence([seed, salt]), as rng was seeded
            return {"": body(rngs, pick) if stacked else [
                body(i, child, pick if callable(dims) or dims is None else pick(i))
                for i, child in enumerate(rngs)]}

        run.__name__, run.__doc__, run.body = body.__name__, body.__doc__, body
        return _check(suite, name, salt=salt, tol=tol, trials=trials, dims=dims,
                      inequality=inequality)(run)
    return declare


def _spectrum(rng, m: int, *, min_gap: float = 1e-3) -> np.ndarray:
    while True:
        vals = np.sort(rng.uniform(0.0, 4.0, m))
        if m == 1 or float(np.min(np.diff(vals))) >= min_gap:
            return vals


def _nondegenerate_ham(rng, d: int) -> SpectralHamiltonian:
    return SpectralHamiltonian.from_spectrum(_spectrum(rng, d), random_unitary(d, rng))


def _random_groups(rng, d: int) -> list[list[int]]:
    """Partition of range(d) into m nonempty contiguous index groups, shuffled, m drawn in 2..d."""
    m = int(rng.integers(2, d + 1)) if d > 2 else 2
    idx = rng.permutation(d)
    cuts = np.sort(rng.choice(np.arange(1, d), size=m - 1, replace=False))
    return [list(g) for g in np.split(idx, cuts)]


def _random_decomposition(rng, d: int):
    basis = random_unitary(d, rng)
    groups = _random_groups(rng, d)
    return basis, groups, OrthogonalDecomposition.from_basis(basis, groups)


def _block_diag(*blocks) -> np.ndarray:
    """scipy.linalg.block_diag of 2-D blocks: each block on the diagonal, zeros elsewhere."""
    rows, cols = np.sum([b.shape for b in blocks], axis=0)
    out = np.zeros((rows, cols), dtype=np.result_type(*(b.dtype for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _block_unitary(rng, basis, groups) -> np.ndarray:
    """A unitary acting inside each group's span, with fresh random blocks."""
    perm = [j for g in groups for j in g]
    blocks = [random_unitary(len(g), rng) for g in groups]
    return basis[:, perm] @ _block_diag(*blocks) @ basis[:, perm].conj().T


def _by_dim(draws, evaluate) -> list:
    """Figures in trial order of draws (ascending levels, Ginibre draw, *rest): per dimension,
    one QR for the Hamiltonians (the package-built basis unchecked), then evaluate(hams, *rest)."""
    figures = {}
    for d in {len(draw[0]) for draw in draws}:
        trials = [i for i, draw in enumerate(draws) if len(draw[0]) == d]
        levels, ginibres, *rest = zip(*(draws[i] for i in trials))
        hams = SpectralHamiltonian._build(np.array(levels), _haar_unitaries(np.array(ginibres)))
        figures.update(zip(trials, evaluate(hams, *rest)))
    return [figures[i] for i in range(len(draws))]


def _equality_draw(rng, levels) -> tuple:
    """An equality trial's (levels, Ginibre draw, rho, t), drawn on from rng after its levels."""
    d = len(levels)
    return (levels, _ginibre(rng, (d, d)),
            random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng),
            float(rng.uniform(0.05, 8.0)))


def _equality_gaps(hams, rhos, ts) -> list[float]:
    """avg_distance_closed's |brute force - closed form|, from one eigh of the states."""
    states = _Density.of_stack(np.array(rhos))
    closed = _closed_forms([state.root for state in states], hams, ts)
    return [abs(brute - c[2]) for brute, c in zip(_bruteforces(states, hams, ts), closed)]


@_trials("thm1", "thm1-equality", salt=11, trials=300, tol=1e-9, dims=range(2, 7),
         stacked=True)
def check_thm1_equality(rngs, dims):
    """Brute-force permutation average vs closed form, nondegenerate spectra."""
    return _by_dim([_equality_draw(rng, _spectrum(rng, dims(i))) for i, rng in enumerate(rngs)],
                   _equality_gaps)


@_trials("thm1", "benchmark-identity", salt=12, trials=100, tol=1e-10, dims=range(2, 7))
def check_benchmark_identity(i, rng, d):
    """Cosine-average coefficient vs the rescaled survival probability."""
    lam = _spectrum(rng, d)
    phases = rng.uniform(0.0, 2.0 * np.pi, d)
    lhs, rhs = benchmark_overlap_check(lam, phases, float(rng.uniform(0.05, 8.0)))
    return abs(lhs - rhs)


def _rounds(rngs, draw, judge) -> list:
    """Per generator k, what judge makes of its first accepted draw(k, rng): each round draws
    one candidate from every unfinished generator, in order, and judge(ks, candidates) gives
    a result or None (draw again) for each in stacked passes, so each generator draws what a
    loop of its own would."""
    results, todo = [None] * len(rngs), range(len(rngs))
    while todo:
        for k, result in zip(todo, judge(todo, [draw(k, rngs[k]) for k in todo])):
            results[k] = result
        todo = [k for k in todo if results[k] is None]
    return results


def _recovered_gaps(hams, ts, rngs) -> list[float]:
    """|B_1 - B_2| per trial, B = 1 - brute / (2 c_half) of each of the first two states
    its generator draws with c_half above 1e-3 (all levels distinct: one level count)."""
    d, families = hams[0].dim, _families(hams)

    def judge(trials, rhos):
        states = _Density.of_stack(np.array(rhos))
        cohs = _c_halves(np.array([state.root for state in states]), families[trials])
        return [(state, coh) if coh > 1e-3 else None for state, coh in zip(states, cohs)]

    def draw(k, rng):
        return random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)

    first, second = _rounds(rngs, draw, judge), _rounds(rngs, draw, judge)
    states, cohs = zip(*itertools.chain(*zip(first, second)))
    pairs = [(ham, t) for ham, t in zip(hams, ts) for _ in range(2)]
    coef = [1.0 - b / (2.0 * c) for b, c in zip(_bruteforces(states, *zip(*pairs)), cohs)]
    return [abs(a - b) for a, b in zip(coef[::2], coef[1::2])]


@_trials("thm1", "coefficient-independence", salt=13, trials=200, tol=1e-9, dims=range(2, 7),
         stacked=True)
def check_coefficient_independence(rngs, dims):
    """The coefficient recovered from brute-force averages is state-independent."""
    draws = []
    for i, rng in enumerate(rngs):
        d = dims(i)
        draws.append((_spectrum(rng, d), _ginibre(rng, (d, d)), float(rng.uniform(0.3, 6.0)), rng))
    return _by_dim(draws, _recovered_gaps)


@_check("thm1", "max-coherent-dominance", salt=14, tol=1e-12, trials=1000, dims=range(2, 7),
        inequality=True)
def check_max_coherent_dominance(rng, trials, dims):
    """Uniform-weight superpositions maximize the averaged distance."""
    outer = 5
    inner = max(1, trials // outer)
    excess = []
    for j in range(outer):
        d = dims(j)
        ham = _nondegenerate_ham(rng, d)
        t = float(rng.uniform(0.3, 6.0))
        while 1.0 - a_coefficient(ham.levels, t) <= 1e-3:
            t = float(rng.uniform(0.3, 6.0))
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d))
        phi = (ham.eigenvectors * phases).sum(axis=1) / np.sqrt(d)
        s_max = avg_distance_closed(pure_density(phi), ham, t,
                                    include_brute=False).closed_form
        for _ in range(inner):
            rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
            excess.append(avg_distance_closed(rho, ham, t, include_brute=False).closed_form - s_max)
    return {"": excess}


@_check("thm1", "coefficient-grid", salt=15, tol=0.0, trials=10_000,
        dims=lambda rng: int(rng.integers(2, 7)), inequality=True,
        sides={"random-spectrum excess over 1:": (operator.le, 1e-15)})
def check_coefficient_grid(rng, trials, dims):
    """The coefficient never exceeds 1 and stays below it on a dense grid.

    An incommensurate four-level spectrum is scanned over 10^4 points in
    (0, 20 pi]; no point may come within 1e-12 of the t = 0 value 1.
    """
    lam = np.array([0.0, 1.0, np.sqrt(2.0), np.sqrt(5.0)])
    ts = np.linspace(20.0 * np.pi / trials, 20.0 * np.pi, trials)
    # each random spectrum's figure is its largest coefficient over 20 random times
    excess = [float(np.max(a_coefficient(_spectrum(rng, dims(rng=rng)),
                                         rng.uniform(0.0, 20.0, 20)))) - 1.0 for _ in range(50)]
    return {"": (a_coefficient(lam, ts) - (1.0 - 1e-12)).tolist(),
            "random-spectrum excess over 1:": excess}


@_trials("thm2", "thm2-equality", salt=21, trials=300, tol=1e-9, stacked=True)
def check_thm2_equality(rngs, dims):
    """Brute force vs closed form with forced-degenerate spectra."""
    draws = []
    for i, rng in enumerate(rngs):
        m = 2 + i % 4
        mult = rng.integers(1, 3, m)
        if not np.any(mult > 1):
            mult[int(rng.integers(m))] = 2
        # a caller's dim is a floor: stretch multiplicities until the total reaches it
        while int(mult.sum()) < (dims.dim or 0):
            mult[int(rng.integers(m))] += 1
        dims.used.add(int(mult.sum()))
        draws.append(_equality_draw(rng, np.repeat(_spectrum(rng, m), mult)))
    return _by_dim(draws, _equality_gaps)


def _qubit_env_cases(rngs):
    """Per trial, from its own generator, a 2 x 2 channel then a state; dilations and joints."""
    channels = _random_channels(rngs, 2, 2)
    rhos = np.array([random_density(2, rank=int(rng.integers(1, 3)), seed=rng) for rng in rngs])
    dilations = _dilate(channels)
    return channels, dilations, rhos, np.array([d._joint(r) for d, r in zip(dilations, rhos)])


@_trials("thm3", "thm3-inequality", salt=31, trials=100, tol=1e-9, inequality=True, dims=2,
         stacked=True)
def check_thm3_inequality(rngs, dims):
    """Channel-average distance never exceeds the dilated coherence ceiling."""
    _, dilations, rhos, _ = _qubit_env_cases(rngs)
    average, rhs = _theorem3_bound(dilations, _Density.of_stack(rhos))
    return [lhs - bound for lhs, bound in zip(average(), rhs)]


@_trials("thm3", "thm3-dpi-per-permutation", salt=32, trials=50, tol=1e-10, inequality=True,
         dims=2, stacked=True)
def check_thm3_dpi(rngs, dims):
    """Per-permutation contraction: system distance <= dilated distance.

    Each orbit member's distances are ``hellinger``'s, bit for bit, from the roots of its two
    outputs and the eigendata of its trial's rho and joint, taken once per trial; a trial's
    figure is the largest of its orbit terms."""
    _, dilations, rhos, joints = _qubit_env_cases(rngs)
    shape, hams = (dilations[0].sys_dim, dilations[0].env_dim), [x.hamiltonian for x in dilations]

    def excess(lam, vecs, t, joint, rho_root, rho_vecs, joint_root, joint_vecs):
        u = _eigenbasis_operators(vecs, _phases(lam, t))
        joint_s = u @ joint @ dagger(u)
        sys_dist = _hellinger(_rebuild(*_psd_sqrt_eig(_trace_second(joint_s, *shape))),
                              rho_root, rho_vecs)
        return sys_dist - _hellinger(_rebuild(*_psd_sqrt_eig(joint_s)), joint_root, joint_vecs)

    return [float(np.max(terms)) for terms in _orbit_terms(
        hams, excess, np.array([h.eigenvectors for h in hams]),
        np.array([x.duration for x in dilations], complex)[:, None], joints,
        *_psd_sqrt_eig(rhos), *_psd_sqrt_eig(joints))]


@_trials("thm3", "thm3-dilation-consistency", salt=33, trials=100, tol=1e-10, dims=2,
         stacked=True)
def check_thm3_dilation_consistency(rngs, dims):
    """Kraus action and identity-permutation dilation action agree in distance."""
    channels, dilations, rhos, joints = _qubit_env_cases(rngs)
    direct = hellinger(np.array([_apply_kraus(c, rho) for c, rho in zip(channels, rhos)]), rhos)
    hams = [dil.hamiltonian for dil in dilations]
    phases = _phases(np.array([h.levels[h.level_of] for h in hams]),
                     np.array([dil.duration for dil in dilations], complex)[:, None])
    u = _eigenbasis_operators(np.array([h.eigenvectors for h in hams]), phases)
    shape = (dilations[0].sys_dim, dilations[0].env_dim)
    via_dilation = hellinger(partial_trace(u @ joints @ dagger(u), shape, over=1), rhos)
    return np.abs(direct - via_dilation).tolist()


@_trials("thm3", "thm3-product-equality", salt=34, trials=100, tol=1e-9, dims=2, stacked=True)
def check_thm3_product_equality(rngs, dims):
    """Non-interacting dilations with the environment in a stationary state
    saturate the bound: the permutation-averaged channel distance equals the
    dilated closed form exactly."""
    eye2, env = np.eye(2), np.eye(2, dtype=complex)[0]

    def draw(i, rng):
        return (_spectrum(rng, 2, min_gap=1e-2), _ginibre(rng, (2, 2)),
                np.zeros((2, 2)) if i % 4 == 0 else np.diag(_spectrum(rng, 2, min_gap=1e-2)))

    def judge(trials, candidates):
        w, g, h_env = map(np.array, zip(*candidates))
        # V diag(w) V† as from_spectrum(w, V).matrix() forms it; np.kron(h_a, eye2) +
        # np.kron(eye2, h_env) as np.kron's broadcast products
        h_a = _rebuild(w, _haar_unitaries(g))
        h_joint = (h_a[:, :, None, :, None] * eye2[:, None, :]
                   + eye2[:, None, :, None] * h_env[:, None, :, None, :]).reshape(-1, 4, 4)
        gaps = np.diff(np.sort(np.linalg.eigvalsh(h_joint)), axis=-1)
        # keep only exactly-degenerate or safely-separated joint spectra
        keep = ~((gaps > 1e-12) & (gaps < 1e-6)).any(axis=-1)
        hams = iter(SpectralHamiltonian._build(*np.linalg.eigh(h_joint[keep])))
        return [_trusted(StinespringDilation, next(hams), 2, 2, env,
                         float(rngs[i].uniform(0.2, 2.0)))
                if ok else None for i, ok in zip(trials, keep)]

    dilations = _rounds(rngs, draw, judge)
    rhos = np.array([random_density(2, rank=int(rng.integers(1, 3)), seed=rng) for rng in rngs])
    average, rhs = _theorem3_bound(dilations, _Density.of_stack(rhos))
    return [abs(lhs - bound) for lhs, bound in zip(average(), rhs)]


@_check("thm3", "qutrit-equality-construction", salt=35, tol=1e-14, dims=3, count=lambda n: 1,
        sides={"completeness": None, "output": None, "witness": (operator.lt, TOL_ZERO)})
def check_qutrit_equality_construction(rng, trials, dims):
    """The hand-built qutrit channel: complete, correct output, zero witness."""
    channel = qutrit_equality_channel()
    completeness = channel.completeness_residual
    rho0 = pure_density(np.array([1.0, 0.0, 0.0], dtype=complex))
    target = np.diag([0.0, 0.5, 0.5]).astype(complex)
    output_err = float(np.max(np.abs(apply_kraus(channel, rho0) - target)))
    witness = equality_gap_analysis(channel, rho0).witness
    return {"": [completeness, output_err, abs(witness)], "completeness": [completeness],
            "output": [output_err], "witness": [witness]}


@_check("coherence-lemmas", "faithfulness", salt=41, tol=1e-12, trials=500, dims=range(2, 7),
        sides={"min coherent-side value": (operator.gt, 1e-12)}, count=lambda n: n)
def check_faithfulness(rng, trials, dims):
    """Coherence vanishes exactly on block-diagonal states and only there."""
    zero, coherent = [], []
    while (n := len(zero) + len(coherent)) < trials:
        d = dims(n)
        _, _, decomp = _random_decomposition(rng, d)
        rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
        if n % 2 == 0:
            zero.append(c_half(decomp.dephase(rho), decomp))
        elif np.linalg.norm(rho - decomp.dephase(rho)) >= 1e-6:   # else ambiguous: replace it
            coherent.append(c_half(rho, decomp))
    return {"": zero, "min coherent-side value": coherent}


@_trials("coherence-lemmas", "variational-identity", salt=42, trials=500, tol=1e-10,
         dims=range(2, 7))
def check_variational_identity(i, rng, d):
    """c_half equals the affinity distance to its closest incoherent state."""
    _, _, decomp = _random_decomposition(rng, d)
    rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
    sigma = closest_incoherent(rho, decomp)
    return abs(c_half(rho, decomp) - d_affinity_half(rho, sigma))


@_trials("coherence-lemmas", "block-unitary-invariance", salt=43, trials=500, tol=1e-10,
         dims=range(2, 7))
def check_block_unitary_invariance(i, rng, d):
    """Unitaries acting inside blocks leave the coherence value unchanged."""
    basis, groups, decomp = _random_decomposition(rng, d)
    u_grouped = _block_unitary(rng, basis, groups)
    rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
    rotated = u_grouped @ rho @ u_grouped.conj().T
    return abs(c_half(rotated, decomp) - c_half(rho, decomp))


@_trials("coherence-lemmas", "additivity", salt=44, trials=500, tol=1e-10,
         dims=lambda rng: int(rng.integers(2, 5)))
def check_additivity(i, rng, dims):
    """Coherence of a weighted direct sum is the weighted sum of coherences."""
    d1, d2 = dims(rng=rng), dims(rng=rng)
    _, _, dec1 = _random_decomposition(rng, d1)
    _, _, dec2 = _random_decomposition(rng, d2)
    rho = random_density(d1, rank=int(rng.integers(1, d1 + 1)), seed=rng)
    sig = random_density(d2, rank=int(rng.integers(1, d2 + 1)), seed=rng)
    p = float(rng.uniform(0.05, 0.95))
    combined = _block_diag(p * rho, (1.0 - p) * sig)
    projs = ([_block_diag(q, np.zeros((d2, d2))) for q in dec1.projectors]
             + [_block_diag(np.zeros((d1, d1)), q) for q in dec2.projectors])
    dec = OrthogonalDecomposition(tuple(projs))
    expected = p * c_half(rho, dec1) + (1.0 - p) * c_half(sig, dec2)
    return abs(c_half(combined, dec) - expected)


def _refining_pair(rng, d: int):
    """A fine decomposition plus a coarse one built by merging its groups."""
    basis = random_unitary(d, rng)
    fine_groups = _random_groups(rng, d)
    k = len(fine_groups)
    n_coarse = int(rng.integers(1, k + 1))
    labels = np.sort(rng.integers(0, n_coarse, k))
    coarse_groups = [
        [j for g, lab in zip(fine_groups, labels) if lab == c for j in g]
        for c in range(n_coarse)]
    coarse_groups = [g for g in coarse_groups if g]
    fine = OrthogonalDecomposition.from_basis(basis, fine_groups)
    coarse = OrthogonalDecomposition.from_basis(basis, coarse_groups)
    return fine, coarse


@_trials("coherence-lemmas", "refinement-order", salt=45, trials=500, tol=1e-10,
         inequality=True, dims=range(2, 7))
def check_refinement_order(i, rng, d):
    """Finer decompositions see at least as much coherence, and the
    refinement predicate itself classifies built pairs correctly."""
    fine, coarse = _refining_pair(rng, d)
    if not is_refinement(fine, coarse):
        return np.inf
    if i % 10 == 0 and d >= 2:
        other = OrthogonalDecomposition.from_basis(random_unitary(d, rng))
        fine_r1 = OrthogonalDecomposition.from_basis(random_unitary(d, rng))
        if is_refinement(fine_r1, other):
            return np.inf
    rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
    return c_half(rho, coarse) - c_half(rho, fine)


@_trials("coherence-lemmas", "l1-comparison", salt=46, trials=500, tol=1e-10,
         inequality=True, dims=range(2, 7))
def check_l1_comparison(i, rng, d):
    """c_half never exceeds 2/(d-1) times the off-diagonal absolute sum."""
    decomp = OrthogonalDecomposition.computational(d)
    rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
    return c_half(rho, decomp) - 2.0 / (d - 1.0) * c_l1(rho)


@_trials("coherence-lemmas", "dephasing-monotonicity", salt=47, trials=500, tol=1e-10,
         inequality=True, dims=range(2, 7))
def check_dephasing_monotonicity(i, rng, d):
    """Dephasing in any refining decomposition cannot raise the coherence."""
    fine, coarse = _refining_pair(rng, d)
    rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
    return c_half(fine.dephase(rho), coarse) - c_half(rho, coarse)


@_trials("coherence-lemmas", "incoherent-mixture-monotonicity", salt=48, trials=200,
         tol=1e-10, inequality=True, dims=range(2, 7))
def check_incoherent_mixture_monotonicity(i, rng, d):
    """Sampled strong monotonicity: random convex mixtures of block unitaries
    (an incoherent Kraus set) never raise the coherence."""
    basis, groups, decomp = _random_decomposition(rng, d)
    rho = random_density(d, rank=int(rng.integers(1, d + 1)), seed=rng)
    n_terms = int(rng.integers(2, 5))
    weights = rng.uniform(0.05, 1.0, n_terms)
    weights /= weights.sum()
    out = np.zeros_like(rho)
    for w in weights:
        u = _block_unitary(rng, basis, groups)
        out = out + w * (u @ rho @ u.conj().T)
    return c_half(out, decomp) - c_half(rho, decomp)


@_trials("speed-identity", "speed-identity", salt=51, trials=500, tol=1e-10, dims=range(2, 9))
def check_speed_identity(i, rng, d):
    """Gap-weighted speed equals sqrt(2) times the energy spread.

    The spread is dense on purpose: the spectral one shares the speed's
    eigenvector weights, so the check would compare them with themselves.
    """
    if i % 3 == 0 and d >= 3:
        m = int(rng.integers(2, d))
        mult = np.ones(m, dtype=int)
        for _ in range(d - m):
            mult[int(rng.integers(m))] += 1
        vals = np.repeat(_spectrum(rng, m), mult)
    else:
        vals = _spectrum(rng, d)
    ham = SpectralHamiltonian.from_spectrum(vals, random_unitary(d, rng))
    psi = haar_random_state(d, rng)
    v = instantaneous_speed(psi, ham)
    return abs(v - np.sqrt(2.0) * energy_uncertainty(psi, ham.matrix()))


# The difference quotient at interval dt errs by (dt/2) v'(t) + O(dt^2); below
# this speed slope |v'(t_mid)| the O(dt^2) term competes with the first-order
# one (the draws that failed at seeds 34, 42, 70 and 136 had 0.012 to 0.035).
_FD_SLOPE_FLOOR = 0.25


@_check("speed-identity", "fd-convergence", salt=52, tol=1.2, trials=5,
        dims=lambda rng: int(rng.integers(2, 5)), inequality=True,
        sides={"ratios": (operator.ge, 1.3)}, count=lambda n: n,
        detail=lambda columns: "ratios " + ", ".join(f"{r:.2f}" for r in columns["ratios"]))
def check_fd_convergence(rng, trials, dims):
    """Difference-quotient speeds approach the closed form linearly in the
    sampling interval.

    The trajectory is integrated on a much finer grid (midpoint-sampled,
    so the integration error is negligible) and then subsampled at each
    candidate interval: a chord whose endpoints are one integrator step
    apart is exactly a constant-Hamiltonian arc and would show the
    constant-H second order instead of the path's first order.  A trial
    redraws (up to 20 times) until the central-difference slope of the
    fine trajectory's speeds at t_mid reaches _FD_SLOPE_FLOOR.  Error
    ratios at halved intervals must lie within tol of 2 and not below 1.3.
    """
    # dt_fine must divide every sampling interval so subsampled grids
    # pass through t_mid exactly
    t_final, t_mid, dt_fine = 0.2, 0.1, 2.5e-5
    dts = (1e-3, 5e-4, 2.5e-4)
    times = np.linspace(0.0, t_final, int(round(t_final / dt_fine)) + 1)
    k_fine = int(round(t_mid / dt_fine))
    ratios = []
    for _ in range(trials):
        for _ in range(20):
            d = dims(rng=rng)
            ends = hermitianize(np.array([_nondegenerate_ham(rng, d).matrix() for _ in range(2)]))
            # Hermitian ends and a real x give exactly Hermitian samples: installed unchecked
            shifted = _trusted(HamiltonianPath, times,
                               _linear_samples(ends, t_final, times + dt_fine / 2.0))
            traj = evolve(haar_random_state(d, rng), shifted)
            slope = (traj.speeds[k_fine + 1] - traj.speeds[k_fine - 1]) / (2.0 * dt_fine)
            if abs(slope) >= _FD_SLOPE_FLOOR:
                break
        h_mid = _linear_samples(ends, t_final, np.array([t_mid]))[0]
        ref = instantaneous_speed(traj.states[k_fine], SpectralHamiltonian.from_matrix(h_mid))
        errs = []
        for dt in dts:
            stride = int(round(dt / dt_fine))
            view = Trajectory(times=traj.times[::stride],
                              states=traj.states[::stride],
                              speeds=traj.speeds[::stride],
                              uncertainties=traj.uncertainties[::stride])
            errs.append(abs(finite_difference_speed(view, int(round(t_mid / dt))) - ref))
        ratios.extend((errs[0] / errs[1], errs[1] / errs[2]))
    return {"": [abs(r - 2.0) for r in ratios], "ratios": ratios}


@_trials("speed-identity", "qubit-closed-form", salt=53, trials=1000, tol=1e-12, dims=2)
def check_qubit_closed_form(i, rng, d):
    """Two-level closed form vs direct distance between evolved pure states."""
    psi = haar_random_state(2, rng)
    lam, gam = rng.uniform(-3.0, 3.0, 2)
    t = float(rng.uniform(0.0, 8.0))
    closed = qubit_closed_form(psi[0], psi[1], lam, gam, t)
    psi_t = psi * _phases(np.array([lam, gam]), t)
    return abs(closed - hellinger(pure_density(psi), pure_density(psi_t)))


@_trials("speed-identity", "orthogonality-time", salt=54, trials=10, tol=1e-12, inequality=True,
         dims=2)
def check_orthogonality_time(i, rng, d):
    """First distance maximum lands at pi over the level gap, within one step."""
    lam0 = float(rng.uniform(-2.0, 2.0))
    gap = float(rng.uniform(0.3, 3.0))
    t_true = np.pi / gap
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho0 = pure_density(plus)
    ts = np.linspace(0.0, 1.5 * t_true, 301)
    dists = [hellinger(rho0, pure_density(
        plus * _phases(np.array([lam0, lam0 + gap]), t))) for t in ts]
    t_hat = ts[int(np.argmax(dists))]
    return abs(t_hat - t_true) - (ts[1] - ts[0])


def _battery_grid():
    tau = 1.0
    pulses = (("sin2", sin2_pulse(1.0, tau)), ("sin4", sin4_pulse(1.0, tau)),
              ("parabola", parabola_pulse(1.0, tau)))
    states = (("ground", np.array([1.0, 0.0], dtype=complex)),
              ("plus", np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)),
              ("circular", np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)))
    axes = (("x", constant_axis((1.0, 0.0, 0.0))), ("rotating-xy", rotating_axis(tau)))
    return tau, pulses, states, axes


@_check("battery-bound", "battery-trajectories", salt=63, tol=1e-9, dims=2, inequality=True,
        sides={"zero-coherence worst work": (operator.lt, 1e-10)})
def check_battery_trajectories(rng, trials, dims):
    """Every step of every scenario respects the work ceiling; steps with no
    drive-basis coherence extract nothing."""
    tau, pulses, states, axes = _battery_grid()
    excess, zero = [], []       # a scenario's figures are its worst steps
    for (_, pulse), (_, psi), (_, axis) in itertools.product(pulses, states, axes):
        run = simulate_battery(BatteryConfig(epsilon=1.0, tau=tau, dt=1e-3, pulse=pulse,
                                             drive_axis=axis), psi)
        work = np.abs(run.avg_work)
        excess.append(float(np.max(work - run.bound)))
        zero.append(float(np.max(work[run.coherence < 1e-14], initial=0.0)))
    return {"": excess, "zero-coherence worst work": zero}


@_trials("battery-bound", "battery-interaction-invariance", salt=61, trials=200, tol=1e-12,
         dims=2)
def check_battery_interaction_invariance(i, rng, d):
    """Rotating state and drive together preserves the drive-basis coherence."""
    n = rng.normal(size=3)
    v = spin_operator(n / np.linalg.norm(n))
    rho = random_density(2, rank=int(rng.integers(1, 3)), seed=rng)
    w = random_unitary(2, rng)
    c_lab = c_half(rho, SpectralHamiltonian.from_matrix(v).decomposition)
    c_rot = c_half(w @ rho @ w.conj().T,
                   SpectralHamiltonian.from_matrix(w @ v @ w.conj().T).decomposition)
    return abs(c_lab - c_rot)


@_check("battery-bound", "qudit-battery", salt=62, tol=1e-9, trials=100, dims=(3,),
        inequality=True, count=lambda n: 2 * n,
        sides={"reduction": (operator.lt, 1e-12), "diagonal work": (operator.lt, 1e-10)})
def check_qudit_battery(rng, trials, dims):
    """d-level generalization: reduces to the two-branch form, obeys its
    ceiling, and extracts nothing from drive-diagonal states."""
    dt = 1e-3
    p1 = np.diag([0.0, 1.0]).astype(complex)
    reduction = []
    for _ in range(trials):
        eps = float(rng.uniform(0.2, 2.0))
        eta = float(rng.uniform(0.1, 1.0))
        n = rng.normal(size=3)
        v = spin_operator(n / np.linalg.norm(n))
        rho = pure_density(haar_random_state(2, rng))
        avg, _ = qudit_battery_bound(rho, eps * p1, eta * v, dt)
        two_branch = avg_extracted_work(rho, eps, eta, v, dt)
        reduction.append(abs(avg - two_branch))

    d = dims()
    margin, diagonal = [], []
    for _ in range(trials):
        h0 = np.diag(np.sort(rng.uniform(0.0, 2.0, d))).astype(complex)
        eta = float(rng.uniform(0.1, 1.0))
        w = random_unitary(d, rng)
        v = eta * (w @ np.diag(np.linspace(-1.0, 1.0, d)).astype(complex) @ w.conj().T)
        rho = pure_density(haar_random_state(d, rng))
        avg, bound = qudit_battery_bound(rho, h0, v, dt)
        margin.append(abs(avg) - bound)
        probs = rng.uniform(0.1, 1.0, d)
        diag_rho = w @ np.diag(probs / probs.sum()).astype(complex) @ w.conj().T
        avg0, _ = qudit_battery_bound(diag_rho, h0, v, dt)
        diagonal.append(abs(avg0))
    return {"reduction": reduction, "bound margin": margin, "diagonal work": diagonal}


@_trials("qsl", "qsl-mt-floor", salt=71, trials=300, tol=1e-9, inequality=True,
         dims=range(2, 7))
def check_qsl_mt_floor(i, rng, d):
    """Elapsed time never beats the spread-based minimum time."""
    ham = _nondegenerate_ham(rng, d)
    psi0 = haar_random_state(d, rng)
    t = float(rng.uniform(0.05, 3.0))
    psi_t = unitary_exp(ham, t) @ psi0
    bounds = qsl_bounds(psi0, ham, psi_t)
    # no spread, no bound (a stationary state): a floor of 0, since -inf would fail the check
    return (0.0 if bounds.mt_time is None else bounds.mt_time) - t


@_trials("qsl", "qsl-ml-orthogonality", salt=72, trials=100, tol=1e-9, inequality=True,
         dims=range(2, 7))
def check_qsl_ml_orthogonality(i, rng, d):
    """At first orthogonality both minimum times hold, the mean-energy one
    tightly for equally spaced two-level spectra."""
    g = float(rng.uniform(0.3, 3.0))
    basis = random_unitary(d, rng)
    ham = SpectralHamiltonian.from_spectrum(g * np.arange(d), basis)
    psi0 = basis.sum(axis=1) / np.sqrt(d)
    t_orth = 2.0 * np.pi / (d * g)
    psi_t = unitary_exp(ham, t_orth) @ psi0
    bounds = qsl_bounds(psi0, ham, psi_t)
    if abs(bounds.bures_angle - np.pi / 2.0) > 1e-9:
        return np.inf
    return max(bounds.mt_time - t_orth, bounds.ml_time - t_orth)


def run_suite(suite: str, *, seed: int = 0, trials: int | None = None,
              dim: int | None = None, tol: float | None = None) -> list[CheckResult]:
    """Run every check of a named suite; overrides apply to all its checks."""
    if suite not in SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; choose from "
                           + ", ".join(sorted(SUITES)))
    return [fn(seed=seed, trials=trials, dim=dim, tol=tol) for fn in SUITES[suite]]


def failures_as_dicts(results) -> list[dict]:
    """Machine-readable failure list for the CLI's stderr channel."""
    return [{"check": r.name, "worst": r.worst, "tol": r.tol,
             "trials": r.trials, "detail": r.detail}
            for r in results if not r.passed]
