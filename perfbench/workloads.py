"""The three workloads: CLI commands at default settings plus a loop of library calls.

A workload object holds the generated config files and the fixed
inputs.  ``rounds`` library-call rounds are built one at a time by
``call_round``; every round has the same operations in the same order
and differs from the others only in the seeded numbers, so the input
mix and the set of operations are identical on every seed.  The timed
CLI commands (``cli_ops``) are each invoked ``CLI_REPEATS`` times in a
run and every round is made ``LOOP_REPEATS`` times.  The verify suites
too long or too noisy to repeat in a run (``trace_only_ops``) run in the
traced run only, for their spans and per-check times.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs as gen
# Library functions are called through their modules, so that the traced pass sees them.
from coherence_speed import avgdist, channels, cli, coherence, dynamics, metrics
from coherence_speed.errors import InvalidState, NotHermitian, NotPSD
from coherence_speed.linalg import OrthogonalDecomposition, SpectralHamiltonian

CIRCULAR = {"amplitudes": [[0.7071067811865476, 0.0], [0.0, 0.7071067811865476]]}


@dataclass
class CliOp:
    """One ``cli.main(argv)`` invocation; ``check(stdout, report)`` raises on a bad output."""

    label: str
    argv: list[str]
    out: Path
    check: Callable[[str, str], None]


@dataclass
class CallOp:
    """One library call.  With ``expect`` set, raising that exception is the correct outcome."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None] | None = None
    expect: tuple[type[BaseException], ...] | None = None
    kept_fault: bool = False
    case: dict | None = None        # the generated inputs, for the self-test


@dataclass
class Workload:
    name: str
    seed: int
    seconds: int
    workdir: Path
    rng: np.random.Generator = field(init=False)
    rounds: int = field(init=False)

    # rounds whose library calls take about one second on the reference machine
    ROUNDS_PER_SECOND = 1.0
    MIN_CALLS = 100
    CLI_REPEATS = 2
    LOOP_REPEATS = 6

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng([self.seed, sum(map(ord, self.name))])
        self.make_files()
        # every round is made LOOP_REPEATS times; all of them together take about
        # ``seconds`` of calls, with at least MIN_CALLS distinct calls
        self.rounds = max(int(round(self.ROUNDS_PER_SECOND * self.seconds / self.LOOP_REPEATS)),
                          -(-self.MIN_CALLS // self.CALLS_PER_ROUND))

    def schedule(self, slots: int) -> list[list[int]]:
        """The round indices to make in each of ``slots`` slots: every round LOOP_REPEATS
        times, cycling through the rounds and split evenly over the slots."""
        seq = [j for _ in range(self.LOOP_REPEATS) for j in range(self.rounds)]
        return [seq[len(seq) * s // slots:len(seq) * (s + 1) // slots] for s in range(slots)]

    def path(self, name: str) -> Path:
        return self.workdir / name

    def write_json(self, name: str, doc: dict) -> str:
        self.path(name).write_text(json.dumps(doc), encoding="utf-8")
        return str(self.path(name))

    def verify_op(self, suite: str) -> CliOp:
        out = self.path(f"verify-{suite}.csv")
        return CliOp(f"verify {suite}", ["verify", suite, "--seed", str(self.seed),
                                         "--out", str(out)], out, checks.check_verify)

    def warm_up(self) -> None:
        """One cheap invocation of each CLI command and one call of each library function."""
        commands = [["verify", "qsl", "--trials", "1"], *self.warm_up_argv()]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                if cli.main(argv + ["--out", str(self.path("warm-up.out"))]) != 0:
                    raise RuntimeError(f"warm-up of {argv[0]} failed")
        for op in self.call_round(0):
            try:
                op.run()
            except op.expect or ():
                pass

    # per-workload parts
    def make_files(self) -> None:
        raise NotImplementedError

    def warm_up_argv(self) -> list[list[str]]:
        raise NotImplementedError

    def cli_ops(self) -> list[CliOp]:
        raise NotImplementedError

    def trace_only_ops(self) -> list[CliOp]:
        return []

    def call_round(self, j: int) -> list[CallOp]:
        raise NotImplementedError

    def fault_ops(self) -> list[CallOp]:
        return []


def _avg_distance_op(case: dict) -> CallOp:
    def run():
        ham = SpectralHamiltonian.from_matrix(case["h"])
        return avgdist.avg_distance_closed(case["rho"], ham, case["t"], include_brute=True)
    return CallOp("avg_distance_closed", run, lambda res: checks.check_avg_distance(res, case),
                  case=case)


def _theorem3_op(case: dict) -> CallOp:
    def run():
        dilation = channels.dilate(channels.KrausChannel(case["kraus"]))
        return dilation, channels.theorem3_bound(dilation, case["rho"])
    return CallOp("theorem3_bound", run, lambda out: checks.check_theorem3(out, case))


class Orbit(Workload):
    """Brute-force permutation orbits: M = 2..6 levels, plain and with one doubled level."""

    ROUNDS_PER_SECOND = 6.5
    CLI_REPEATS = 4
    SHAPES = [(m, extra) for m in range(2, 7) for extra in (0, 1)]
    THEOREM3_PER_ROUND = 3    # an odd count keeps the median call inside this class
    CALLS_PER_ROUND = len(SHAPES) + THEOREM3_PER_ROUND

    def make_files(self) -> None:
        self.sweep_levels = gen.distinct_levels(self.rng, 5, min_gap=0.2)
        self.sweep_config = self.write_json("sweep.json", {"sweep": {
            "spectrum": self.sweep_levels.tolist(), "state": "maximally-coherent",
            "brute_force": True, "t_steps": 101}})
        channel = self.write_json("channel.json",
                                  gen.kraus_document(gen.random_kraus(self.rng, 2, 2)))
        self.channel_config = self.write_json("channel-config.json",
                                              {"channel": {"channel": {"path": channel}}})
        self.warm_sweep = self.write_json("warm-sweep.json", {"sweep": {
            "spectrum": [0.0, 1.0, 2.5], "t_steps": 3}})

    def warm_up_argv(self):
        return [["sweep", "--config", self.warm_sweep],
                ["channel", "--config", self.channel_config]]

    def cli_ops(self):
        sweep_out, channel_out = self.path("sweep.csv"), self.path("channel.csv")
        return [self.verify_op("thm2"), self.verify_op("thm3"),
                CliOp("sweep", ["sweep", "--config", self.sweep_config, "--seed", str(self.seed),
                                "--out", str(sweep_out)], sweep_out,
                      lambda stdout, text: checks.check_sweep(checks.csv_rows(text),
                                                              self.sweep_levels)),
                CliOp("channel", ["channel", "--config", self.channel_config,
                                  "--seed", str(self.seed), "--out", str(channel_out)],
                      channel_out,
                      lambda stdout, text: checks.check_channel(checks.csv_rows(text)))]

    def trace_only_ops(self):
        return [self.verify_op("thm1")]

    def call_round(self, j):
        rng = np.random.default_rng([self.seed, 1, j])
        ops = []
        for c, (m, extra) in enumerate(self.SHAPES):
            d = m + extra
            levels = gen.distinct_levels(rng, m)
            sizes = np.ones(m, dtype=int)
            sizes[rng.integers(m)] += extra
            groups = np.split(np.arange(d), np.cumsum(sizes)[:-1])
            values = np.repeat(levels, sizes)
            basis = gen.haar_unitary(rng, d)
            rank = 1 + (j + c) % d
            rho, psi = gen.ginibre_density(rng, d, rank)
            ops.append(_avg_distance_op({
                "h": (basis * values) @ basis.conj().T, "rho": rho, "psi": psi, "rank": rank,
                "t": float(rng.uniform(0.05, 8.0)), "levels": levels,
                "projs": checks.projectors(basis, groups),
                "reference": rank == d and m <= 4}))
        for c in range(self.THEOREM3_PER_ROUND):
            rank = 1 + (j + c) % 2
            ops.append(_theorem3_op({"kraus": gen.random_kraus(rng, 2, 2), "rank": rank,
                                     "rho": gen.ginibre_density(rng, 2, rank)[0]}))
        return ops


class Trajectory(Workload):
    """Spectral builds per grid step: battery protocols and evolve on linear paths.

    ``verify speed-identity`` is left out: its fd-convergence check fails on some seeds
    (seed 34: difference-quotient ratios 0.55 and 1.22, outside [1.3, 3.2]), so its
    failure share would depend on the seed."""

    ROUNDS_PER_SECOND = 18.0
    CLI_REPEATS = 5
    LOOP_REPEATS = 4
    DIMS = (2, 3, 4)
    STEPS = 20
    CALLS_PER_ROUND = len(DIMS)

    def make_files(self) -> None:
        self.battery_rotating = self.write_json("battery-rotating.json", {"battery": {
            "axis": "rotating-xy", "state": CIRCULAR}})
        self.warm_battery = self.write_json("warm-battery.json", {"battery": {"dt": 0.05}})

    def warm_up_argv(self):
        return [["battery", "--config", self.warm_battery]]

    def _battery_op(self, label: str, config: list[str], axis, psi0) -> CliOp:
        """Default protocol: epsilon = tau = eta_max = 1, sin^2 pulse, dt = 1e-3."""
        out = self.path(f"{label.replace(' ', '-')}.csv")

        def check(stdout, text):
            reference = checks.battery_work_ref(np.linspace(0.0, 1.0, 1001), 1e-3, 1.0,
                                                lambda t: np.sin(np.pi * t) ** 2, axis, psi0)
            checks.check_battery(checks.csv_rows(text), reference)
        return CliOp(label, ["battery", *config, "--seed", str(self.seed), "--out", str(out)],
                     out, check)

    def cli_ops(self):
        rotating = lambda t: (np.cos(2 * np.pi * t), np.sin(2 * np.pi * t), 0.0)  # noqa: E731
        circular = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        return [self._battery_op("battery", [], lambda t: (1.0, 0.0, 0.0), np.array([1.0, 0.0])),
                self._battery_op("battery rotating-xy circular",
                                 ["--config", self.battery_rotating], rotating, circular)]

    def trace_only_ops(self):
        return [self.verify_op("battery-bound")]

    def call_round(self, j):
        rng = np.random.default_rng([self.seed, 2, j])
        ops = []
        for d in self.DIMS:
            h0, h1 = gen.random_hermitian(rng, d, 1.5), gen.random_hermitian(rng, d, 1.5)
            case = {"psi0": gen.haar_state(rng, d), "steps": self.STEPS,
                    "h_of_t": lambda t, h0=h0, h1=h1: (1.0 - t) * h0 + t * h1}

            def run(case=case, h0=h0, h1=h1):
                path = dynamics.HamiltonianPath.linear(h0, h1, 1.0, steps=self.STEPS)
                return dynamics.evolve(case["psi0"], path)
            ops.append(CallOp("evolve", run, lambda tr, case=case: checks.check_evolve(tr, case)))
        return ops

    def fault_ops(self):
        """A unit gap shifted by 100: max|lambda| * dt = 2.02 trips the step guard,
        though the shift only changes a global phase."""
        h = np.diag([100.0, 101.0]).astype(complex)
        case = {"psi0": np.array([1.0, 1.0]) / np.sqrt(2.0), "h_of_t": lambda t: h, "steps": 50}
        return [CallOp("evolve shifted unit gap", lambda: dynamics.evolve(
                           case["psi0"], dynamics.HamiltonianPath.constant(h, 1.0, steps=50)),
                       lambda tr: checks.check_evolve(tr, case), kept_fault=True)]


class Measure(Workload):
    """Many cheap calls: coherence, closest incoherent state, distance, speed limits,
    and malformed densities that must be rejected.

    ``verify qsl`` is left out: its qsl-mt-floor check fails on some seeds (seed 83:
    worst 1.27e-9 against a tolerance of 1e-9), so its failure share would depend on
    the seed.  ``verify coherence-lemmas`` runs in the traced run only: one invocation
    on the CLI's default two threads varies by 15-25% between runs, host scaling does
    not remove that, and it would make up nearly all of ``cli_s`` here."""

    ROUNDS_PER_SECOND = 110.0
    CLI_REPEATS = 4
    LOOP_REPEATS = 5
    DIMS = tuple(range(2, 9))
    CALLS_PER_ROUND = 4 * len(DIMS) + 3
    DEAD_BAND = (2e-11, 5e-11, 8e-11)

    def make_files(self) -> None:
        self.qsl_config = self.write_json("qsl.json", {"qsl": {"spectrum": [0.0, 1.0],
                                                               "state": "plus"}})
        self.warm_qsl = self.write_json("warm-qsl.json", {"qsl": {"spectrum": [0.0, 1.0],
                                                                  "t_steps": 3}})

    def warm_up_argv(self):
        return [["qsl", "--config", self.warm_qsl, "--format", "json"]]

    def cli_ops(self):
        out = self.path("qsl.json.out")
        return [CliOp("qsl", ["qsl", "--config", self.qsl_config, "--format", "json",
                              "--seed", str(self.seed), "--out", str(out)], out,
                      lambda stdout, text: checks.check_qsl_report(checks.json_rows(text)))]

    def trace_only_ops(self):
        return [self.verify_op("coherence-lemmas")]

    def call_round(self, j):
        rng = np.random.default_rng([self.seed, 3, j])
        ops = []
        for c, d in enumerate(self.DIMS):
            rank, rank2 = 1 + (j + c) % d, 1 + (j + c + 1) % d
            rho, sqrt_rho = gen.spectral_density(rng, d, rank)
            sigma, sqrt_sigma = gen.spectral_density(rng, d, rank2)
            if rank == d:
                sqrt_rho = checks.sqrt_psd(rho)
            if rank2 == d:
                sqrt_sigma = checks.sqrt_psd(sigma)
            basis = gen.haar_unitary(rng, d)
            projs = checks.projectors(basis, gen.partition(rng, d, 2 + (j + c) % (d - 1)))
            case = {"rho": rho, "sqrt_rho": sqrt_rho, "sqrt_sigma": sqrt_sigma, "rank": rank,
                    "psi": np.linalg.eigh(rho)[1][:, -1], "projs": projs}
            qsl = {"levels": gen.distinct_levels(rng, d), "basis": gen.haar_unitary(rng, d),
                   "psi0": gen.haar_state(rng, d), "psi1": gen.haar_state(rng, d)}
            ops += [
                CallOp("c_half", lambda rho=rho, projs=projs:
                       coherence.c_half(rho, OrthogonalDecomposition(tuple(projs))),
                       lambda val, case=case: checks.check_c_half(val, case)),
                CallOp("closest_incoherent", lambda rho=rho, projs=projs:
                       coherence.closest_incoherent(rho, OrthogonalDecomposition(tuple(projs))),
                       lambda val, case=case: checks.check_closest_incoherent(val, case)),
                CallOp("hellinger", lambda rho=rho, sigma=sigma: metrics.hellinger(rho, sigma),
                       lambda val, case=case: checks.check_hellinger(val, case)),
                CallOp("qsl_bounds", lambda q=qsl: metrics.qsl_bounds(
                    q["psi0"], SpectralHamiltonian.from_spectrum(q["levels"], q["basis"]),
                    q["psi1"]), lambda val, q=qsl: checks.check_qsl_bounds(val, q)),
            ]
        ops += self._malformed(rng, self.DIMS[j % len(self.DIMS)])
        return ops

    def _malformed(self, rng, d: int) -> list[CallOp]:
        """Non-Hermitian, negative-eigenvalue and wrong-trace densities."""
        projs = tuple(checks.projectors(np.eye(d, dtype=complex), [[k] for k in range(d)]))
        rho, _ = gen.spectral_density(rng, d, d)
        skew = rho.copy()
        skew[0, 1] += 1e-3
        v = gen.haar_unitary(rng, d)
        w = np.full(d, 1.0 / (d - 1))
        w[0] = -0.05
        w /= w.sum()
        negative = (v * w) @ v.conj().T
        cases = [(skew, NotHermitian), ((negative + negative.conj().T) / 2, NotPSD),
                 (1.5 * rho, InvalidState)]
        return [CallOp("c_half malformed",
                       lambda bad=bad: coherence.c_half(bad, OrthogonalDecomposition(projs)),
                       expect=(exc,)) for bad, exc in cases]

    def fault_ops(self):
        """PSD dead band: eigenvalues below 1e-10 are zeroed, so the distance reads exactly 2."""
        def run():
            return [metrics.hellinger(np.diag([1.0 - e, e]), np.diag([e, 1.0 - e]))
                    for e in self.DEAD_BAND]
        return [CallOp("hellinger dead band", run,
                       lambda vals: checks.check_hellinger_dead_band(vals, self.DEAD_BAND),
                       kept_fault=True)]


WORKLOADS = {"orbit": Orbit, "trajectory": Trajectory, "measure": Measure}
