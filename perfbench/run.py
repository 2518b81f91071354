"""Benchmark of coherence-speed: CLI commands at default settings plus library-call loops.

    python3 perfbench/run.py --workload {orbit,trajectory,measure} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The package is imported from that
checkout's ``src/``; the run refuses to measure any other copy.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics, their times scaled to the reference machine's speed (``HostSpeed``),
with ``--trace 1`` the per-layer metrics of a separate traced pass.  Both
carry the counts of operations attempted and failed.
"""

from __future__ import annotations

import os

# One BLAS thread: the CLI's trial loops already use one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs as gen  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench-spans"

END_TO_END = {"setup_s": "s", "cli_s": "s", "calls_per_s": "1/s", "call_p50_ms": "ms",
              "call_p90_ms": "ms", "peak_rss_mb": "MB"}


def import_package():
    """Import coherence_speed from this checkout's src/, or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        import coherence_speed
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import coherence_speed from {SRC}: {exc}")
    where = Path(coherence_speed.__file__).resolve().parent
    print(f"perfbench: coherence_speed imported from {where}", flush=True)
    if where != (SRC / "coherence_speed").resolve():
        sys.exit(f"perfbench: refusing to measure {where}; expected {SRC / 'coherence_speed'}")
    return coherence_speed


class Ledger:
    """Outcome of every operation: attempted, failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[tuple[str, str, bool]] = []    # (operation, reason, kept fault)

    def record(self, label: str, reason: str | None, kept_fault: bool = False) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append((label, reason, kept_fault))


def run_cli(cli, op) -> tuple[float, int, str, str | None]:
    """Invoke cli.main in-process; returns (seconds, exit code, stdout, report text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(op.argv)
        elapsed = time.perf_counter() - start
    report = op.out.read_text(encoding="utf-8") if op.out.exists() else None
    op.out.unlink(missing_ok=True)
    return elapsed, rc, out.getvalue(), report


# what a check raises on a wrong or malformed output (a missing column, a None, no rows)
OUTPUT_ERRORS = (checks.CheckFailed, KeyError, ValueError, TypeError, IndexError)


def judge_cli(op, rc: int, stdout: str, report: str | None) -> str | None:
    """Why a CLI operation failed, or None."""
    if rc != 0:
        return f"exit code {rc}"
    if report is None:
        return "no report written"
    try:
        op.check(stdout, report)
    except OUTPUT_ERRORS as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def judge_call(op, result, error: BaseException | None) -> str | None:
    """Why a library call failed, or None."""
    if op.expect is not None:
        if isinstance(error, op.expect):
            return None
        got = type(error).__name__ if error else "a result"
        return f"expected {op.expect[0].__name__}, got {got}"
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    try:
        op.check(result)
    except OUTPUT_ERRORS as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def call(op):
    """Run one library call; an exception is its outcome, not the benchmark's."""
    try:
        return op.run(), None
    except Exception as exc:  # noqa: BLE001 - a raising call is a counted failure
        return None, exc


class HostSpeed:
    """How fast the host runs this kind of work at the moment.

    The host this was tuned on runs the same work up to 1.7x slower in stretches of
    seconds to minutes, longer than a run.  ``factor()`` times a fixed benchmark-side
    kernel of the program's kind of work: ``checks.orbit_average_ref`` on fixed 4-level
    inputs, i.e. scipy ``expm`` and ``sqrtm`` and small products in a Python loop.  It
    returns NOMINAL over the kernel's time, so a wall time measured next to it, times
    the factor, is that time at the reference machine's speed.  The kernel calls numpy
    and scipy only, never the program, so the program's speed does not enter it.
    """

    NOMINAL = 2.4e-3    # s, one kernel run on the reference machine in a quiet stretch

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        basis = gen.haar_unitary(rng, 4)
        rho, _ = gen.ginibre_density(rng, 4, 4)
        self.args = (rho, checks.sqrt_psd(rho), [0.0, 1.0, 2.5, 3.2],
                     checks.projectors(basis, [[k] for k in range(4)]), 1.3)

    def factor(self) -> float:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            checks.orbit_average_ref(*self.args)
            times.append(time.perf_counter() - start)
        return self.NOMINAL / statistics.median(times)


class Pass:
    """Every operation of a workload: each CLI command ``repeats`` times, every round of
    library calls ``wl.LOOP_REPEATS`` times, then the kept faults once.

    The rounds are spread evenly over the slots before, between and after the CLI
    commands, so the repeats of each operation fall seconds to tens of seconds apart.
    With ``host`` given, every CLI invocation, block of rounds and set-up probe is
    timed between two host-speed readings and its times are scaled by their mean; the
    unscaled times are kept as well.  A report body must be byte-identical between two
    invocations in one run: the same command's earlier invocation in this pass, else its
    body in ``previous`` when given.
    """

    def __init__(self, wl, cli, ledger: Ledger, tracer=None, previous: dict | None = None,
                 repeats: int = 1, extra=(), host: HostSpeed | None = None, probe=None):
        self.wl, self.cli, self.ledger = wl, cli, ledger
        self.tracer, self.previous = tracer, previous
        self.repeats, self.extra, self.host, self.probe = repeats, extra, host, probe
        # scaled and unscaled seconds of each CLI invocation, call, and set-up probe
        self.cli_times: dict[str, list[float]] = {}
        self.cli_raw: dict[str, list[float]] = {}
        self.latencies: dict[tuple[int, int], list[float]] = {}  # key (round, position)
        self.latencies_raw: dict[tuple[int, int], list[float]] = {}
        self.setups: list[float] = []
        self.setups_raw: list[float] = []
        self.factors: list[float] = []
        self.reports: dict[str, str | None] = {}
        self._round_ops: dict[int, list] = {}
        self._op_ids = itertools.count()

    def _start_op(self) -> None:
        op_id = next(self._op_ids)
        if self.tracer:
            self.tracer.op = op_id

    def _scale(self) -> float:
        """Mean of the host-speed readings before and after what was just timed."""
        if self.host is None:
            return 1.0
        self.factors.append(self.host.factor())
        return (self.factors[-2] + self.factors[-1]) / 2.0

    def run(self) -> "Pass":
        """The set-up ``probe``, when given, runs before every repeat of the CLI commands
        and once after the last.  ``extra`` commands run once, first."""
        for op in self.extra:
            self._cli(op)
        ops = self.wl.cli_ops()
        timed = [op for _ in range(self.repeats) for op in ops]
        if self.host is not None:
            self.factors.append(self.host.factor())
        for slot, rounds in enumerate(self.wl.schedule(len(timed) + 1)):
            if self.probe and slot % len(ops) == 0:
                elapsed = self.probe()
                self.setups_raw.append(elapsed)
                self.setups.append(elapsed * self._scale())
            self._rounds(rounds)
            if slot < len(timed):
                self._cli(timed[slot])
        for op in self.wl.fault_ops():
            self._start_op()
            result, error = call(op)
            self.ledger.record(op.name, judge_call(op, result, error), kept_fault=op.kept_fault)
        return self

    @staticmethod
    def cli_sum(times: dict[str, list[float]]) -> float:
        """Summed over the commands, the median invocation of each."""
        return sum(statistics.median(t) for t in times.values())

    @staticmethod
    def per_call(latencies: dict[tuple[int, int], list[float]]) -> list[float]:
        """Per library call, the median of its repeats."""
        return [statistics.median(t) for t in latencies.values()]

    def _cli(self, op) -> None:
        self._start_op()
        elapsed, rc, stdout, report = run_cli(self.cli, op)
        self.cli_raw.setdefault(op.label, []).append(elapsed)
        self.cli_times.setdefault(op.label, []).append(elapsed * self._scale())
        reason = judge_cli(op, rc, stdout, report)
        other = self.reports.get(op.label, (self.previous or {}).get(op.label))
        if reason is None and other is not None:
            try:
                checks.check_same_body(report, other)
            except checks.CheckFailed as exc:
                reason = str(exc)
        self.ledger.record(op.label, reason)
        self.reports[op.label] = report

    def _rounds(self, rounds: list[int]) -> None:
        block = []
        for j in rounds:
            if j not in self._round_ops:
                self._round_ops[j] = self.wl.call_round(j)
            ops = self._round_ops[j]
            results = []
            for c, op in enumerate(ops):
                self._start_op()
                start = time.perf_counter()
                results.append(call(op))
                block.append(((j, c), time.perf_counter() - start))
            for op, (result, error) in zip(ops, results):
                self.ledger.record(op.name, judge_call(op, result, error))
        scale = self._scale()
        for key, elapsed in block:
            self.latencies_raw.setdefault(key, []).append(elapsed)
            self.latencies.setdefault(key, []).append(elapsed * scale)


def build(args, workdir: Path):
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.workload, args.seed, args.seconds, workdir)
    wl.warm_up()
    return wl


def setup_probe(args):
    """A function that times one fresh interpreter which imports, generates inputs and warms up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]

    def probe() -> float:
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
        return time.perf_counter() - start
    return probe


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, wl, cli) -> tuple[Ledger, dict]:
    """One pass with set-up probes, every time scaled to the reference machine's speed.

    Each figure is a median: of the set-up probes, of each command's invocations (then
    summed over the commands), of each library call's repeats (then taken over the
    distinct calls).  The same figures unscaled are printed above the result."""
    ledger = Ledger()
    res = Pass(wl, cli, ledger, repeats=wl.CLI_REPEATS, host=HostSpeed(),
               probe=setup_probe(args)).run()
    values = call_figures(Pass.per_call(res.latencies))
    values["setup_s"] = statistics.median(res.setups)
    values["cli_s"] = Pass.cli_sum(res.cli_times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = call_figures(Pass.per_call(res.latencies_raw))
    print(f"perfbench: {len(res.latencies)} library calls ({wl.rounds} rounds of "
          f"{len(res.latencies) // wl.rounds}), each made {wl.LOOP_REPEATS} times; "
          f"{len(res.cli_times)} CLI commands, each invoked {wl.CLI_REPEATS} times")
    print(f"perfbench: host speed factor median {statistics.median(res.factors):.4f} "
          f"(range {min(res.factors):.4f}-{max(res.factors):.4f}, {len(res.factors)} readings); "
          f"unscaled: setup_s {statistics.median(res.setups_raw):.4f}, "
          f"cli_s {Pass.cli_sum(res.cli_raw):.4f}, calls_per_s {raw['calls_per_s']:.4f}, "
          f"call_p50_ms {raw['call_p50_ms']:.4f}, call_p90_ms {raw['call_p90_ms']:.4f}")
    return ledger, {k: (values[k], unit) for k, unit in END_TO_END.items()}


def call_figures(lat: list[float]) -> dict[str, float]:
    return {"calls_per_s": len(lat) / sum(lat),
            "call_p50_ms": statistics.median(lat) * 1e3,
            "call_p90_ms": percentile(lat, 90) * 1e3}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in the order BENCHMARK.json lists them."""
    import micro
    names = {}
    for name in spans.TRACED:
        names[f"{name}.calls"] = "count"
        names[f"{name}.self_s"] = "s"
    for name in spans.COUNTS:
        names[name] = "count"
    for check in CHECKS:
        names[f"check.{check}.s"] = "s"
    for name in micro.names():
        names[name] = "us"
    names["trace.spans"] = "count"
    names["trace.overhead"] = "ratio"
    return names


# the checks of the five verify suites the workloads run, as their CheckResults name them
CHECKS = (
    "thm1-equality", "benchmark-identity", "coefficient-independence",
    "max-coherent-dominance", "coefficient-grid", "thm2-equality", "thm3-inequality",
    "thm3-dpi-per-permutation", "thm3-dilation-consistency", "thm3-product-equality",
    "qutrit-equality-construction", "faithfulness", "variational-identity",
    "block-unitary-invariance", "additivity", "refinement-order", "l1-comparison",
    "dephasing-monotonicity", "incoherent-mixture-monotonicity", "battery-trajectories",
    "battery-interaction-invariance", "qudit-battery",
)


def capture_checks(cli):
    """Wrap the CLI's run_suite so the CheckResults it returns are kept."""
    results = []
    original = cli.run_suite

    def capturing(*a, **k):
        out = original(*a, **k)
        results.extend(out)
        return out
    cli.run_suite = capturing
    return results, original


def per_layer(args, wl, cli) -> tuple[Ledger, dict]:
    """An untraced pass, then a traced pass of the same operations, then the micro-benchmarks.
    Each pass runs the trace-only verify suites and invokes every timed CLI command once."""
    import micro
    ledger = Ledger()
    captured, original = capture_checks(cli)
    try:
        start = time.perf_counter()
        first = Pass(wl, cli, ledger, extra=wl.trace_only_ops()).run()
        untraced_s = time.perf_counter() - start
    finally:
        cli.run_suite = original
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        Pass(wl, cli, ledger, tracer, previous=first.reports, extra=wl.trace_only_ops()).run()
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(SPAN_DIR / f"{args.workload}-seed{args.seed}.tsv")
    if tracer.missing:
        print("perfbench: not found for tracing: " + ", ".join(tracer.missing))
    units = per_layer_names()
    values = dict.fromkeys(units, 0.0)
    for name, (calls, self_s) in tracer.summary().items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values.update(tracer.counts)
    for res in captured:
        if f"check.{res.name}.s" in values:
            values[f"check.{res.name}.s"] = res.elapsed
    values.update(micro.run(args.seed))
    values["trace.spans"] = len(tracer.spans)
    values["trace.overhead"] = traced_s / untraced_s
    print(f"perfbench: traced pass {traced_s:.2f} s against untraced {untraced_s:.2f} s")
    return ledger, {k: (values[k], units[k]) for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("orbit", "trajectory", "measure"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    from coherence_speed import cli

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = build(args, workdir)
        if args.setup_only:
            return 0
        ledger, metrics = (per_layer if args.trace else end_to_end)(args, wl, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = [f for f in ledger.failures if not f[2]]
    print(f"perfbench: workload {args.workload}, seed {args.seed}: "
          f"{ledger.attempted} operations attempted, {len(ledger.failures)} failed")
    for label, reason, kept in ledger.failures:
        print(f"  FAILED {'(kept fault) ' if kept else ''}{label}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    print(json.dumps({"correct": not unexpected, "attempted": ledger.attempted,
                      "failed": len(ledger.failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
