"""Self-test of the benchmark's output checks: none of them may be vacuous.

    python3 perfbench/selftest.py

Each check first sees a real program output and must accept it, then
sees copies perturbed in one place (a value off by 1e-8, a row over its
bound, a report body one byte longer, ...) and must reject each one.
Also checks that BENCHMARK.json names exactly the metrics run.py prints.
Exits nonzero when any case goes the wrong way.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import run

run.import_package()

import checks  # noqa: E402
import workloads  # noqa: E402
from coherence_speed import cli  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(label: str, check, good, bads: dict) -> None:
    """check(good) must pass; check(bad) must raise CheckFailed for every bad."""
    try:
        check(good)
        RESULTS.append((f"{label}: accepts the real output", True))
    except checks.CheckFailed as exc:
        RESULTS.append((f"{label}: accepts the real output ({exc})", False))
    for what, bad in bads.items():
        try:
            check(bad)
            RESULTS.append((f"{label}: rejects {what}", False))
        except checks.CheckFailed:
            RESULTS.append((f"{label}: rejects {what}", True))


def shifted_row(rows: list[dict], index: int, **changes) -> list[dict]:
    out = [dict(r) for r in rows]
    for key, delta in changes.items():
        out[index][key] = out[index][key] + delta
    return out


def cli_report(wl, argv: list[str]) -> tuple[int, str, str]:
    out = wl.path("selftest-report")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv + ["--out", str(out)])
    return rc, buf.getvalue(), out.read_text(encoding="utf-8")


def test_cli(wl) -> None:
    rc, stdout, report = cli_report(wl, ["verify", "thm2", "--trials", "3"])
    expect("verify", lambda x: checks.check_verify(*x), (stdout, report), {
        "a FAIL line": (stdout.replace("PASS", "FAIL", 1), report),
        "a report row not passed": (stdout, report.replace(",true,", ",false,", 1)),
    })
    op = wl.verify_op("thm2")
    RESULTS.append(("verify: rejects exit code 1", run.judge_cli(op, 1, stdout, report) is not None))
    RESULTS.append(("verify: rejects a missing report",
                    run.judge_cli(op, 0, stdout, None) is not None))
    body = report.splitlines(keepends=True)
    expect("report body", lambda other: checks.check_same_body(report, other),
           "".join("# other metadata\n" if line.startswith("#") else line for line in body), {
               "one byte more": report + " ",
               "one byte changed": report[:-2] + ("0" if report[-2] != "0" else "1") + "\n",
           })

    levels = [0.0, 0.7, 1.5, 2.2, 3.6]
    config = wl.write_json("selftest-sweep.json", {"sweep": {
        "spectrum": levels, "state": "maximally-coherent", "t_steps": 9}})
    rows = checks.csv_rows(cli_report(wl, ["sweep", "--config", config])[2])
    expect("sweep", lambda r: checks.check_sweep(r, levels), rows, {
        "sbar_brute shifted by 1e-8": shifted_row(rows, 4, sbar_brute=1e-8),
        "sbar_closed shifted by 1e-8": shifted_row(rows, 4, sbar_closed=1e-8),
        "no rows": [],
    })

    rows = checks.csv_rows(cli_report(wl, ["channel", "--config", wl.channel_config])[2])
    row = rows[0]
    expect("channel", checks.check_channel, rows, {
        "average above its ceiling": shifted_row(
            rows, 0, avg_channel_distance=row["coherence_ceiling"] - row["avg_channel_distance"]
            + 1e-8),
        "system distance above the dilated one": shifted_row(
            rows, 0, system_distance=row["dilated_distance"] - row["system_distance"] + 1e-8),
    })

    qsl_config = wl.write_json("selftest-qsl.json", {"qsl": {"spectrum": [0.0, 1.0]}})
    rows = checks.json_rows(cli_report(wl, ["qsl", "--config", qsl_config, "--format", "json"])[2])
    expect("qsl report", checks.check_qsl_report, rows, {
        "mt_time off by 1e-11": shifted_row(rows, 50, mt_time=1e-11),
        "ml_time off by 1e-11": shifted_row(rows, 50, ml_time=1e-11),
        "bures_angle off by 1e-11": shifted_row(rows, 50, bures_angle=1e-11),
    })


def test_battery(wl) -> None:
    rows = checks.csv_rows(cli_report(wl, ["battery"])[2])
    reference = checks.battery_work_ref(np.linspace(0.0, 1.0, 1001), 1e-3, 1.0,
                                        lambda t: np.sin(np.pi * t) ** 2,
                                        lambda t: (1.0, 0.0, 0.0), np.array([1.0, 0.0]))
    k = 500
    expect("battery", lambda x: checks.check_battery(*x), (rows, reference), {
        "a row over its bound": (shifted_row(
            rows, k, bound=abs(rows[k]["avg_work"]) - rows[k]["bound"] - 1e-8), reference),
        "cumulative work off by 1e-11": (shifted_row(rows, k, cumulative_work=1e-11), reference),
        "final work off the expm integration by 1e-8": (rows, reference + 1e-8),
    })


def test_orbit_calls(wl) -> None:
    for j in range(4):
        for op in wl.call_round(j):
            res = op.run()
            if op.name == "theorem3_bound":
                dil, (lhs, rhs) = res
                fake = SimpleNamespace(env_dim=dil.env_dim, hamiltonian=SimpleNamespace(
                    matrix=lambda h=dil.hamiltonian.matrix(): h + 1e-6 * np.eye(len(h))[::-1]))
                expect(f"theorem3 round {j}", op.check, res, {
                    "average above the ceiling": (dil, (rhs + 1e-6, rhs)),
                    "average off by 1e-8": (dil, (lhs + 1e-8, rhs)),
                    "ceiling off by 1e-8": (dil, (lhs, rhs + 1e-8)),
                    "a dilation that is not the channel": (fake, (lhs, rhs)),
                })
                continue
            bads = {"brute force off by 1e-8": dataclasses.replace(
                        res, brute_force=res.brute_force + 1e-8),
                    "coefficient off by 1e-11": dataclasses.replace(
                        res, coefficient=res.coefficient + 1e-11)}
            if op.case["rank"] == 1 or op.case["reference"]:
                bads["brute force and closed form both off by 1e-8"] = dataclasses.replace(
                    res, brute_force=res.brute_force + 1e-8, closed_form=res.closed_form + 1e-8)
            expect(f"avg_distance round {j} rank {op.case['rank']}", op.check, res, bads)


def test_trajectory_calls(wl) -> None:
    for op in wl.call_round(0) + wl.fault_ops():
        if op.kept_fault:
            # the exact trajectory: phases exp(-i 100 t), exp(-i 101 t); spread 1/2 throughout
            times = np.linspace(0.0, 1.0, 51)
            states = np.exp(-1j * np.outer(times, [100.0, 101.0])) / np.sqrt(2.0)
            good = SimpleNamespace(times=times, states=states, speeds=np.full(51, np.sqrt(0.5)),
                                   uncertainties=np.full(51, 0.5))
            expect("shifted evolve", op.check, good, {
                "end state off by 1e-9": SimpleNamespace(**{**vars(good),
                                                            "states": states + 1e-9})})
            continue
        traj = op.run()
        end = traj.states.copy()
        end[-1, 0] += 1e-9
        speeds = traj.speeds.copy()
        speeds[7] += 1e-9
        expect(f"evolve d={traj.states.shape[1]}", op.check, traj, {
            "end state off by 1e-9": dataclasses.replace(traj, states=end),
            "a speed off by 1e-9": dataclasses.replace(traj, speeds=speeds),
            "a shorter grid": dataclasses.replace(traj, times=traj.times[:-1]),
        })


def test_measure_calls(wl) -> None:
    for j in range(3):
        for op in wl.call_round(j):
            if op.expect is not None:
                RESULTS.append((f"{op.name}: rejects a returned value",
                                run.judge_call(op, 0.5, None) is not None))
                RESULTS.append((f"{op.name}: rejects the wrong exception",
                                run.judge_call(op, None, ValueError("x")) is not None))
                continue
            res = op.run()
            if op.name == "qsl_bounds":
                bads = {f"{f} off by 1e-7": dataclasses.replace(res, **{f: getattr(res, f) + 1e-7})
                        for f in ("bures_angle", "mean_energy", "energy_stddev",
                                  "mt_time", "ml_time")}
            elif op.name == "closest_incoherent":
                bad = res.copy()
                bad[0, 0] += 1e-8
                bads = {"one entry off by 1e-8": bad}
            else:
                bads = {"value off by 1e-8": res + 1e-8}
            expect(f"{op.name} round {j}", op.check, res, bads)
    op = wl.fault_ops()[0]
    exact = [2.0 * (1.0 - 2.0 * np.sqrt(e * (1.0 - e))) for e in wl.DEAD_BAND]
    expect("hellinger dead band", op.check, exact, {"the value 2.0": [2.0] * len(exact)})


def test_benchmark_json() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    RESULTS.append(("BENCHMARK.json end_to_end matches run.py", listed == run.END_TO_END))
    listed = {m["name"]: m["unit"] for m in doc["per_layer"]}
    RESULTS.append(("BENCHMARK.json per_layer matches run.py", listed == run.per_layer_names()))
    RESULTS.append(("BENCHMARK.json workloads match run.py",
                    [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)))


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        orbit = workloads.Orbit("orbit", 5, 4, workdir)
        trajectory = workloads.Trajectory("trajectory", 5, 1, workdir)
        test_cli(orbit)
        test_battery(orbit)
        test_orbit_calls(orbit)
        test_trajectory_calls(trajectory)
        test_measure_calls(workloads.Measure("measure", 5, 3, workdir))
        test_benchmark_json()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = [label for label, ok in RESULTS if not ok]
    for label in bad:
        print(f"FAIL {label}")
    print(f"selftest: {len(RESULTS) - len(bad)} of {len(RESULTS)} cases as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
