"""Repository benchmark: plan_sweep, serve_learned and fleet_power.

Run from the repository root::

    python3 perfbench/run.py --workload plan_sweep --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 14

Each workload decides a fixed input set generated from ``--seed``;
``--seconds`` sizes that set (see ``inputs.py``) and is never a deadline,
so two commits run with the same arguments decide identical inputs.
Everything runs inline in this process with one BLAS thread, pinned to
one CPU; only the extra set-ups timed for ``setup_s`` run as fresh child
processes on the same CPU, one at a time, after the timed operations.
Timings are scaled to a reference host speed by a calibration loop run
around each operation (see ``calibration.py``); the meta line keeps the
unscaled wall times.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
workload untraced and then traced (``tracing.py``) and prints the
per-layer metrics with the tracing overhead.  A table for readers comes
first, then one ``meta`` line with the host-noise record (the calibration
loop's readings and the load average), and the result as the last line
of standard output.  A failed output check or an exception counts as a
failed operation in that result; the exit code is non-zero only when no
result could be produced.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from calibration import REFERENCE_MS, HostClock, Timing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# ``--workload all`` runs them in this order: serve_learned, whose
# training sets the process's peak RSS, goes last.
WORKLOAD_NAMES = ("plan_sweep", "fleet_power", "serve_learned")
SETUP_CHILDREN = 2          # fresh set-ups timed beside this process's

E2E_UNITS = {
    "decision_ms_p50": "ms",
    "sessions_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Decision outcomes, deterministic per seed.  Not every workload has all
# of them, so they are printed in the table and reported with the
# per-layer metrics instead of as end-to-end metrics.
OUTCOME_UNITS = {"norm_throughput": "x", "min_potential": "ratio",
                 "sla_violation_pct": "%", "over_cap_ws": "W.s"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program() -> float:
    """Import the program from this checkout; seconds since start-up."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro
    import workloads  # noqa: F401  (imports every layer the runs use)

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}")
    return time.perf_counter() - _T0


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    The VM's two CPUs can run at different speeds at the same moment, so
    the calibration loop must read the CPU the timed operations run on.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def warm_up() -> None:
    """One default-backend solve before any set-up is timed, so a
    first-use native solver build lands neither in ``setup_s`` nor in the
    timed operations."""
    from repro.hw import orange_pi_5
    from repro.mapping.mapping import gpu_only_mapping
    from repro.sim import EvaluationCache
    from repro.zoo import MODEL_POOL, get_model

    platform = orange_pi_5()
    models = [get_model(name) for name in MODEL_POOL[:3]]
    EvaluationCache(platform).simulate(models, [gpu_only_mapping(models)])


def child_setup(args, name: str, clock):
    """``setup_s`` of a fresh process doing ``name``'s set-up, as a
    :class:`Timing` scaled by loop readings taken just before and after."""
    since = len(clock.readings)
    clock.reading()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--setup-sample", "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        capture_output=True, text=True, timeout=60, check=True)
    raw = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
    clock.reading()
    return Timing(raw, clock.scale(raw, since))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def e2e_metrics(result, setup, scaled: bool = True) -> dict:
    """End-to-end metrics and outcomes: ``{name: (value, unit, samples)}``.

    ``setup`` are the :class:`Timing` samples of set-up; ``scaled=False``
    gives the unscaled wall-time readings of the same metrics.
    """
    def pick(timing):
        return timing.scaled_s if scaled else timing.raw_s

    decisions = [pick(t) for t in result.decision]
    wall = pick(result.wall)
    out = {
        "decision_ms_p50": (statistics.median(decisions) * 1e3
                            if decisions else 0.0, "ms", len(decisions)),
        "sessions_per_s": (result.ops / wall if wall else 0.0, "1/s",
                           result.ops),
        "setup_s": (statistics.median(pick(t) for t in setup), "s",
                    len(setup)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    for key, unit in OUTCOME_UNITS.items():
        if key in result.quality:
            out[key] = (result.quality[key], unit, result.samples[key])
    return out


def noise_record(clock, loadavg) -> dict:
    """The host-noise record of a run: loop readings and load averages."""
    readings = clock.readings
    return {"calibration_ms": {
                "reference": REFERENCE_MS, "count": len(readings),
                "first": readings[0], "last": readings[-1],
                "median": statistics.median(readings),
                "min": min(readings), "max": max(readings)},
            "loadavg": loadavg}


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    ordered = sorted(values)
    for pct in (90, 99, 99.9):
        if len(ordered) * (100 - pct) / 100 >= 10:
            index = min(len(ordered) - 1,
                        int(round(pct / 100 * (len(ordered) - 1))))
            best = (pct, ordered[index])
    return best


def print_table(rows) -> None:
    """rows: (workload, metric, value, unit, samples, attempted, failed)."""
    header = ("workload", "metric", "value", "unit", "samples",
              "attempted", "failed")
    print("{:<14} {:<34} {:>14} {:<6} {:>8} {:>9} {:>6}".format(*header))
    for w, m, v, u, n, a, f in rows:
        print(f"{w:<14} {m:<34} {v:>14.6g} {u:<6} {n:>8} {a:>9} {f:>6}")


def run_untraced(args, name: str, import_s: float) -> tuple[list, dict]:
    """One end-to-end run of workload ``name``; returns (rows, meta)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    warm_up()
    start = time.perf_counter()
    state = workload.build(args.seed, args.seconds)
    raw_setup = import_s + time.perf_counter() - start
    clock = HostClock()
    loadavg = [os.getloadavg()]
    clock.reading()
    setup = [Timing(raw_setup, clock.scale(raw_setup, 0))]
    result = workload.run(state, clock)
    for _ in range(SETUP_CHILDREN):
        setup.append(child_setup(args, name, clock))
    loadavg.append(os.getloadavg())
    metrics = e2e_metrics(result, setup)
    rows = [(name, key, value, unit, samples, result.attempted,
             result.failed) for key, (value, unit, samples)
            in metrics.items()]
    tail = high_percentile([t.scaled_s for t in result.decision])
    if tail is not None:
        rows.append((name, f"decision_ms_p{tail[0]:g}", tail[1] * 1e3, "ms",
                     len(result.decision), result.attempted,
                     result.failed))
    wall = {key: value for key, (value, _, _) in
            e2e_metrics(result, setup, scaled=False).items()
            if key in ("decision_ms_p50", "sessions_per_s", "setup_s")}
    meta = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "input_digest": state["digest"], "output_digest": result.digest,
            "unscaled": wall, **noise_record(clock, loadavg),
            "attempted": result.attempted, "failed": result.failed}
    return rows, meta


def run_traced(args, name: str, import_s: float) -> tuple[list, dict]:
    """Untraced then traced run of ``name``; per-layer rows and meta."""
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    warm_up()
    state = workload.build(args.seed, args.seconds)
    noise, loadavg = HostClock(), [os.getloadavg()]
    noise.reading()
    # Unscaled: the layer times are read against each other.
    clock = HostClock(calibrated=False)
    plain = workload.run(state, clock)
    tracer = tracing.Tracer()
    with tracer:
        traced = workload.run(state, clock, tracer.recording)
    noise.reading()
    loadavg.append(os.getloadavg())
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    if (traced.digest, traced.quality) != (plain.digest, plain.quality):
        failed += 1
        print("check failed: traced run decided differently from the "
              "untraced run", file=sys.stderr)
    metrics = {"setup.import_s": (import_s, "s"),
               "setup.train_s": (state.get("train_s", 0.0), "s")}
    metrics.update(tracing.layer_metrics(tracer))
    metrics["trace.overhead_pct"] = (
        (traced.wall.raw_s / plain.wall.raw_s - 1.0) * 100.0
        if plain.wall.raw_s else 0.0, "%")
    for key, unit in OUTCOME_UNITS.items():
        metrics[key] = (plain.quality.get(key, 0.0), unit)
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_file = out_dir / f"trace-{name}-{args.seed}.json"
    tracer.dump(trace_file)
    rows = [(name, key, value, unit, 1, attempted, failed)
            for key, (value, unit) in metrics.items()]
    meta = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "input_digest": state["digest"], "output_digest": plain.digest,
            "absent_boundaries": tracer.absent, "trace_file": str(trace_file),
            **noise_record(noise, loadavg),
            "attempted": attempted, "failed": failed}
    return rows, meta


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.setup_sample:
        pin_to_one_cpu()
    import_s = import_program()
    if args.setup_sample:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].build(args.seed, args.seconds)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    run = run_traced if args.trace else run_untraced
    rows, metas = [], []
    for name in names:
        workload_rows, meta = run(args, name, import_s)
        rows += workload_rows
        metas.append(meta)
    print_table(rows)
    print(json.dumps({"meta": metas}))
    attempted = sum(m["attempted"] for m in metas)
    failed = sum(m["failed"] for m in metas)
    prefix = len(names) > 1
    metrics = {(f"{w}/{k}" if prefix else k): {"value": v, "unit": u}
               for w, k, v, u, *_ in rows
               if args.trace or k in E2E_UNITS or prefix}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
