"""Self-test of the benchmark's input generators and tracing.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py

Checks that one seed gives identical input digests twice and two seeds
differ; that every target of every traced boundary resolves on this
program; that each boundary reads non-zero on the workloads
``design.json`` assigns it and zero where it says so; and that a traced
pass decides exactly what the untraced pass decided.
"""

import json
import sys

import run

SECONDS = 3.0           # small inputs: 3 plans, 3 served, 231 fleet sessions


def check_inputs(failures: list[str]) -> None:
    import inputs

    generators = {
        "plan_cases": lambda s: inputs.plan_cases(s, 20),
        "serve_trace": lambda s: inputs.serve_trace_inputs(s, 20),
        "fleet_trace": lambda s: inputs.fleet_trace_inputs(s, 20),
    }
    for name, generate in generators.items():
        first, again = inputs.digest(generate(1)), inputs.digest(generate(1))
        other = inputs.digest(generate(2))
        print(f"inputs {name}: seed 1 {first} / {again}, seed 2 {other}")
        if first != again:
            failures.append(f"{name}: seed 1 gave two different inputs")
        if first == other:
            failures.append(f"{name}: seeds 1 and 2 gave the same inputs")
    for mix, _ in inputs.plan_cases(7, 60):
        if len(set(mix)) != len(mix) or len(mix) not in inputs.MIX_SIZES:
            failures.append(f"plan mix {mix} repeats a model or has a bad "
                            "size")


def check_tracing(failures: list[str]) -> None:
    import tracing
    from calibration import HostClock
    from workloads import WORKLOADS

    with open(run.HERE / "design.json") as fh:
        design = json.load(fh)["per_layer"]
    for name, workload in WORKLOADS.items():
        state = workload.build(1, SECONDS)
        run.warm_up()
        clock = HostClock(calibrated=False)
        plain = workload.run(state, clock)
        tracer = tracing.Tracer()
        with tracer:
            traced = workload.run(state, clock, tracer.recording)
        metrics = {key: value for key, (value, _) in
                   tracing.layer_metrics(tracer).items()}
        metrics["setup.train_s"] = state.get("train_s", 0.0)
        for key in run.OUTCOME_UNITS:
            metrics[key] = plain.quality.get(key, 0.0)
        print(f"traced {name}: {len(tracer.found)} boundary targets found, "
              f"absent {tracer.absent}, failed {plain.failed + traced.failed}")
        if tracer.absent:
            failures.append(f"{name}: boundary targets not found "
                            f"{tracer.absent}")
        if plain.failed or traced.failed:
            failures.append(f"{name}: output checks failed")
        if (traced.digest, traced.quality) != (plain.digest, plain.quality):
            failures.append(f"{name}: traced pass decided differently")
        for key, expect in design.items():
            if key not in metrics:
                continue
            value = metrics[key]
            if name in expect.get("nonzero_on", ()) and not value:
                failures.append(f"{name}: {key} reads 0")
            if name in expect.get("zero_on", ()) and value:
                failures.append(f"{name}: {key} reads {value}, expected 0")


def main() -> int:
    run.import_program()
    failures: list[str] = []
    check_inputs(failures)
    check_tracing(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
