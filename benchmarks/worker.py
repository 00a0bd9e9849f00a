"""One measured run of one workload, in a fresh single-threaded process.

Started by ``run.py``; prints one JSON object as its last line of output.
With ``--setup-only`` it times set-up alone (import plus building the two
scaled family specs) and exits.

A run repeats the workload's fixed pass until ``--seconds`` have passed
(at least MIN_PASSES times) and reports medians over the repetitions.  The
first pass warms caches and is checked but not timed.  Every time is
corrected for the host's speed (``hostspeed.py``).  With ``--trace 1``
every other pass runs with the tracer's wrappers installed; untraced passes
give the end-to-end figures, traced passes the per-layer ones, and the
difference between the two is the tracing overhead.  Outputs are checked
after the timed phase.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3


def setup():
    """Import the package and build the family specs; returns (seconds, specs).

    The seconds are corrected for the host's speed, measured just after.
    """
    t0 = time.perf_counter()
    import cantornormal.cli  # noqa: F401  (imports every layer)
    from cantornormal import constructions

    specs = (constructions.qnex_spec(), constructions.qde_spec())
    for spec in specs:
        spec.total_length  # segment boundaries are computed once, on first use
    seconds = time.perf_counter() - t0
    return seconds * hostspeed.host_factor(), specs


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(wl, seconds: float, tracer):
    """Run passes until time is up; returns (passes, answers per pass).

    Each pass records the corrected wall and CPU time of each op, their sums
    (the pass's ``wall`` and ``cpu``), its raw wall time, and its median host
    factor.  The first pass is the warm-up.
    """
    passes, answers = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        clock = hostspeed.OpClock()
        if traced:
            tracer.install()
        try:
            answers.append(wl.run_pass(clock))
        finally:
            if traced:
                tracer.uninstall()
        clock.finish()
        lat, cpu = clock.corrected()
        passes.append({"wall": sum(lat), "cpu": sum(cpu), "raw_wall": sum(clock.wall),
                       "host_factor": statistics.median(clock.factors()), "traced": traced,
                       "warmup": not passes, "lat": lat, "kinds": wl.pass_kinds})
    return passes, answers


def count_failures(answers: list[list], bad: dict[int, str]) -> int:
    """An op fails if its answer was rejected, differs from pass 1, or raised."""
    from workloads import OpError

    first = answers[0]
    return sum(
        1
        for pass_answers in answers
        for i, a in enumerate(pass_answers)
        if i in bad or isinstance(a, OpError) or a != first[i]
    )


def untraced_passes(passes) -> list[dict]:
    """The passes that give the end-to-end figures: untraced, after the warm-up."""
    return [p for p in passes if not p["traced"] and not p["warmup"]]


def kind_shares(passes) -> dict[str, float]:
    """Median share of an untraced pass's wall time spent on each kind of op."""
    untraced = untraced_passes(passes)
    kinds = sorted({kind for p in untraced for kind in p["kinds"]})
    return {kind: statistics.median(p["kinds"].get(kind, 0.0) / p["wall"] for p in untraced) for kind in kinds}


def layer_values(tracer, passes, required: set[str]) -> dict[str, float]:
    """Per-layer figures per traced pass, plus the tracing overhead.

    Raises RuntimeError if a layer the workload must exercise recorded nothing.
    """
    traced = [p["wall"] for p in passes if p["traced"]]
    untraced = [p["wall"] for p in untraced_passes(passes)]
    k = len(traced)
    values = {"trace_overhead_s": statistics.median(traced) - statistics.median(untraced)}
    agg = tracer.aggregate()
    missing = sorted(required - set(agg) - set(tracer.counts))
    if missing:
        raise RuntimeError(f"traced passes recorded no call of {', '.join(missing)}")
    for name, fields in agg.items():
        for field, total in fields.items():
            values[f"{name}.{field}"] = total / k
    for name, total in tracer.counts.items():
        values[f"{name}.calls"] = total / k
    skipped = tracer.untraced_claims()
    values["untraced.default_arg_bindings"] = len(tracer.untraced_bindings)
    values["untraced.default_arg_jobs.self_s"] = sum(
        fields["self_s"] for name, fields in agg.items()
        if name.startswith("verify.") and name.split(".")[1] in skipped
    ) / k
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="required unless --setup-only")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", default=str(ROOT / ".bench_tmp"))
    ap.add_argument("--trace-out", help="write the traced run's spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    setup_s, specs = setup()
    import cantornormal

    if not Path(cantornormal.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported cantornormal from {cantornormal.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # imported only now: they import the package, which set-up times
    import numpy
    import tracing
    import workloads

    expected = json.loads((HERE / "expected_verify_all.json").read_text())
    wl = workloads.WORKLOADS[args.workload](specs, args.seed, args.workdir, expected)
    tracer = tracing.Tracer() if args.trace else None
    passes, answers = measure(wl, args.seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    bad = wl.check(answers[0], args.seed)
    attempted = wl.ops_per_pass * len(passes)
    failed = count_failures(answers, bad)
    # Each figure is a median over the untraced passes: per pass for wall
    # and CPU time, per op for latencies (percentiles are then taken over
    # the distinct ops of a pass).
    untraced = untraced_passes(passes)
    op_lat = [statistics.median(lats) for lats in zip(*(p["lat"] for p in untraced))]
    wall_s = statistics.median(p["wall"] for p in untraced)
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": statistics.median(p["cpu"] for p in untraced),
        "peak_rss_mib": peak_rss_mib,
        "ops_per_s": wl.ops_per_pass / wall_s,
        "op_p50_ms": 1e3 * percentile(op_lat, 50),
        "op_p99_ms": 1e3 * percentile(op_lat, 99),
        "ok_ratio": (attempted - failed) / attempted,
    }
    layers = []
    if tracer is not None:
        per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
        try:
            values.update(layer_values(tracer, passes, wl.required_layers(per_layer)))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        layers = sorted(set(tracer.aggregate()) | set(tracer.counts))
        if args.trace_out:
            tracer.write(args.trace_out)
    result = {
        "values": values,
        "shares": kind_shares(passes),
        "layers_recorded": layers,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(bad.values())[:20],
        "passes": [{k: v for k, v in p.items() if k not in ("lat", "kinds")} for p in passes],
        "raw_wall_s": statistics.median(p["raw_wall"] for p in untraced),
        "host_factor": statistics.median(p["host_factor"] for p in untraced),
        "ops_per_pass": wl.ops_per_pass,
        "numpy": numpy.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
