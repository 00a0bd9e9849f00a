"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts the workload in a fresh
single-threaded Python process (``worker.py``) and, for the untraced run,
times set-up in SETUP_PROBES more fresh processes.  It prints a run
environment record, one line per metric, and as its last line a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``.  Exit code 2 means the checkout is
incomplete or the arguments are wrong; no result is printed then.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
REQUIRED = ("BENCHMARK.json", "src/cantornormal/__init__.py", "tests/oracles.py")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: checkout is missing {', '.join(missing)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="cantornormal benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = child_env()
    cap = os.environ.get("CNL_SIZE_CAP")
    record = {
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "CNL_SIZE_CAP": cap,
        "size_cap_overridden": cap is not None,
    }
    if cap is not None:
        print(f"warning: CNL_SIZE_CAP={cap} is set; the cap changes which code paths run",
              file=sys.stderr)

    workdir = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    trace_dir = ROOT / ".bench_out"
    child_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.trace:
        trace_dir.mkdir(exist_ok=True)
        child_args += ["--trace-out", str(trace_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")]
    try:
        setup_samples = [] if args.trace else [
            run_child(["--setup-only"], env)["setup_s"] for _ in range(SETUP_PROBES)
        ]
        result = run_child(child_args, env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = result["values"]
    values["setup_s"] = statistics.median(setup_samples + [values["setup_s"]])
    record["numpy"] = result["numpy"]
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    # The worker fails a traced run in which a layer the workload must
    # exercise recorded nothing.  A layer the workload never calls is
    # reported as 0 calls and 0 s, and listed as not exercised.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    not_exercised = sorted(
        {m["name"].rsplit(".", 1)[0] for m in wanted if m["name"] not in values}
        - set(result["layers_recorded"])
    )

    print("env " + json.dumps(record, sort_keys=True))
    print(f"passes {len(result['passes'])} (the first a warm-up), {result['ops_per_pass']} ops each")
    print(f"host_factor {result['host_factor']:.4f}, uncorrected wall_s {result['raw_wall_s']:.6g} s")
    for kind, share in result["shares"].items():
        print(f"share_of_wall {kind} {100 * share:.1f}%")
    if not_exercised:
        print("not_exercised (reported as 0) " + " ".join(not_exercised))
    for reason in result["failures"]:
        print(f"FAILED {reason}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
