"""mixquant benchmark: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory.  With ``--trace 0`` the last line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced run.
Set-up is timed ``SETUP_SAMPLES`` times, each in a fresh interpreter, and
reported as the median.  ``all`` runs every workload in turn and ends with
one combined line.  See ``perfbench/README.md`` for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "wide_quantile", "wide_invert", "parametric")
#: Fresh-interpreter set-ups per run, the measured run's own included.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


def git_sha() -> str:
    """HEAD from ``.git`` inside the checkout, without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(workload: str, seed: int, seconds: float, *flags: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        rec = child(workload, seed, seconds, "--trace")
        metrics = rec["per_layer"]
        correct = rec["self_times_add_up"]
    else:
        setups = [child(workload, seed, seconds, "--setup-only")
                  for _ in range(SETUP_SAMPLES - 1)]
        rec = child(workload, seed, seconds)
        setups.append(rec)
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "ops_per_s": rec["ops_per_s"],
            "op_ms_p50": rec["op_ms_p50"],
            "op_ms_tail": rec["op_ms_tail"],
            "pass_ratio": 1 - rec["failed"] / rec["attempted"],
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        correct = True
    correct = correct and not rec["failed"] and rec["references_ok"]
    stamp = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)), **rec["versions"],
        "attempted": rec["attempted"], "failed": rec["failed"],
        "fail_ratio": rec["failed"] / rec["attempted"],
        "failure_samples": rec["failure_samples"],
    }
    for key in ("raw", "ref_ms", "ref_samples", "wall_s", "import_s",
                "traced_ops", "untraced_ops", "trace_file"):
        if key in rec:
            stamp[key] = rec[key]
    if not trace:
        stamp["setup_s_samples"] = [s["setup_s"] for s in setups]
        stamp["setup_s_raw_samples"] = [s["setup_s_raw"] for s in setups]
        stamp["setup_ref_ms"] = [s["setup_ref_ms"] for s in setups]
    print("stamp " + json.dumps(stamp, sort_keys=True))
    return {"correct": correct, "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mixquant", "__init__.py")):
        print(f"no mixquant sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = res
        for metric, value in res["metrics"].items():
            print(f"{name:13s} {metric:48s} {value:14.6g} {units[metric]}")
        print(f"{name:13s} {'fail_ratio':48s} {res['failed'] / res['attempted']:14.6g} ratio "
              f"({res['failed']} of {res['attempted']})")
    if len(names) == 1:
        res = results[names[0]]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()}
        out = {"correct": res["correct"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": {"value": v, "unit": units[k]}
                        for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
