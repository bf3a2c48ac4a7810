"""ctqmc benchmark: seeded workloads, end-to-end metrics and layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run generates the workload's configs from the seed, measures the
set-up of several fresh interpreters, then runs the request list in one
worker process for ``--seconds`` and prints a metric table followed by
one JSON line.  ``--trace 1`` reports the per-layer metrics instead of
the end-to-end ones.  BLAS is pinned to one thread.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import workloads  # noqa: E402

SETUP_SAMPLES = 25
CHILD_TIMEOUT_S = 170
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for name in THREAD_PINS:
        env[name] = "1"
    return env


def _worker(root, plan_path, *args):
    """Run worker.py to completion; returns its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--plan", plan_path, *args]
    proc = subprocess.run(cmd, cwd=root, env=_child_env(root), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def write_plan(workdir, plan):
    os.makedirs(workdir, exist_ok=True)
    for name, doc in plan["configs"].items():
        with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
            json.dump(doc, fh)
    for probe in plan["probes"]:
        path = os.path.join(workdir, f"{probe['config']}.json")
        if "config_doc" in probe:
            with open(path, "w") as fh:
                json.dump(probe["config_doc"], fh)
        elif "config_text" in probe:
            with open(path, "w") as fh:
                fh.write(probe["config_text"])
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    return plan_path


def run_workload(root, name, seed, seconds, trace):
    plan = workloads.build(name, seed)
    workdir = os.path.join(root, ".perfbench_work", f"{name}-{os.getpid()}")
    try:
        plan_path = write_plan(workdir, plan)
        result = _worker(root, plan_path, "--mode", "run", "--seconds", str(seconds),
                         "--trace", str(trace))
        if not trace:
            samples = [_worker(root, plan_path, "--mode", "setup")["setup_s"]
                       for _ in range(SETUP_SAMPLES)]
            result["metrics"]["setup_s"] = statistics.median(samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    return result


def metric_table(name, result, units):
    lines = [f"# workload {name}: ops {result['attempted']}, "
             f"ops_failed {result['failed']}, correct {result['correct']}, "
             f"lists {result['lists']}"]
    for key, value in result["metrics"].items():
        lines.append(f"{name:8s} {key:48s} {value:16.6g} {units[key]}")
    for rid, found in result["problems"].items():
        lines.append(f"# failed {rid}: {'; '.join(found[:3])}")
    lines.append(f"# probes: {len(result['probe_problems'])} of {result['probes']} "
                 "fail (known defects; not counted in ops_failed)")
    for rid, found in result["probe_problems"].items():
        lines.append(f"# probe failed {rid}: {'; '.join(found[:3])}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ctqmc", "cli.py")):
        print("error: run from the root of a ctqmc checkout (src/ctqmc not found)",
              file=sys.stderr)
        return 1
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(root, name, args.seed, args.seconds, args.trace)
        missing = set(units) - set(result["metrics"])
        if missing:
            raise RuntimeError(f"worker did not report {sorted(missing)}")
        result["metrics"] = {key: result["metrics"][key] for key in units}
        results[name] = result
        print(metric_table(name, result, units))
        print("# env " + json.dumps(result["env"]))

    def summary(result):
        return {"correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in result["metrics"].items()}}

    if len(results) == 1:
        print(json.dumps(summary(results[names[0]])))
    else:
        print(json.dumps({name: summary(r) for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
