"""Runs one workload plan in this process; started by ``run.py``.

``--mode setup`` times a fresh interpreter's set-up: importing ctqmc,
loading the plan's configs and building its channels, up to the first
request.  ``--mode run`` executes the request list repeatedly for the
given seconds, one request in flight (a closed loop with one client),
then checks the captured outputs and runs the robustness probes, which
are reported apart from the request counts.  With
``--trace 1`` it first runs untraced, then with every public ctqmc
function wrapped by ``spans.Tracer``.  The last stdout line is a JSON
object for ``run.py``.
"""

import time

_START = time.perf_counter()  # set-up is timed from before ctqmc is imported

import argparse
import collections
import contextlib
import gc
import hashlib
import io
import json
import os
import pickle
import resource
import statistics
import sys
import traceback

import ctqmc
import ctqmc.analysis
import ctqmc.cli
import ctqmc.kernels
import ctqmc.spectra

KINDS = ("prob", "optimize", "figure", "measure", "duran", "deficit", "oracle",
         "quadrature")

# One pass over the request list: its wall time, and seconds and rows per
# request kind; ``layers`` holds the tracer's figures on a traced pass.
ListResult = collections.namedtuple("ListResult", "wall seconds rows layers")


class Request:
    """One request of the plan, with its inputs built during set-up."""

    def __init__(self, spec, workdir, configs):
        self.spec = spec
        self.kind = spec["kind"]
        self.id = spec["id"]
        if "argv" in spec:
            self.config = configs.get(spec["config"])
            self.argv = [os.path.join(workdir, f"{a}.json") if a == spec["config"] else a
                         for a in spec["argv"]]
            if self.config and "channel" in self.config:
                # Built for the set-up timing only; the CLI builds its own.
                ctqmc.cli.channel_from_config(self.config["channel"])
        else:
            self.calls = [self._library_call(c) for c in spec["calls"]]
            if self.kind == "duran":
                self.blocks = _duran_blocks(spec)

    def _library_call(self, call):
        geometry = call.get("geometry", self.spec.get("geometry"))
        if geometry is None:
            return call
        return dict(call, geometry=ctqmc.cli.geometry_from_config(geometry))

    def execute(self):
        """Run once; returns (seconds, rows, code, output, error)."""
        if hasattr(self, "argv"):
            return run_cli(self.argv)
        start = time.perf_counter()
        try:
            values = getattr(self, f"_{self.kind}")()
        except Exception:
            return time.perf_counter() - start, 0, None, None, traceback.format_exc()
        return time.perf_counter() - start, len(values), 0, values, None

    def _deficit(self):
        deficit = ctqmc.analysis.absorption_deficit
        return [deficit(c["geometry"], c["lam"], c["j"], c["t"]) for c in self.calls]

    def _duran(self):
        t_rep, g_block = self.blocks
        density = ctqmc.spectra.duran_density
        return [density(t_rep, g_block, c["x"]) for c in self.calls]

    def _quadrature(self):
        k = ctqmc.kernels
        out = []
        for c in self.calls:
            req = k.KernelRequest(geometry=c["geometry"], lam=c["lam"], i=c["i"],
                                  j=c["j"], t=c["t"])
            out.append((k.scalar_kernel(req), k.km_quadrature_oracle(req)))
        return out


def _duran_blocks(spec):
    import numpy as np

    import reference

    if spec["blocks"] == "commuting":
        channel = ctqmc.cli.channel_from_config(spec["channel"])
        return ctqmc.superop_of(channel).rep, -np.eye(4)
    return reference.noncommuting_blocks(spec["abcd"])


def run_cli(argv):
    """``ctqmc.cli.main`` with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ctqmc.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    text = out.getvalue()
    rows = max(0, len(text.splitlines()) - 1) if code == 0 else 0
    return seconds, rows, code, text, error or err.getvalue() or None


def _fingerprint(output):
    # pickle keeps every bit of floats and arrays, unlike repr of an array.
    return hashlib.sha256(pickle.dumps(output)).hexdigest()


class Runner:
    """Executes the list repeatedly and keeps what the checks need."""

    def __init__(self, requests):
        self.requests = requests
        self.first = {}  # id -> (code, output, error, fingerprint), first execution
        self.executions = {r.id: 0 for r in requests}
        self.mismatches = {r.id: 0 for r in requests}
        self.stdout_bytes = 0

    def run_list(self):
        """One pass over the request list."""
        results = []
        start = time.perf_counter()
        for req in self.requests:
            results.append(req.execute())
        wall = time.perf_counter() - start
        seconds = dict.fromkeys(KINDS, 0.0)
        rows = dict.fromkeys(KINDS, 0)
        stdout_bytes = 0
        for req, (dt, n, code, output, error) in zip(self.requests, results):
            if req.kind in seconds:
                seconds[req.kind] += dt
                rows[req.kind] += n
            if isinstance(output, str):
                stdout_bytes += len(output.encode())
            self.executions[req.id] += 1
            mark = _fingerprint((code, output))
            if req.id not in self.first:
                self.first[req.id] = (code, output, error, mark)
            elif mark != self.first[req.id][3]:
                self.mismatches[req.id] += 1
        self.stdout_bytes = stdout_bytes
        return ListResult(wall, seconds, rows, None)

    def repeat(self, budget, tracer=None):
        """Run whole lists until the next one would overrun ``budget`` seconds.

        With a tracer, each list carries the tracer's snapshot of that list.
        """
        lists = []
        start = time.perf_counter()
        while True:
            gc.collect()
            if tracer is not None:
                tracer.reset()
            result = self.run_list()
            if tracer is not None:
                result = result._replace(layers=tracer.snapshot())
            lists.append(result)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(r.wall for r in lists) > budget:
                return lists


def check_all(runner, ctqmc_module):
    """Problems per request id, from the first execution of each."""
    import checks

    problems = {}
    for req in runner.requests:
        code, output, error, _ = runner.first[req.id]
        if error is not None and code != 0:
            found = [f"exit {code!r}: {error.strip().splitlines()[-1]}"]
        elif code != 0:
            found = [f"exit code {code!r}, want 0"]
        elif req.kind in checks.LIBRARY_CHECKS:
            found = checks.LIBRARY_CHECKS[req.kind](req.spec, output)
        else:
            check = checks.CLI_CHECKS[req.kind]
            found = check(req.config, req.spec["argv"], output, ctqmc_module)
        if runner.mismatches[req.id]:
            found = list(found) + [f"output changed in {runner.mismatches[req.id]} "
                                   "repeated executions"]
        if found:
            problems[req.id] = list(found)
    return problems


def run_probes(plan, workdir):
    import checks

    problems = {}
    for probe in plan["probes"]:
        argv = [os.path.join(workdir, f"{a}.json") if a == probe["config"] else a
                for a in probe["argv"]]
        _, _, code, text, error = run_cli(argv)
        found = checks.check_probe(probe, code, text)
        if found:
            if error:
                found.append(error.strip().splitlines()[-1])
            problems[probe["id"]] = found
    return problems


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or -1 if it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return -1
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def environment():
    import platform

    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "ctqmc": os.path.dirname(ctqmc.__file__)}


RATE_METRICS = {
    "prob": "prob_points_per_s",
    "optimize": "optimize_points_per_s",
    "figure": "figure_rows_per_s",
    "measure": "measure_points_per_s",
    "duran": "duran_points_per_s",
    "deficit": "deficit_per_s",
    "oracle": "oracle_rows_per_s",
    "quadrature": "quadrature_checks_per_s",
}


def _median_rate(lists, kind):
    rates = [r.rows[kind] / r.seconds[kind] for r in lists if r.seconds[kind] > 0]
    return statistics.median(rates) if rates else 0.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workdir = os.path.dirname(os.path.abspath(args.plan))
    with open(args.plan) as fh:
        plan = json.load(fh)
    configs = {}
    for name in plan["configs"]:
        with open(os.path.join(workdir, f"{name}.json")) as fh:
            configs[name] = json.load(fh)
    requests = [Request(spec, workdir, configs) for spec in plan["requests"]]
    setup_s = time.perf_counter() - _START
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(requests)
    if args.trace:
        untraced = runner.repeat(args.seconds / 2.0)
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = runner.repeat(args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        lists = untraced
        metrics = {key: statistics.median(r.layers[key] for r in traced)
                   for key in traced[0].layers}
        metrics["trace.wall_s"] = statistics.median(r.wall for r in traced)
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - statistics.median(r.wall for r in untraced))
        metrics["cli.main.stdout_bytes"] = runner.stdout_bytes
        print(json.dumps({"trace_edges": tracer.edge_table()[:40]}), file=sys.stderr)
    else:
        lists = runner.repeat(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": statistics.median(r.wall for r in lists)}
        for kind, name in RATE_METRICS.items():
            metrics[name] = _median_rate(lists, kind)
        metrics["peak_rss_mb"] = peak_rss_mb

    problems = check_all(runner, ctqmc)
    probe_problems = run_probes(plan, workdir)
    # The probes exercise known defects, so they are reported on their own
    # and kept out of ``attempted`` and ``failed``, which count the
    # workload's requests only.
    result = {
        "correct": not problems,
        "attempted": sum(runner.executions.values()),
        "failed": sum(runner.executions[rid] for rid in problems),
        "metrics": metrics,
        "lists": len(lists),
        "problems": problems,
        "probes": len(plan["probes"]),
        "probe_problems": probe_problems,
        "env": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
