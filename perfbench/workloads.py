"""Seeded request lists for the three benchmark workloads.

Standard library only: the plan is built before any interpreter imports
numpy or ctqmc.  The seed moves sites, lambda, densities and the
endpoints of time grids; it never changes how many requests, rows or
library calls a workload makes.  Jitter is kept to about 1% where it
changes the cost of a call (time endpoints, Bessel orders), so the amount
of work is nearly the same for every seed.

The CLI channels keep fixed parameters.  For about 3% of depolarizing
strengths s in [0.30, 0.36], and 2% of nearby PQ channels, the in-package
eigensolver returns lambda = 1/2 + 1 ulp and every kernel request rejects
it.  The fixed channels avoid that; the ``probe-lambda-rounding`` probe
runs one such channel on every run, so the defect is still counted.

Every workload carries every request kind so that each end-to-end metric
exists on each workload.  Each workload gives the bulk of its time to
one engine and keeps the other kinds small:

- ``series``: infinite geometries, Bessel closed forms (Miller branch).
- ``segment``: 51-site segments, finite spectral sums (Jacobi eigensolve).
- ``oracle``: the verification path, matrix exponential and quadrature.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("series", "segment", "oracle")

LINE = {"kind": "line"}
HALF_ABS = {"kind": "half_line", "left_boundary": "absorbing"}
HALF_REF = {"kind": "half_line", "left_boundary": "reflecting"}
GOAL = {"psi": [[0.5, 0.0], [0.8660254037844386, 0.0]]}

A, R = "absorbing", "reflecting"


def segment(sites, left, right):
    return {"kind": "segment", "sites": sites, "left_boundary": left,
            "right_boundary": right}


class _Plan:
    """Accumulates configs and requests; each CLI request gets its own config."""

    def __init__(self, workload, seed):
        self.rng = random.Random(f"{workload}:{seed}")
        self.doc = {"workload": workload, "seed": seed, "configs": {},
                    "requests": []}

    def u(self, lo, hi):
        return self.rng.uniform(lo, hi)

    def sign(self):
        return self.rng.choice((-1.0, 1.0))

    def bloch(self, real=False):
        # Uniform direction on the Bloch sphere (pure states); real=True keeps
        # to the z = 0 circle, where the density matrix is real.
        z = 0.0 if real else self.u(-1.0, 1.0)
        phi = self.u(0.0, 2.0 * math.pi)
        r = math.sqrt(1.0 - z * z)
        return {"bloch": [r * math.cos(phi), r * math.sin(phi), z]}

    def grid(self, start, stop, points):
        """Time grid from about ``start`` to within 0.5% above ``stop``."""
        return {"start": self.u(start, start + 0.2), "stop": self.u(stop, 1.005 * stop),
                "points": points}

    def pair(self, total, lo, hi):
        """Sites (i, j) with i + j = total, so polynomial degrees are fixed."""
        i = self.rng.randint(lo, hi)
        return i, total - i

    def cli(self, kind, command, config, options=(), sub_options=()):
        name = f"c{len(self.doc['configs']):03d}"
        self.doc["configs"][name] = config
        argv = ["--config", name, *options, command, *sub_options]
        self.doc["requests"].append(
            {"id": f"{len(self.doc['requests']):03d}-{kind}", "kind": kind,
             "argv": argv, "config": name})

    def library(self, kind, calls, **extra):
        self.doc["requests"].append(
            {"id": f"{len(self.doc['requests']):03d}-{kind}", "kind": kind,
             "calls": calls, **extra})

    # Request builders shared by the workloads -----------------------------

    def prob(self, channel, geometry, sites, grid, mode):
        self.cli("prob", "prob", {
            "channel": channel, "geometry": geometry, "density": self.bloch(),
            "goal": GOAL, "sites": sites, "time_grid": grid,
        }, sub_options=["--mode", mode])

    def optimize(self, channel, geometry, sites, grid):
        self.cli("optimize", "optimize", {
            "channel": channel, "geometry": geometry, "goal": GOAL,
            "sites": sites, "time_grid": grid,
        })

    def figure(self, name, grid):
        self.cli("figure", "figure", {"time_grid": grid},
                 sub_options=["--name", name])

    def measure(self, geometry, lam, samples=101):
        self.cli("measure", "measure", {
            "geometry": geometry, "lambda": lam, "samples": samples})

    def recurrence(self, channel, geometry, site):
        self.cli("recurrence", "recurrence", {
            "channel": channel, "geometry": geometry, "density": self.bloch(),
            "sites": {"i": site, "j": 0},
        })

    def oracle_compare(self, channel, geometry, grid, max_site, truncation,
                       real=False):
        self.cli("oracle", "oracle-compare", {
            "channel": channel, "geometry": geometry, "density": self.bloch(real),
            "time_grid": grid, "max_site": max_site,
        }, options=["--truncation", str(truncation)])

    def duran_commuting(self, channel, points, lo=0.05, hi=1.95):
        shift = self.u(0.0, 0.01)
        xs = [lo + shift + (hi - lo - 0.02) * k / (points - 1)
              for k in range(points)]
        self.library("duran", [{"x": x} for x in xs], blocks="commuting",
                     channel=channel)

    def duran_noncommuting(self, points):
        # The non-commuting Kraus pair of the Duran acceptance check,
        # diag(a, b) and [[0, c], [d, 0]], with seeded entries; d = c keeps
        # the off-diagonal block Hermitian.
        c = self.u(0.38, 0.42)
        abcd = [self.u(0.58, 0.62), self.u(0.48, 0.52), c, c]
        xs = [-0.5 + 3.0 * (k + 0.5) / points for k in range(points)]
        self.library("duran", [{"x": x} for x in xs],
                     blocks="noncommuting", abcd=abcd)

    def deficit(self, geometry, lams, sites, times):
        calls = [{"lam": lam, "j": j, "t": t}
                 for lam in lams for j in sites for t in times]
        self.library("deficit", calls, geometry=geometry)

    def quadrature(self, geometries, lams, triples):
        calls = [{"geometry": g, "lam": lam, "i": i, "j": j, "t": t}
                 for g in geometries for lam in lams for (i, j, t) in triples]
        self.library("quadrature", calls)


# The paper's depolarizing channel: lambda = 1/2, 1/3, 1/3, 1/3.
DEPOLARIZING = {"preset": "depolarizing", "s": 1.0 / 3.0}
LAM2 = 1.0 / 3.0
# A PQ channel with eigenvalues 1/2, p - 1/2, (q + r)/2 and (q - r)/2,
# here 1/2, -0.3, -0.25 and 0.35: two are negative and none is near zero.
PQ_NEGATIVE = {"preset": "pq", "p": 0.2, "q": 0.1, "r": -0.6}


def _series(p):
    dep, pqn, lam2 = DEPOLARIZING, PQ_NEGATIVE, LAM2
    # prob: 2 channels x 3 geometries x 2 modes, 101 points to t ~ 45, so
    # 2|lambda|t passes 20 and the Miller branch carries most rows.
    for channel in (dep, pqn):
        for geometry in (LINE, HALF_ABS, HALF_REF):
            for mode in ("site", "state"):
                if geometry is LINE:
                    sites = {"i": p.rng.randint(-3, 3), "j": p.rng.randint(-3, 3)}
                else:
                    sites = {"i": p.rng.randint(0, 3), "j": p.rng.randint(0, 3)}
                p.prob(channel, geometry, sites, p.grid(0.0, 45.0, 101), mode)
    for name in ("fig1", "fig3"):
        p.figure(name, p.grid(0.0, 40.0, 101))
    for channel in (dep, pqn):
        for geometry in (LINE, HALF_ABS, HALF_REF):
            p.recurrence(channel, geometry, p.rng.randint(0, 4))
    p.measure(LINE, p.sign() * p.u(0.30, 0.50))
    p.measure(HALF_ABS, p.sign() * p.u(0.30, 0.50))
    p.measure(HALF_REF, -p.u(0.30, 0.50))
    p.optimize(dep, HALF_ABS, {"i": p.rng.randint(0, 3), "j": p.rng.randint(0, 3)},
               p.grid(0.2, 45.0, 41))
    for geometry in (LINE, HALF_REF):
        p.optimize(pqn, geometry, {"i": p.rng.randint(0, 3), "j": p.rng.randint(0, 3)},
                   p.grid(0.2, 45.0, 41))
    p.deficit(HALF_ABS, [0.5, -0.5, lam2], list(p.pair(3, 0, 3)),
              [p.u(t, 1.005 * t) for t in (10.0, 20.0, 30.0, 40.0, 45.0)])
    p.duran_commuting(dep, 50)
    p.duran_noncommuting(50)
    # Contrast: a small verification request and quadrature pairs.
    p.oracle_compare(dep, HALF_ABS, p.grid(0.4, 1.1, 2), 2, 40)
    lam = p.u(0.30, 0.45)
    p.quadrature([LINE, HALF_ABS, HALF_REF], [0.5, -0.5, lam, -lam],
                 [(0, 0, p.u(1.0, 3.0)), (*p.pair(5, 1, 4), p.u(3.0, 6.0))])


def _segment(p):
    dep, lam2 = DEPOLARIZING, LAM2
    # Heavy part: three 51-site segments without a closed form today, where
    # every kernel needs a 51 x 51 eigensolve.
    for (left, right), mode, points in (((A, R), "site", 2), ((A, A), "site", 1),
                                        ((R, A), "state", 1)):
        sites = {"i": p.rng.randint(0, 50), "j": p.rng.randint(0, 50)}
        p.prob(dep, segment(51, left, right), sites, p.grid(0.5, 2.5, points), mode)
    # Contrast: the reflecting/reflecting segment is already closed form.
    p.prob(dep, segment(51, R, R), {"i": p.rng.randint(0, 50), "j": p.rng.randint(0, 50)},
           p.grid(0.0, 5.0, 41), "site")
    ends = p.rng.choice(((A, R), (A, A), (R, A)))
    p.measure(segment(51, *ends), p.sign() * p.u(0.30, 0.50))
    p.measure(segment(51, R, R), p.sign() * p.u(0.30, 0.50))
    # The paper's five-site worked example, a non-PQ channel.  It is a fixed
    # instance: the seed does not move it.
    p.cli("optimize", "optimize", {
        "channel": {"preset": "segment_example"}, "geometry": segment(5, R, R),
        "goal": GOAL, "sites": {"i": 1, "j": 0},
        "time_grid": {"start": 1.0, "stop": 1.0, "points": 1},
    })
    small = segment(8, A, R)
    p.oracle_compare(dep, small, p.grid(0.4, 2.0, 2), 2, 200)
    p.deficit(segment(10, A, R), [0.5, -lam2], [p.rng.randint(0, 4)],
              [p.u(1.0, 2.0), p.u(3.0, 4.0)])
    p.quadrature([segment(8, A, R), segment(8, A, A), segment(8, R, A)],
                 [0.5, -lam2], [(*p.pair(7, 0, 7), p.u(0.5, 3.0))])
    # Contrast: short Bessel requests in the series branch, and Duran points.
    for name in ("fig1", "fig3"):
        p.figure(name, p.grid(0.0, 2.5, 51))
    p.duran_commuting(dep, 100)
    p.duran_noncommuting(100)


def _oracle(p):
    dep, lam2 = DEPOLARIZING, LAM2
    # A complex density makes evolve_oracle multiply the real dense generator
    # by a complex vector, which costs about 3x (half-line) to 12x (line) a
    # real one.  The line request keeps a real density so that one list fits
    # a run several times; the half-line request measures the complex case.
    p.oracle_compare(dep, LINE, p.grid(0.4, 10.0, 5), 5, 200, real=True)
    p.oracle_compare(dep, HALF_ABS, p.grid(0.4, 10.0, 5), 5, 200)
    lam0 = p.u(0.25, 0.35)
    p.quadrature(
        [LINE, HALF_ABS, HALF_REF, segment(6, A, A), segment(6, A, R),
         segment(6, R, A), segment(6, R, R)],
        [0.5, -0.5, lam0, -lam0],
        [(0, 0, p.u(0.5, 1.5)), (*p.pair(5, 3, 5), p.u(2.0, 4.0))])
    # Contrast: small requests of every other kind at short times.
    p.prob(dep, LINE, {"i": p.rng.randint(-3, 3), "j": 0}, p.grid(0.0, 5.0, 21), "site")
    p.prob(dep, HALF_ABS, {"i": p.rng.randint(0, 3), "j": 1}, p.grid(0.0, 5.0, 21), "state")
    p.optimize(dep, HALF_ABS, {"i": p.rng.randint(0, 3), "j": 1}, p.grid(0.2, 5.0, 21))
    for name in ("fig1", "fig3"):
        p.figure(name, p.grid(0.0, 2.5, 11))
    p.measure(LINE, p.sign() * p.u(0.30, 0.50))
    p.deficit(HALF_ABS, [0.5, -lam2], list(p.pair(3, 0, 3)),
              [p.u(t, 1.005 * t) for t in (1.5, 3.5)])
    p.duran_commuting(dep, 20)
    p.duran_noncommuting(20)


def probes():
    """Robustness probes, run once per run and reported apart from the ops.

    A probe passes when the CLI answers a valid input with a correct
    finite value or, where ``accept_exit_2`` is set, rejects it cleanly
    with exit code 2.
    """
    return [
        {"id": "probe-overflow", "kind": "probe", "accept_exit_2": True,
         "argv": ["--config", "probe_overflow", "prob", "--mode", "site"],
         "config": "probe_overflow",
         "config_doc": {
             "channel": {"preset": "depolarizing", "s": 1.0 / 3.0},
             "geometry": LINE, "density": {"preset": "E11"}, "goal": GOAL,
             "sites": {"i": 0, "j": 0},
             "time_grid": {"start": 800.0, "stop": 800.0, "points": 1}}},
        # A valid depolarizing channel whose eigensolve rounds lambda = 1/2
        # up by one ulp; the kernels then reject it.
        {"id": "probe-lambda-rounding", "kind": "probe", "accept_exit_2": False,
         "argv": ["--config", "probe_lambda_rounding", "prob", "--mode", "site"],
         "config": "probe_lambda_rounding",
         "config_doc": {
             "channel": {"preset": "depolarizing", "s": 0.3053},
             "geometry": HALF_ABS, "density": {"preset": "E11"}, "goal": GOAL,
             "sites": {"i": 1, "j": 0},
             "time_grid": {"start": 1.0, "stop": 1.0, "points": 1}}},
        {"id": "probe-bad-json", "kind": "probe", "accept_exit_2": True,
         "argv": ["--config", "probe_bad_json", "prob"],
         "config": "probe_bad_json", "config_text": '{"channel": {"preset": '},
        {"id": "probe-missing-config", "kind": "probe", "accept_exit_2": True,
         "argv": ["--config", "probe_missing", "prob"],
         "config": "probe_missing"},
    ]


def build(workload: str, seed: int) -> dict:
    """The plan for one workload and seed: configs, requests and probes."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choices: {WORKLOADS}")
    p = _Plan(workload, seed)
    {"series": _series, "segment": _segment, "oracle": _oracle}[workload](p)
    p.doc["probes"] = probes()
    return p.doc
