"""Correctness checks of the benchmark's outputs against ``reference``.

Each check takes the request, its config and the captured result, and
returns a list of problems (empty when the output is correct).  Checks
run after the timed phase.  Tolerances are the acceptance tolerances:
1e-10 against quadrature and 1e-8 against a matrix exponential; the
five-site worked example must attain its reported optimum within 1e-12.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

FIG1 = {"channel": {"preset": "depolarizing", "s": 1.0 / 3.0},
        "geometry": {"kind": "half_line", "left_boundary": "absorbing"},
        "goal": {"psi": [[0.5, 0.0], [0.8660254037844386, 0.0]]},
        "i": 1, "j": 1}
FIG3 = {"lam": 0.5, "i": 1, "j": 0,
        "geometries": {"reflecting": {"kind": "half_line", "left_boundary": "reflecting"},
                       "line": {"kind": "line"},
                       "absorbing": {"kind": "half_line", "left_boundary": "absorbing"}}}


def parse_csv(text):
    lines = text.splitlines()
    if not lines:
        return [], []
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _grid(config):
    g = config.get("time_grid", {})
    return np.linspace(float(g.get("start", 0.0)), float(g.get("stop", 10.0)),
                       int(g.get("points", 11)))


def _tol(geometry):
    return ref.TOL_EXPM if geometry["kind"] == "segment" else ref.TOL_QUADRATURE


class _Problems(list):
    def compare(self, what, got, want, tol, relative=False):
        scale = max(1.0, abs(want)) if relative else 1.0
        if not (math.isfinite(got) and abs(got - want) <= tol * scale):
            self.append(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")

    def rows(self, rows, expected):
        if len(rows) != expected:
            self.append(f"{len(rows)} rows, want {expected}")
            return False
        return True

    def times(self, rows, grid):
        for row, t in zip(rows, grid):
            self.compare("t", float(row["t"]), float(t), 1e-12, relative=True)


def check_prob(config, argv, text, ctqmc=None):
    p = _Problems()
    _, rows = parse_csv(text)
    grid = _grid(config)
    if not p.rows(rows, len(grid)):
        return p
    p.times(rows, grid)
    geometry = config["geometry"]
    i, j = int(config["sites"]["i"]), int(config["sites"]["j"])
    walk = ref.Walk(config["channel"], geometry, ref.density_matrix(config["density"]), j)
    psi = ref.goal_vector(config["goal"])
    state = "state" in argv
    for row, t in zip(rows, grid):
        want = walk.state(i, t, psi) if state else walk.site(i, t)
        p.compare(f"value at t={t:.6g}", float(row["value"]), ref.clamp(want),
                  _tol(geometry))
    if ctqmc is not None and geometry["kind"] == "segment" and (
            geometry["left_boundary"] == geometry["right_boundary"] == "reflecting"):
        p.extend(_conservation(ctqmc, config, grid))
    return p


def _conservation(ctqmc, config, grid):
    """Site probabilities of a closed segment sum to one."""
    p = _Problems()
    cli = ctqmc.cli
    g = cli.geometry_from_config(config["geometry"])
    basis = ctqmc.eigenbasis(ctqmc.superop_of(cli.channel_from_config(config["channel"])))
    rho = cli.density_from_config(config["density"])
    j = int(config["sites"]["j"])
    for t in (grid[0], grid[len(grid) // 2], grid[-1]):
        total = sum(ctqmc.site_probability(basis, g, rho, j, i, float(t))
                    for i in range(g.sites))
        p.compare(f"total probability at t={t:.6g}", total, 1.0, ref.TOL_QUADRATURE)
    return p


def check_optimize(config, argv, text, ctqmc=None):
    p = _Problems()
    _, rows = parse_csv(text)
    grid = _grid(config)
    if not p.rows(rows, len(grid)):
        return p
    p.times(rows, grid)
    channel, geometry = config["channel"], config["geometry"]
    i, j = int(config["sites"]["i"]), int(config["sites"]["j"])
    psi = ref.goal_vector(config["goal"])
    # PQ channels have an exact closed form; the non-PQ worked example is
    # allowed the gap of the seed's Bloch-ball search.
    gap = (ref.EXAMPLE_SEARCH_GAP if channel["preset"] == "segment_example"
           else ref.TOL_QUADRATURE)
    for row, t in zip(rows, grid):
        f, d, g = ref.affine_objective(channel, geometry, i, j, float(t), psi)
        norm = float(np.linalg.norm(g))
        for side, best, sign in (("plus", d + norm, 1.0), ("minus", d - norm, -1.0)):
            value = float(row[f"value_{side}"])
            r = [float(row[f"{c}_{side}"]) for c in "xyz"]
            if np.linalg.norm(r) > 1.0 + 1e-12:
                p.append(f"t={t:.6g}: {side} Bloch vector outside the ball")
            p.compare(f"t={t:.6g}: value_{side} attained", f(r), value,
                      ref.TOL_ATTAINED)
            shortfall = sign * (best - value)
            if not -ref.TOL_ATTAINED <= shortfall <= gap:
                p.append(f"t={t:.6g}: value_{side} {value!r} misses the exact "
                         f"optimum {best!r} by {shortfall:.3e} (allowed {gap:g})")
    return p


def check_figure(config, argv, text, ctqmc=None):
    p = _Problems()
    _, rows = parse_csv(text)
    grid = _grid({"time_grid": config.get("time_grid",
                                          {"start": 0.0, "stop": 10.0, "points": 101})})
    if not p.rows(rows, len(grid)):
        return p
    p.times(rows, grid)
    if argv[-1] == "fig3":
        for row, t in zip(rows, grid):
            for key, geometry in FIG3["geometries"].items():
                want = ref.kernel_infinite(geometry, FIG3["lam"], FIG3["i"], FIG3["j"], t)
                p.compare(f"{key} at t={t:.6g}", float(row[key]), want, ref.TOL_QUADRATURE)
        return p
    psi = ref.goal_vector(FIG1["goal"])
    # The figure's optimal densities are those of the problem at t = 1.
    _, _, g = ref.affine_objective(FIG1["channel"], FIG1["geometry"], FIG1["i"],
                                   FIG1["j"], 1.0, psi)
    direction = g / np.linalg.norm(g)
    densities = {"rho_plus": direction, "rho_minus": -direction,
                 "E11": (1, 0, 0), "E22": (-1, 0, 0), "uniform_plus": (0, 1, 0)}
    walks = {key: ref.Walk(FIG1["channel"], FIG1["geometry"], ref.bloch_matrix(r),
                           FIG1["j"]) for key, r in densities.items()}
    for row, t in zip(rows, grid):
        for key, walk in walks.items():
            want = ref.clamp(walk.state(FIG1["i"], t, psi))
            p.compare(f"{key} at t={t:.6g}", float(row[key]), want, ref.TOL_QUADRATURE)
    return p


def check_measure(config, argv, text, ctqmc=None):
    p = _Problems()
    _, rows = parse_csv(text)
    geometry, lam = config["geometry"], float(config["lambda"])
    if geometry["kind"] == "segment":
        atoms, weights = ref.segment_atoms(geometry, lam)
        if p.rows(rows, len(atoms)):
            for row, x, w in zip(rows, atoms, weights):
                p.compare("atom", float(row["x"]), float(x), ref.TOL_QUADRATURE)
                p.compare(f"weight at {x:.6g}", float(row["weight"]), float(w),
                          ref.TOL_QUADRATURE)
        return p
    lo, hi = 1.0 - 2.0 * abs(lam), 1.0 + 2.0 * abs(lam)
    xs = np.linspace(lo, hi, int(config.get("samples", 101)))[1:-1]
    if not p.rows(rows, len(xs)):
        return p
    for row, x in zip(rows, xs):
        p.compare("x", float(row["x"]), float(x), 1e-12)
        if geometry["kind"] == "line":
            want = ref.line_matrix_density(lam, float(x))
            for key, (a, b) in (("psi11", (0, 0)), ("psi12", (0, 1)), ("psi22", (1, 1))):
                p.compare(f"{key} at {x:.6g}", float(row[key]), want[a, b],
                          ref.TOL_QUADRATURE, relative=True)
        else:
            p.compare(f"density at {x:.6g}", float(row["density"]),
                      ref.measure_density(geometry, lam, float(x)),
                      ref.TOL_QUADRATURE, relative=True)
    return p


def check_recurrence(config, argv, text, ctqmc=None):
    p = _Problems()
    _, rows = parse_csv(text)
    if not p.rows(rows, 1):
        return p
    row = rows[0]
    i = int(config["sites"]["i"])
    verdict, integral = ref.recurrence(config["channel"], config["geometry"], i,
                                       ref.density_matrix(config["density"]))
    if row["classification"] != verdict:
        p.append(f"classification {row['classification']!r}, want {verdict!r}")
    elif math.isinf(integral):
        if row["integral"] != "inf":
            p.append(f"integral {row['integral']!r}, want inf")
    else:
        p.compare("integral", float(row["integral"]), integral, ref.TOL_QUADRATURE,
                  relative=True)
    return p


def check_oracle(config, argv, text, ctqmc=None):
    p = _Problems()
    _, rows = parse_csv(text)
    grid = _grid({"time_grid": config.get("time_grid",
                                          {"start": 0.5, "stop": 10.0, "points": 5})})
    n = int(config.get("max_site", 5)) + 1
    if not p.rows(rows, len(grid) * n * n):
        return p
    geometry = config["geometry"]
    rho = ref.density_matrix(config["density"])
    walks = {j: ref.Walk(config["channel"], geometry, rho, j) for j in range(n)}
    for row in rows:
        t, i, j = float(row["t"]), int(row["i"]), int(row["j"])
        want = walks[j].site(i, t)
        closed, oracle = float(row["closed_form"]), float(row["oracle"])
        p.compare(f"closed_form t={t:.6g} i={i} j={j}", closed, want, _tol(geometry))
        p.compare(f"oracle t={t:.6g} i={i} j={j}", oracle, want, ref.TOL_EXPM)
        p.compare(f"abs_error t={t:.6g} i={i} j={j}", float(row["abs_error"]),
                  abs(closed - oracle), 1e-15)
    return p


def check_deficit(request, values):
    p = _Problems()
    geometry = request["geometry"]
    for call, got in zip(request["calls"], values):
        want = ref.absorption_deficit(geometry, call["lam"], call["j"], call["t"])
        p.compare(f"deficit lam={call['lam']:.6g} j={call['j']} t={call['t']:.6g}",
                  got, want, ref.TOL_QUADRATURE)
    return p


def check_duran(request, values):
    p = _Problems()
    if request["blocks"] == "commuting":
        rep = ref.channel_rep(request["channel"])
        wants = [ref.duran_commuting(rep, call["x"]) for call in request["calls"]]
    else:
        t_rep, g_block = ref.noncommuting_blocks(request["abcd"])
        wants = [ref.duran_density(t_rep, g_block, call["x"]) for call in request["calls"]]
    for call, got, want in zip(request["calls"], values, wants):
        err = float(np.abs(np.asarray(got) - want).max())
        p.compare(f"duran density at x={call['x']:.6g}", err, 0.0, ref.TOL_QUADRATURE)
        herm = (np.asarray(got) + np.asarray(got).conj().T) / 2.0
        if np.linalg.eigvalsh(herm).min() < -1e-12:
            p.append(f"duran density at x={call['x']:.6g} is not positive semidefinite")
    return p


def check_quadrature(request, values):
    p = _Problems()
    for call, (kernel, quad) in zip(request["calls"], values):
        want = ref.scalar_kernel(call["geometry"], call["lam"], call["i"], call["j"],
                                 call["t"])
        label = (f"{call['geometry']['kind']} lam={call['lam']:.6g} "
                 f"i={call['i']} j={call['j']} t={call['t']:.6g}")
        p.compare(f"quadrature vs kernel, {label}", quad, kernel, ref.TOL_QUADRATURE)
        p.compare(f"kernel vs reference, {label}", kernel, want, ref.TOL_QUADRATURE)
    return p


def check_probe(probe, code, text):
    """A probe passes on a correct answer or, if allowed, a clean exit 2."""
    if code == 2 and probe["accept_exit_2"]:
        return []
    if "config_doc" not in probe:
        return [f"exit code {code!r}, want 2"]
    if code != 0:
        return [f"exit code {code!r}, want 0 with a correct answer"
                + (" or 2" if probe["accept_exit_2"] else "")]
    return check_prob(probe["config_doc"], probe["argv"], text)


CLI_CHECKS = {
    "prob": check_prob,
    "optimize": check_optimize,
    "figure": check_figure,
    "measure": check_measure,
    "recurrence": check_recurrence,
    "oracle": check_oracle,
}

LIBRARY_CHECKS = {
    "deficit": check_deficit,
    "duran": check_duran,
    "quadrature": check_quadrature,
}
