"""Command-line front end: JSON config in, deterministic CSV/JSON out.

Subcommands: channel-inspect, prob, recurrence, optimize, measure,
oracle-compare, figure.  Exit codes: 0 success, 2 invalid input (with a
one-line ``error:`` message on stderr), 3 numeric-tolerance failure in an
oracle comparison.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .analysis import optimal_initial_state, recurrence_classify
from .channels import (
    KrausChannel,
    QubitDensity,
    ValidationError,
    detect_pq,
    eigenbasis,
    superop_of,
)
from .generators import Geometry
from .kernels import (
    GoalState,
    KernelRequest,
    evolve_oracle,
    km_quadrature_oracle,
    scalar_kernel,
    site_probability,
    state_probability,
)
from .presets import (
    amplitude_damping,
    density_preset,
    depolarizing,
    identity_channel,
    pq_channel,
    segment_example,
)
from .spectra import scalar_measure, spectral_matrix_line

__all__ = ["main"]

_FMT = "%.17g"


def _complex_from_pair(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ValidationError(f"complex values must be numbers or [re, im], got {v!r}")


def _matrix_from_config(rows):
    return np.array([[_complex_from_pair(v) for v in row] for row in rows])


def _object(spec, name):
    """``spec`` itself, checked to be a JSON object; ``name`` is its path,
    empty for the whole config."""
    if not isinstance(spec, dict):
        what = f"field {name!r}" if name else "config"
        raise ValidationError(f"{what} must be an object, got {type(spec).__name__}")
    return spec


def _field(spec, path, block=None):
    """Value at a dotted config path.

    A missing field names its full path, and a block on the way that is
    not an object names its path and the type found.
    """
    full = f"{block}.{path}" if block else path
    seen = [block] if block else []
    for key in path.split("."):
        _object(spec, ".".join(seen))
        if key not in spec:
            raise ValidationError(f"missing field {full!r}")
        spec = spec[key]
        seen.append(key)
    return spec


def channel_from_config(spec) -> KrausChannel:
    _object(spec, "channel")
    if "preset" in spec:
        name = spec["preset"]
        if name == "depolarizing":
            return depolarizing(float(spec.get("s", 1.0 / 3.0)))
        if name == "pq":
            return pq_channel(*(float(_field(spec, k, "channel")) for k in "pqr"))
        if name == "segment_example":
            return segment_example()
        if name == "amplitude_damping":
            return amplitude_damping(float(spec.get("gamma", 0.5)))
        if name == "identity":
            return identity_channel()
        raise ValidationError(f"unknown channel preset {name!r}")
    if "kraus" in spec:
        mats = tuple(_matrix_from_config(m) for m in spec["kraus"])
        return KrausChannel(kraus=mats)
    raise ValidationError("channel spec needs 'preset' or 'kraus'")


def geometry_from_config(spec) -> Geometry:
    kind = _field(spec, "kind", "geometry")
    if kind == "line":
        return Geometry.line()
    if kind == "half_line":
        return Geometry.half_line(spec.get("left_boundary", "absorbing"))
    if kind == "segment":
        return Geometry.segment(
            int(_field(spec, "sites", "geometry")),
            left=spec.get("left_boundary", "reflecting"),
            right=spec.get("right_boundary", "reflecting"),
        )
    raise ValidationError(f"unknown geometry kind {kind!r}")


def density_from_config(spec) -> QubitDensity:
    _object(spec, "density")
    if "preset" in spec:
        return density_preset(spec["preset"])
    if "bloch" in spec:
        x, y, z = (float(v) for v in spec["bloch"])
        return QubitDensity.from_bloch(x, y, z)
    if "matrix" in spec:
        return QubitDensity.from_matrix(_matrix_from_config(spec["matrix"]))
    raise ValidationError("density spec needs 'preset', 'bloch' or 'matrix'")


def goal_from_config(spec) -> GoalState:
    psi = [_complex_from_pair(v) for v in _field(spec, "psi", "goal")]
    return GoalState.from_psi(psi)


def time_grid_from_config(spec) -> np.ndarray:
    _object(spec, "time_grid")
    start = float(spec.get("start", 0.0))
    stop = float(spec.get("stop", 10.0))
    points = int(spec.get("points", 11))
    if points < 1 or stop < start or (points > 1 and stop == start):
        raise ValidationError("time grid must be strictly increasing")
    return np.linspace(start, stop, points)


def _clamp_probability(value: float) -> float:
    clamped = min(1.0, max(0.0, value))
    if abs(clamped - value) > 1e-9:
        print(
            f"warning: probability {value!r} clamped to [0, 1] "
            f"(discrepancy {abs(clamped - value):.3e})",
            file=sys.stderr,
        )
    return clamped


def _emit(rows, columns, meta, args):
    # Adding 0.0 turns -0.0, which equals 0.0, into 0.0: both print as 0.
    if args.format == "csv":
        lines = [",".join(columns)] + [
            ",".join(_FMT % (row[c] + 0.0) if isinstance(row[c], float)
                     else str(row[c]) for c in columns)
            for row in rows
        ]
        text = "\n".join(lines) + "\n"
    else:
        rows = [{c: v + 0.0 if isinstance(v, float) else v for c, v in row.items()}
                for row in rows]
        doc = {"meta": meta, "series": rows}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    _write(text, args)


def _write(text, args):
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(config, args):
    return {"config": config, "truncation": args.truncation}


def cmd_channel_inspect(config, args) -> int:
    ch = channel_from_config(_field(config, "channel"))
    s = superop_of(ch)
    report = {
        "representation": [[[v.real, v.imag] for v in row] for row in s.rep],
        "is_hermitian": s.is_hermitian,
        "is_pq": detect_pq(s),
        "normalization_residual": float(
            np.abs(sum(v.conj().T @ v for v in ch.kraus) - np.eye(2) / 2).max()
        ),
    }
    if s.is_hermitian:
        basis = eigenbasis(s)
        report["lambdas"] = [float(l) for l in basis.lambdas]
        report["eigenbasis"] = [
            [[v.real, v.imag] for v in row] for row in basis.basis
        ]
    _write(json.dumps({"meta": _meta(config, args), "report": report},
                      sort_keys=True, indent=2) + "\n", args)
    return 0


def cmd_prob(config, args) -> int:
    ch = channel_from_config(_field(config, "channel"))
    g = geometry_from_config(_field(config, "geometry"))
    rho = density_from_config(_field(config, "density"))
    basis = eigenbasis(superop_of(ch))
    i = int(_field(config, "sites.i"))
    j = int(_field(config, "sites.j"))
    grid = time_grid_from_config(config.get("time_grid", {}))
    goal = goal_from_config(_field(config, "goal")) if args.mode == "state" else None
    rows = []
    for t in grid:
        if args.mode == "state":
            raw = state_probability(basis, g, rho, j, i, goal, float(t))
        else:
            raw = site_probability(basis, g, rho, j, i, float(t))
        row = {"t": float(t), "value": _clamp_probability(raw)}
        if args.verbose:
            for k, lam in enumerate(basis.lambdas):
                row[f"kernel_{k}"] = scalar_kernel(
                    KernelRequest(geometry=g, lam=float(lam), i=i, j=j, t=float(t))
                )
        rows.append(row)
    _emit(rows, list(rows[0].keys()), _meta(config, args), args)
    return 0


def cmd_recurrence(config, args) -> int:
    ch = channel_from_config(_field(config, "channel"))
    g = geometry_from_config(_field(config, "geometry"))
    rho = density_from_config(_field(config, "density"))
    basis = eigenbasis(superop_of(ch))
    i = int(_field(config, "sites.i"))
    verdict = recurrence_classify(basis, g, i, rho)
    rows = [
        {
            "site": verdict.site,
            "classification": verdict.classification,
            "integral": "inf" if math.isinf(verdict.integral)
            else float(verdict.integral),
            "contributing": json.dumps(
                [[lam, w] for lam, w in verdict.contributing_lambdas]
            ),
        }
    ]
    _emit(rows, list(rows[0].keys()), _meta(config, args), args)
    return 0


def cmd_optimize(config, args) -> int:
    ch = channel_from_config(_field(config, "channel"))
    g = geometry_from_config(_field(config, "geometry"))
    basis = eigenbasis(superop_of(ch))
    goal = goal_from_config(_field(config, "goal"))
    i = int(_field(config, "sites.i"))
    j = int(_field(config, "sites.j"))
    grid = time_grid_from_config(config.get("time_grid", {}))
    rows = []
    for t in grid:
        opt = optimal_initial_state(basis, g, i, j, float(t), goal)
        xp, yp, zp = opt.rho_plus.bloch
        xm, ym, zm = opt.rho_minus.bloch
        rows.append(
            {
                "t": float(t),
                "value_plus": opt.value_plus,
                "value_minus": opt.value_minus,
                "x_plus": xp, "y_plus": yp, "z_plus": zp,
                "x_minus": xm, "y_minus": ym, "z_minus": zm,
                "degenerate": opt.degenerate,
                "method": opt.method,
            }
        )
    _emit(rows, list(rows[0].keys()), _meta(config, args), args)
    return 0


def cmd_measure(config, args) -> int:
    g = geometry_from_config(_field(config, "geometry"))
    lam = float(_field(config, "lambda"))
    samples = int(config.get("samples", 101))
    if samples < 3:
        raise ValidationError("samples must be >= 3: the two support ends are dropped")
    rows = []
    if g.kind == "line":
        sm = spectral_matrix_line(lam)
        lo, hi = sm.support
        xs = np.linspace(lo, hi, samples)[1:-1]
        for x in xs:
            d = sm.density(float(x))
            rows.append(
                {"x": float(x), "psi11": float(d[0, 0]),
                 "psi12": float(d[0, 1]), "psi22": float(d[1, 1])}
            )
    else:
        m = scalar_measure(g, lam)
        if m.form == "atomic":
            for x, w in zip(m.atoms, m.atom_weights):
                rows.append({"x": float(x), "weight": float(w)})
        else:
            lo, hi = m.support
            xs = np.linspace(lo, hi, samples)[1:-1]
            for x in xs:
                rows.append({"x": float(x), "density": float(m.density(float(x)))})
    _emit(rows, list(rows[0].keys()), _meta(config, args), args)
    return 0


def cmd_oracle_compare(config, args) -> int:
    ch = channel_from_config(_field(config, "channel"))
    g = geometry_from_config(_field(config, "geometry"))
    rho = density_from_config(_field(config, "density"))
    basis = eigenbasis(superop_of(ch))
    truncation = 200 if args.truncation is None else args.truncation
    times = time_grid_from_config(config.get("time_grid", {"start": 0.5,
                                                           "stop": 10.0,
                                                           "points": 5}))
    max_site = int(config.get("max_site", 5))
    if max_site < 0:
        raise ValidationError("max_site must be >= 0")
    starts = range(max_site + 1)
    sites, blocks = evolve_oracle(ch, g, rho, starts, times, truncation=truncation)
    offset = sites.index(0)
    rows = []
    worst = 0.0
    for at_t, t in zip(blocks, times):
        for j in starts:
            for i in starts:
                closed = site_probability(basis, g, rho, j, i, float(t))
                oracle = float(np.trace(at_t[j, offset + i]).real)
                err = abs(closed - oracle)
                worst = max(worst, err)
                rows.append({"t": float(t), "i": i, "j": j,
                             "closed_form": closed, "oracle": oracle,
                             "abs_error": err})
    quad_worst = 0.0
    for lam in (0.5, -0.5, 1.0 / 3.0, -1.0 / 3.0, 0.25):
        for (i, j) in ((0, 0), (3, 1), (5, 5)):
            if g.kind == "segment" and max(i, j) >= g.sites:
                continue
            req = KernelRequest(geometry=g, lam=lam, i=i, j=j, t=2.0)
            quad_worst = max(
                quad_worst, abs(scalar_kernel(req) - km_quadrature_oracle(req))
            )
    meta = _meta(config, args)
    meta["max_abs_error_expm"] = worst
    meta["max_abs_error_quadrature"] = quad_worst
    _emit(rows, ["t", "i", "j", "closed_form", "oracle", "abs_error"], meta, args)
    if worst > 1e-8 or quad_worst > 1e-10:
        return 3
    return 0


_FIGURES = {
    "fig1": {
        "channel": {"preset": "depolarizing", "s": 1.0 / 3.0},
        "geometry": {"kind": "half_line", "left_boundary": "absorbing"},
        "goal": {"psi": [[0.5, 0.0], [0.8660254037844386, 0.0]]},
        "sites": {"i": 1, "j": 1},
    },
    "fig3": {
        "channel": {"preset": "identity"},
        "sites": {"i": 1, "j": 0},
    },
}


def cmd_figure(config, args) -> int:
    name = args.name
    if name not in _FIGURES:
        raise ValidationError(f"unknown figure {name!r}; choices: fig1, fig3")
    setup = _FIGURES[name]
    grid = time_grid_from_config(config.get("time_grid",
                                            {"start": 0.0, "stop": 10.0,
                                             "points": 101}))
    rows = []
    if name == "fig1":
        ch = channel_from_config(setup["channel"])
        g = geometry_from_config(setup["geometry"])
        basis = eigenbasis(superop_of(ch))
        goal = goal_from_config(setup["goal"])
        i, j = setup["sites"]["i"], setup["sites"]["j"]
        opt = optimal_initial_state(basis, g, i, j, 1.0, goal)
        densities = {
            "rho_plus": opt.rho_plus,
            "rho_minus": opt.rho_minus,
            "E11": density_preset("E11"),
            "E22": density_preset("E22"),
            "uniform_plus": density_preset("uniform_plus"),
        }
        for t in grid:
            row = {"t": float(t)}
            for key, rho in densities.items():
                row[key] = _clamp_probability(
                    state_probability(basis, g, rho, j, i, goal, float(t))
                )
            rows.append(row)
    else:
        i, j = setup["sites"]["i"], setup["sites"]["j"]
        geoms = {
            "reflecting": Geometry.half_line("reflecting"),
            "line": Geometry.line(),
            "absorbing": Geometry.half_line("absorbing"),
        }
        for t in grid:
            row = {"t": float(t)}
            for key, g in geoms.items():
                row[key] = scalar_kernel(
                    KernelRequest(geometry=g, lam=0.5, i=i, j=j, t=float(t))
                )
            rows.append(row)
    _emit(rows, list(rows[0].keys()), {"figure": name}, args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctqmc",
        description="Continuous-time quantum Markov chains on the qubit lattice",
    )
    parser.add_argument("--config", help="path to a JSON configuration file")
    parser.add_argument("--output", help="write results to this path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--truncation", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("channel-inspect")
    p_prob = sub.add_parser("prob")
    p_prob.add_argument("--mode", choices=("site", "state"), default="site")
    sub.add_parser("recurrence")
    sub.add_parser("optimize")
    sub.add_parser("measure")
    sub.add_parser("oracle-compare")
    p_fig = sub.add_parser("figure")
    p_fig.add_argument("--name", required=True)
    return parser


_COMMANDS = {
    "channel-inspect": cmd_channel_inspect,
    "prob": cmd_prob,
    "recurrence": cmd_recurrence,
    "optimize": cmd_optimize,
    "measure": cmd_measure,
    "oracle-compare": cmd_oracle_compare,
    "figure": cmd_figure,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = {}
        if args.config:
            with open(args.config) as fh:
                config = _object(json.load(fh), "")
        return _COMMANDS[args.command](config, args)
    # Bad input: unreadable config, unwritable output, malformed JSON,
    # missing, mistyped or invalid fields, times too long to represent.
    except (OSError, ValueError, TypeError, AttributeError, KeyError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
