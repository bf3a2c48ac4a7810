"""Span tracing of ctqmc's public functions, applied from outside the package.

Modules import each other's functions by name (``from .linalg import
hermitian_eig``), so a function is patched in every ``ctqmc`` namespace
that binds it; methods are patched on their class.  Each call records a
span with its parent: self time is the span's duration minus the time
of the traced spans it caused.  Spans are aggregated in memory per
(parent, function) edge rather than stored one by one.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute path) of every traced function, grouped by layer.
TARGETS = (
    ("cli", "main"),
    ("analysis", "optimal_initial_state"),
    ("analysis", "recurrence_classify"),
    ("analysis", "absorption_deficit"),
    ("kernels", "scalar_kernel"),
    ("kernels", "site_probability"),
    ("kernels", "state_probability"),
    ("kernels", "km_quadrature_oracle"),
    ("kernels", "evolve_oracle"),
    ("spectra", "scalar_measure"),
    ("spectra", "polynomials"),
    ("spectra", "spectral_matrix_line"),
    ("spectra", "duran_density"),
    ("generators", "assemble_generator"),
    ("generators", "BlockTridiagonalOperator.dense"),
    ("generators", "scalar_jacobi_matrix"),
    ("channels", "superop_of"),
    ("channels", "eigenbasis"),
    ("channels", "detect_pq"),
    ("channels", "QubitDensity.from_bloch"),
    ("linalg", "hermitian_eig"),
    ("linalg", "expm_apply"),
    ("specfun", "bessel_i"),
    ("specfun", "cheb_eval"),
    ("specfun", "gauss_chebyshev"),
    ("specfun", "bessel_laplace"),
)

NAMES = tuple(f"{mod}.{path}" for mod, path in TARGETS)

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Installs wrappers, records spans and reports per-list statistics."""

    def __init__(self):
        self._stack = []  # [name, child_seconds] of the open spans
        self._patches = []  # (owner, attribute, original) to undo
        self.reset()

    def reset(self):
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, name) -> calls, s
        self.sums = {"specfun.bessel_i.arg_sum": 0.0,
                     "linalg.hermitian_eig.n3_sum": 0,
                     "linalg.expm_apply.matrix_bytes": 0,
                     "generators.dense.bytes": 0}
        self.distinct = {"spectra.scalar_measure": set(),
                         "channels.eigenbasis": set()}

    # Computed-work counts taken from the arguments before a traced call.

    def _pre(self, name, args, kwargs):
        if name == "specfun.bessel_i":
            self.sums["specfun.bessel_i.arg_sum"] += float(_arg(args, kwargs, 1, "x"))
        elif name == "linalg.hermitian_eig":
            n = np.shape(_arg(args, kwargs, 0, "h"))[0]
            self.sums["linalg.hermitian_eig.n3_sum"] += n ** 3
        elif name == "linalg.expm_apply":
            a = _arg(args, kwargs, 0, "a")
            self.sums["linalg.expm_apply.matrix_bytes"] += np.asarray(a).nbytes
        elif name == "spectra.scalar_measure":
            key = (_arg(args, kwargs, 0, "g"), float(_arg(args, kwargs, 1, "lam")))
            self.distinct[name].add(key)
        elif name == "channels.eigenbasis":
            s = _arg(args, kwargs, 0, "s")
            self.distinct[name].add(np.asarray(s.rep).tobytes())

    def _wrap(self, name, fn):
        stack = self._stack
        counted = name in ("specfun.bessel_i", "linalg.hermitian_eig",
                           "linalg.expm_apply", "spectra.scalar_measure",
                           "channels.eigenbasis")
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counted:
                tracer._pre(name, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - frame[1]
                parent = stack[-1][0] if stack else None
                edge = tracer.edges[(parent, name)]
                edge[0] += 1
                edge[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if name == "generators.BlockTridiagonalOperator.dense":
                tracer.sums["generators.dense.bytes"] += result.nbytes
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        import ctqmc

        modules = [ctqmc] + [
            importlib.import_module(f"ctqmc.{info.name}")
            for info in pkgutil.iter_modules(ctqmc.__path__)
        ]
        for mod_name, path in TARGETS:
            name = f"{mod_name}.{path}"
            home = sys.modules[f"ctqmc.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, patched)
                continue
            original = getattr(home, path)
            traced = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        """Per-layer figures of the calls since the last reset."""
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.sums)
        for name, seen in self.distinct.items():
            calls = self.calls[name]
            # No calls means nothing was recomputed: report no waste.
            out[f"{name}.distinct_ratio"] = len(seen) / calls if calls else 1.0
        return out

    def edge_table(self) -> list:
        return sorted(
            ([parent or "-", name, c, round(s, 6)]
             for (parent, name), (c, s) in self.edges.items()),
            key=lambda row: -row[3])
