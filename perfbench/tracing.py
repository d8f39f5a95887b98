"""Span tracing of liesegang from outside the package.

A Tracer replaces, for the duration of a traced case, every module global of
the loaded liesegang modules that refers to one of the functions in
FUNCTIONS, including names one module imported from another (such as
``profile.kummer_m`` or ``pde.omega_eval``), and ``Mollifier.__call__``.
Kernel objects returned by the kernel factories get recording ``eval`` and
``cum``.  Each call records one span (name, parent span, case, start, end,
points); spans stay in memory and are written out when the run ends.  The
package source is not modified.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _file_bytes(path) -> int:
    return os.path.getsize(path) if path != "-" and os.path.exists(path) else 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# (module, function, points(args, kwargs, result) or None)
FUNCTIONS = (
    ("specfun", "kummer_m", lambda a, k, r: _size(_arg(a, k, 2, "z"))),
    ("specfun", "erfc", lambda a, k, r: _size(_arg(a, k, 0, "x"))),
    ("profile", "solve_kappa", None),
    ("profile", "phi_eval", lambda a, k, r: _size(_arg(a, k, 1, "eta"))),
    ("profile", "psi_eval", lambda a, k, r: _size(_arg(a, k, 1, "eta"))),
    ("kernel", "synthetic_kernel", None),
    ("kernel", "build_kernel_table", None),
    ("kernel", "gamma_const", None),
    ("kernel", "g_eval", None),
    ("kernel", "k_eval", None),
    ("kernel", "kernel_from_samples", lambda a, k, r: _size(_arg(a, k, 0, "thetas"))),
    ("rings", "solve_pattern", None),
    # points of next_zero: 1 when it found a zero
    ("rings", "next_zero", lambda a, k, r: int(r is not None)),
    ("rings", "classify_continuation", None),
    ("rings", "omega_eval", lambda a, k, r: _size(_arg(a, k, 2, "x"))),
    ("degenerate", "construct_degenerate", None),
    ("degenerate", "choose_epsilon", None),
    ("degenerate", "build_gap_bridge", None),
    ("degenerate", "fill_head", None),
    ("degenerate", "verify_degeneracy", None),
    ("extended", "extended_solve", None),
    # points of mollified_solve: grid nodes marched
    ("extended", "mollified_solve", lambda a, k, r: len(r[0]) - 1),
    ("extended", "regular_extension_solve", None),
    ("pde", "run", None),
    ("pde", "init", None),
    ("pde", "step", None),
    ("pde", "assemble_system", None),
    ("pde", "transport_p", None),
    ("pde", "parabola_compare", None),
    ("cli", "dispatch", None),
    # points of emit_csv: bytes written
    ("cli", "emit_csv", lambda a, k, r: _file_bytes(_arg(a, k, 0, "path"))),
    ("cli", "load_kernel_file", None),
)

# functions whose results carry Kernel objects to wrap
KERNEL_FACTORIES = {"synthetic_kernel", "build_kernel_table", "kernel_from_samples", "fill_head"}

SPAN_COLUMNS = ("name", "parent", "case", "start_ns", "end_ns", "points")


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # rows as in SPAN_COLUMNS; name is an index into names
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)
        self.case = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, points=None, post=None):
        """fn with a span per call; post maps the result after the span."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[idx] = (nid, parent, tracer.case, start, end, 0)
                raise
            end = clock()
            stack.pop()
            pts = points(args, kwargs, out) if points is not None else 0
            spans[idx] = (nid, parent, tracer.case, start, end, pts)
            return post(out) if post is not None else out

        return traced

    def wrap_kernel(self, kern):
        return dataclasses.replace(
            kern,
            eval=self.wrap("kernel.eval", kern.eval, lambda a, k, r: _size(a[0])),
            cum=self.wrap(
                "kernel.cum", kern.cum, lambda a, k, r: max(_size(a[0]), _size(a[1]))
            ),
        )

    def _wrap_kernels(self, out):
        if isinstance(out, tuple):  # build_kernel_table -> (table, kernel)
            return tuple(self._wrap_kernels(x) for x in out)
        if hasattr(out, "result") and hasattr(out.result, "cum"):  # fill_head
            return dataclasses.replace(out, result=self.wrap_kernel(out.result))
        if hasattr(out, "cum") and hasattr(out, "gamma_const"):
            return self.wrap_kernel(out)
        return out

    def install(self) -> None:
        """Patch every loaded liesegang module; undo with uninstall()."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("liesegang.") and mod is not None
        }
        everywhere = list(modules.values()) + [sys.modules["liesegang"]]
        for module, attr, points in FUNCTIONS:
            home = modules.get(module)
            if home is None:
                continue
            original = getattr(home, attr)
            post = self._wrap_kernels if attr in KERNEL_FACTORIES else None
            traced = self.wrap(f"{module}.{attr}", original, points, post)
            for mod in everywhere:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._patch(mod, key, traced)
        if "extended" in modules:
            moll = modules["extended"].Mollifier
            self._patch(
                moll, "__call__",
                self.wrap("extended.mollifier", moll.__call__, lambda a, k, r: _size(a[1])),
            )

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_array(self) -> np.ndarray:
        # a span still open has no row yet; case -1 keeps it out of aggregate()
        rows = [s if s is not None else (0, -1, -1, 0, 0, 0) for s in self.spans]
        return np.asarray(rows, dtype=np.int64).reshape(len(rows), len(SPAN_COLUMNS))

    def save(self, path) -> None:
        """Write the spans out as a compressed .npz (names, spans)."""
        np.savez_compressed(path, names=np.asarray(self.names), spans=self.span_array())


def aggregate(names, spans: np.ndarray, stats=None) -> dict:
    """Add {span name: [calls, points, self_s]} over spans of cases >= 0.

    Self time is a span's duration minus the durations of its direct
    children, so nested spans are counted once.
    """
    stats = {} if stats is None else stats
    if len(spans) == 0:
        return stats
    name, parent, case = spans[:, 0], spans[:, 1], spans[:, 2]
    dur = (spans[:, 4] - spans[:, 3]).astype(float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
    self_ns = dur - child
    keep = case >= 0
    for nid in np.unique(name[keep]):
        sel = keep & (name == nid)
        row = stats.setdefault(str(names[nid]), [0, 0, 0.0])
        row[0] += int(np.sum(sel))
        row[1] += int(np.sum(spans[sel, 5]))
        row[2] += float(np.sum(self_ns[sel])) * 1e-9
    return stats
