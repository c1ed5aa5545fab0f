"""Spans around the program's layers, recorded from outside the package.

The package's modules import their collaborators by name (``from .lanczos
import lowest_k``), so each function is wrapped where it is used: the
attribute ``oscdmrg.dmrg.lowest_k`` is replaced, not ``oscdmrg.lanczos``'s.
``Tracer.installed`` swaps the wrappers in and puts the originals back.
Spans are kept in memory as [name, start, end, parent, attrs] and turned
into per-layer numbers by ``layer_metrics``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name). Every target must exist: a renamed or
# removed name would otherwise read as a layer that did no work.
TARGETS = [
    ("oscdmrg.cli", "main", "cli.main"),
    ("oscdmrg", "run_dmrg", "dmrg.run"),
    ("oscdmrg.cli", "run_dmrg", "dmrg.run"),
    ("oscdmrg.dmrg", "superblock_solve", "dmrg.solve"),
    ("oscdmrg.dmrg", "enlarge_block", "dmrg.enlarge"),
    ("oscdmrg.dmrg", "truncate_block", "dmrg.truncate"),
    ("oscdmrg.dmrg", "lowest_k", "lanczos.lowest_k"),
    ("oscdmrg.ed", "lowest_k", "lanczos.lowest_k"),
    ("oscdmrg.dmrg", "dense_sym_eig", "lanczos.dense_eig"),
    ("oscdmrg", "ed_lowest", "ed.lowest"),
    ("oscdmrg.cli", "ed_lowest", "ed.lowest"),
    ("oscdmrg.ed", "build_full_hamiltonian", "ed.build"),
    ("oscdmrg", "site_rdm", "entropy.site_rdm"),
    ("oscdmrg", "von_neumann", "entropy.von_neumann"),
    ("oscdmrg.dmrg", "von_neumann", "entropy.von_neumann"),
    ("oscdmrg.dmrg", "project", "fock.project"),
    ("oscdmrg.dmrg", "kron", "fock.kron"),
    ("oscdmrg.ed", "kron", "fock.kron"),
]

NAME, START, END, PARENT, ATTRS = range(5)

# Spans of the matvec handed to lowest_k: per caller, and for a caller the
# tracer does not know.
MATVECS = ("dmrg.matvec", "ed.matvec", "lanczos.matvec")


class MissingTarget(RuntimeError):
    """A traced name no longer exists in the program."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def _begin(self, name: str, attrs: dict | None = None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._open.pop()

    def _enclosing(self, name: str) -> list | None:
        for idx in reversed(self._open):
            if self.spans[idx][NAME] == name:
                return self.spans[idx]
        return None

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name, {})
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self.spans[idx][ATTRS], fn, args, kwargs)
            finally:
                self._end(idx)

        return traced

    def _timed_matvec(self, name: str, fn, flops_per_col: float):
        def traced(vblock):
            cols = 1 if vblock.ndim == 1 else vblock.shape[1]
            idx = self._begin(name, {"cols": cols, "flops": flops_per_col * cols})
            try:
                return fn(vblock)
            finally:
                self._end(idx)
        return traced

    # Hooks see the span's attrs and make the call themselves.

    def _hook_dmrg_run(self, attrs, fn, args, kwargs):
        spec = args[0] if args else kwargs["spec"]
        attrs["n_sites"] = spec.n_sites
        res = fn(*args, **kwargs)
        attrs["sweeps"] = len(res.sweep_energy_trace)
        attrs["site_records"] = sum(r.kind == "site" for r in res.truncation_records)
        attrs["converged"] = bool(res.converged)
        return res

    def _hook_dmrg_solve(self, attrs, fn, args, kwargs):
        left, site_ops, right = args[:3]
        dl, ds, dr = left.basis_dim, site_ops.dim, right.basis_dim
        # GEMM flops of one superblock matvec column: the stacked (H, x)
        # pair of each non-empty block and the stacked site pair.
        per_col = 4.0 * dl * ds * dr * (ds + dl * (left.length > 0)
                                        + dr * (right.length > 0))
        attrs["matvec"] = ("dmrg.matvec", per_col)
        run = self._enclosing("dmrg.run")
        n_sites = run[ATTRS]["n_sites"] if run else None
        attrs["full_chain"] = left.length + 1 + right.length == n_sites
        return fn(*args, **kwargs)

    def _hook_ed_build(self, attrs, fn, args, kwargs):
        ham = fn(*args, **kwargs)
        # Matrix-free path: two tensordots with the m x m position operator
        # per bond (the ED workload is far above the dense cutoff).
        per_col = 4.0 * ham.dim * ham.site_dim * (ham.n_sites - 1)
        lowest = self._enclosing("ed.lowest")
        if lowest is not None:
            lowest[ATTRS]["matvec"] = ("ed.matvec", per_col)
        return ham

    def _hook_lanczos_lowest_k(self, attrs, fn, args, kwargs):
        # The caller's span (dmrg.solve or ed.lowest) says which matvec
        # this is and what one column of it costs.
        caller = self.spans[self._open[-2]][ATTRS] if len(self._open) > 1 else {}
        name, per_col = caller.get("matvec", ("lanczos.matvec", 0.0))
        args = list(args)
        if args:
            args[0] = self._timed_matvec(name, args[0], per_col)
        for key in ("apply", "apply_block"):
            if kwargs.get(key) is not None:
                kwargs[key] = self._timed_matvec(name, kwargs[key], per_col)
        return fn(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        saved = []
        try:
            for modname, attr, name in TARGETS:
                mod = importlib.import_module(modname)
                if not hasattr(mod, attr):
                    raise MissingTarget(
                        f"{modname}.{attr} no longer exists; its layer '{name}' "
                        "cannot be traced")
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(name, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def dump(self) -> dict:
        """The spans in a compact form for the trace file."""
        names = sorted({s[NAME] for s in self.spans})
        t0 = self.spans[0][START] if self.spans else 0.0
        code = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent", "attrs"],
            "spans": [[code[s[NAME]], round(s[START] - t0, 7), round(s[END] - t0, 7),
                       s[PARENT], s[ATTRS] or None] for s in self.spans],
        }


def _durations(spans):
    by_name = defaultdict(float)
    count = defaultdict(int)
    child_time = defaultdict(float)
    for s in spans:
        d = s[END] - s[START]
        by_name[s[NAME]] += d
        count[s[NAME]] += 1
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += d
    return by_name, count, child_time


def _busy(spans, prefix: str) -> float:
    """Time inside spans whose name starts with ``prefix``, counting a span
    nested in another of the same layer once."""
    total = 0.0
    for s in spans:
        if not s[NAME].startswith(prefix):
            continue
        p = s[PARENT]
        while p >= 0 and not spans[p][NAME].startswith(prefix):
            p = spans[p][PARENT]
        if p < 0:
            total += s[END] - s[START]
    return total


def _self_time(spans, name: str, child_time) -> float:
    return sum(s[END] - s[START] - child_time[i]
               for i, s in enumerate(spans) if s[NAME] == name)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers of one traced stretch of work."""
    total, count, child_time = _durations(spans)

    def attr_sum(name, key):
        return sum(s[ATTRS][key] for s in spans if s[NAME] == name)

    def rate(flops, seconds):
        return flops / seconds / 1e9 if seconds > 0 else 0.0

    solves = count["lanczos.lowest_k"]
    mv_cols = sum(attr_sum(n, "cols") for n in MATVECS)
    mv_s = sum(total[n] for n in MATVECS)
    full_chain = sum(1 for s in spans
                     if s[NAME] == "dmrg.solve" and s[ATTRS]["full_chain"])
    site_records = attr_sum("dmrg.run", "site_records")
    return {
        "lanczos.solves": solves,
        "lanczos.busy_s": total["lanczos.lowest_k"],
        "lanczos.self_s": total["lanczos.lowest_k"] - mv_s,
        "lanczos.matvec_cols": mv_cols,
        "lanczos.matvec_cols_per_solve": mv_cols / solves if solves else 0.0,
        "lanczos.dense_eig_calls": count["lanczos.dense_eig"],
        "lanczos.dense_eig_s": total["lanczos.dense_eig"],
        "dmrg.superblock_solves": count["dmrg.solve"],
        "dmrg.solve_s": total["dmrg.solve"],
        "dmrg.matvec_s": total["dmrg.matvec"],
        "dmrg.matvec_cols": attr_sum("dmrg.matvec", "cols"),
        "dmrg.matvec_gflop_per_s": rate(attr_sum("dmrg.matvec", "flops"),
                                        total["dmrg.matvec"]),
        "dmrg.refine_solves_per_visit": full_chain / site_records if site_records else 0.0,
        "dmrg.sweeps": attr_sum("dmrg.run", "sweeps"),
        "dmrg.enlarge_calls": count["dmrg.enlarge"],
        "dmrg.enlarge_s": total["dmrg.enlarge"],
        "dmrg.truncate_calls": count["dmrg.truncate"],
        "dmrg.truncate_s": total["dmrg.truncate"],
        "dmrg.self_s": _self_time(spans, "dmrg.run", child_time),
        "ed.build_s": total["ed.build"],
        "ed.matvec_s": total["ed.matvec"],
        "ed.matvec_cols": attr_sum("ed.matvec", "cols"),
        "ed.matvec_gflop_per_s": rate(attr_sum("ed.matvec", "flops"), total["ed.matvec"]),
        "entropy.busy_s": _busy(spans, "entropy."),
        "fock.busy_s": _busy(spans, "fock."),
        "cli.self_s": _self_time(spans, "cli.main", child_time),
    }
