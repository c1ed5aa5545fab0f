"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed list of operations; one operation is one chain
solve. Each solve yields an ``Outcome`` holding what the program reported,
and ``check`` compares it with the independent references in
``references.py``. Solves call the program through attributes of its
modules looked up at call time, so the traced run sees them through its
wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import references as ref

# Allowance for the variational bound E0 >= (1/2) hbar sum_j w_j.
VARIATIONAL_SLACK = 1e-9


@dataclass
class Outcome:
    """What one solve reported.

    ``e0_rounding`` is the absolute rounding of an energy read back from
    printed output (0 for values taken from the program's return value).
    ``residuals``, where the solve returns states, computes
    ||H psi - E psi|| under the benchmark's own H; it runs at check time,
    outside the timed round.
    """

    label: str
    n_sites: int
    hbar: float
    e0: float
    gap: float | None
    entanglement: float
    converged: bool | None = None
    e0_rounding: float = 0.0
    residuals: Callable[[], np.ndarray] | None = None


@dataclass(frozen=True)
class Tolerances:
    """Accuracy each solve of a workload must reach (see README)."""

    e0_rel: float
    se_abs: float
    gap_rel: float | None = None
    residual: float | None = None


def e0_rel_err(out: Outcome) -> float:
    """Relative excess of the computed ground energy over the closed form."""
    exact = ref.ground_energy(out.n_sites, out.hbar)
    return (out.e0 - exact) / exact


def se_abs_err(out: Outcome) -> float:
    """|S_E - S_E(exact)| against the Gaussian oracle."""
    return abs(out.entanglement - ref.gaussian_entanglement(out.n_sites))


def check(out: Outcome, tol: Tolerances) -> list[str]:
    """Every way ``out`` misses its references; empty when it passes."""
    misses = []
    exact = ref.ground_energy(out.n_sites, out.hbar)
    if not out.e0 >= exact - VARIATIONAL_SLACK - out.e0_rounding:
        misses.append(f"{out.label}: E0 {out.e0!r} below the closed form {exact!r}")
    if not e0_rel_err(out) <= tol.e0_rel:
        misses.append(f"{out.label}: E0 relative error {e0_rel_err(out):.3e} > {tol.e0_rel:.1e}")
    if not se_abs_err(out) <= tol.se_abs:
        misses.append(f"{out.label}: S_E error {se_abs_err(out):.3e} > {tol.se_abs:.1e}")
    if tol.gap_rel is not None:
        exact_gap = ref.first_gap(out.n_sites, out.hbar)
        if out.gap is None:
            misses.append(f"{out.label}: no gap reported")
        elif not abs(out.gap - exact_gap) <= tol.gap_rel * exact_gap:
            misses.append(f"{out.label}: gap {out.gap!r} vs hbar*w_1 {exact_gap!r}"
                          f" beyond {tol.gap_rel:.1e} relative")
    if tol.residual is not None:
        if out.residuals is None:
            misses.append(f"{out.label}: no states to check residuals on")
        else:
            resid = out.residuals()
            if not np.all(resid <= tol.residual):
                misses.append(f"{out.label}: residuals {resid} > {tol.residual:.1e}")
    return misses


Round = Callable[[], "list[Outcome | Exception]"]


def _attempt(label: str, solve: Callable[[], Outcome]) -> "Outcome | Exception":
    try:
        return solve()
    except Exception as err:  # one failed solve must not end the run
        print(f"bench: solve {label} raised", file=sys.stderr)
        return err


class Workload:
    """A fixed list of solves with the tolerances their checks use.

    ``prepare`` builds the program's inputs and returns one round: a
    callable that makes every solve once and returns, per solve, the
    Outcome or the exception it raised.
    """

    name = ""
    solves = 0
    tolerances: Tolerances

    def prepare(self, pkg, seed: int) -> Round:
        raise NotImplementedError


class OptTwoTarget(Workload):
    """run_dmrg, optimized bases, two targets, on a short size scan."""

    name = "opt-two-target"
    sizes = (10, 16)
    solves = len(sizes)
    # Measured at this configuration: E0 errors 2e-5 and 7e-5, S_E errors
    # 4e-4 and 1.5e-3, gap errors 3e-4 and 6e-3 relative (N=10, 16).
    tolerances = Tolerances(e0_rel=5e-4, se_abs=5e-3, gap_rel=2e-2)

    def prepare(self, pkg, seed):
        cfg = pkg.DmrgConfig(kept_states=10, feed_size=4, n_targets=2,
                             optimized=True, seed=seed)
        specs = [pkg.ChainSpec(n, 1.0, 14) for n in self.sizes]

        def solve(spec) -> Outcome:
            res = pkg.run_dmrg(spec, cfg)
            return Outcome(f"N={spec.n_sites}", spec.n_sites, spec.hbar_tilde,
                           float(res.energies[0]), res.gap,
                           float(res.entanglement_SE), bool(res.converged))

        return lambda: [_attempt(f"N={s.n_sites}", lambda s=s: solve(s)) for s in specs]


class BareScan(Workload):
    """``oscdmrg scan-basis --basis-mode bare`` through cli.main, in-process."""

    name = "bare-scan"
    n_sites = 30
    n_list = (8, 12)
    solves = len(n_list)
    # Measured: E0 errors 2.5e-4 and 1.5e-5, S_E errors 2.5e-2 and 2.6e-3.
    tolerances = Tolerances(e0_rel=1e-3, se_abs=5e-2)

    def prepare(self, pkg, seed):
        argv = ["scan-basis", "--basis-mode", "bare", "--N", str(self.n_sites),
                "--n-list", ",".join(map(str, self.n_list)), "--seed", str(seed)]

        def round_():
            try:
                rows = parse_scan_basis(run_cli(pkg, argv), self.n_list)
            except Exception as err:  # the whole scan failed
                return [err] * self.solves
            return [row if isinstance(row, Exception) else
                    _attempt(f"n={n}", lambda row=row: scan_outcome(row, self.n_sites))
                    for n, row in zip(self.n_list, rows)]

        return round_


class EdMatrixFree(Workload):
    """ed_lowest on the matrix-free path, then every site's site_rdm."""

    name = "ed-matrix-free"
    n_sites, bare_dim, k = 7, 5, 2
    solves = 1
    # Measured: E0 error 5.1e-4, S_E error 1.05e-2, gap error 4.8e-2 (all
    # from the m=5 Fock cutoff). The solver's own criterion allows residuals
    # of 1e-10 * |E| ~ 5e-10.
    tolerances = Tolerances(e0_rel=1e-3, se_abs=2e-2, gap_rel=1e-1, residual=1e-8)

    def prepare(self, pkg, seed):
        spec = pkg.ChainSpec(self.n_sites, 1.0, self.bare_dim)

        def solve() -> Outcome:
            energies, states = pkg.ed_lowest(spec, self.k, seed=seed)
            ground = states[0]
            entropies = [pkg.von_neumann(pkg.site_rdm(ground, i))
                         for i in range(1, self.n_sites + 1)]
            vectors = np.column_stack([s.amplitudes for s in states])
            return Outcome(f"N={self.n_sites} m={self.bare_dim}", self.n_sites,
                           spec.hbar_tilde, float(energies[0]),
                           float(energies[1] - energies[0]),
                           float(np.mean(entropies)),
                           residuals=lambda: ref.ed_residuals(
                               vectors, energies, self.n_sites, self.bare_dim))

        return lambda: [_attempt("ed", solve)]


WORKLOADS = {w.name: w for w in (OptTwoTarget(), BareScan(), EdMatrixFree())}


class CliError(RuntimeError):
    """The CLI exited non-zero or reported a failed scan point."""


def run_cli(pkg, argv: list[str]) -> str:
    """Run ``oscdmrg.cli.main(argv)`` in-process and return its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pkg.cli.main(argv)
    if code != 0:
        raise CliError(f"oscdmrg {' '.join(argv)} exited {code}")
    return buf.getvalue()


def parse_scan_basis(text: str, n_list) -> "list[dict | Exception]":
    """The scan-basis rows for ``n_list``, in order; a row whose status
    reports an error becomes a CliError."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    by_n = {int(row["n"]): row for row in csv.DictReader(lines)}
    if sorted(by_n) != sorted(n_list):
        raise CliError(f"scan-basis printed rows for n={sorted(by_n)}, not {list(n_list)}")
    return [by_n[n] if by_n[n]["status"] in ("ok", "not-converged")
            else CliError(f"scan point n={n}: {by_n[n]['status']}") for n in n_list]


def scan_outcome(row: dict, n_sites: int) -> Outcome:
    """A scan-basis row as an Outcome; the CSV carries 9 significant digits."""
    e0 = float(row["E_dmrg"])
    return Outcome(f"n={row['n']}", n_sites, 1.0, e0, None, float(row["S_E"]),
                   converged=row["status"] == "ok", e0_rounding=5e-9 * abs(e0))
