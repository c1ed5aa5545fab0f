"""Run one benchmark workload against the program in ``src/`` of this checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run repeats whole rounds of the workload's solves until ``--seconds``
have passed, checks every solve against the references in
``references.py``, and prints one JSON object as its last line:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. The full result, and with ``--trace 1`` the recorded spans,
are also written under ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters started per run to measure set-up; setup_s is their median.
SETUP_PROBES = 7

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "e0_rel_err": "rel",
    "se_abs_err": "nats",
}

LAYER_UNITS = {
    "lanczos.solves": "count",
    "lanczos.busy_s": "s",
    "lanczos.self_s": "s",
    "lanczos.matvec_cols": "count",
    "lanczos.matvec_cols_per_solve": "cols/solve",
    "lanczos.dense_eig_calls": "count",
    "lanczos.dense_eig_s": "s",
    "dmrg.superblock_solves": "count",
    "dmrg.solve_s": "s",
    "dmrg.matvec_s": "s",
    "dmrg.matvec_cols": "count",
    "dmrg.matvec_gflop_per_s": "GFLOP/s",
    "dmrg.refine_solves_per_visit": "solves/visit",
    "dmrg.sweeps": "count",
    "dmrg.enlarge_calls": "count",
    "dmrg.enlarge_s": "s",
    "dmrg.truncate_calls": "count",
    "dmrg.truncate_s": "s",
    "dmrg.self_s": "s",
    "ed.build_s": "s",
    "ed.matvec_s": "s",
    "ed.matvec_cols": "count",
    "ed.matvec_gflop_per_s": "GFLOP/s",
    "entropy.busy_s": "s",
    "fock.busy_s": "s",
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
}


class SetupError(RuntimeError):
    """The program cannot be loaded from this checkout."""


def load_program():
    """Import ``oscdmrg`` from ``src/`` of this checkout, never from elsewhere."""
    init = SRC / "oscdmrg" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no program source at {init}")
    sys.path.insert(0, str(SRC))
    import oscdmrg
    import oscdmrg.cli  # noqa: F401  (the bare-scan workload drives cli.main)
    if Path(oscdmrg.__file__).resolve() != init.resolve():
        raise SetupError(f"imported oscdmrg from {oscdmrg.__file__}, not {init}")
    return oscdmrg


def setup_probe(workload: str, seed: int) -> None:
    """Load the program, build the workload's inputs, report ready, exit."""
    workloads.WORKLOADS[workload].prepare(load_program(), seed)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its inputs being built."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SetupError(f"set-up probe exited {proc.returncode}")
        times.append(elapsed)
    return times


def run_round(round_fn, tracer=None):
    """One timed round: (wall s, cpu s, per-solve results)."""
    if tracer is None:
        t0, c0 = time.perf_counter(), time.process_time()
        results = round_fn()
    else:
        with tracer.installed():
            t0, c0 = time.perf_counter(), time.process_time()
            results = round_fn()
    return time.perf_counter() - t0, time.process_time() - c0, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    wl = workloads.WORKLOADS[args.workload]

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    pkg = load_program()
    round_fn = wl.prepare(pkg, args.seed)

    walls, cpus, traced_walls, layer_rounds, tracers = [], [], [], [], []
    outcomes, failures, misses = [], 0, []
    start = time.perf_counter()
    while True:
        # With tracing on, rounds come in pairs, one traced and one not, so
        # the two can be compared for the tracing overhead; the order
        # alternates so that neither side always carries the first round.
        passes = [None]
        if args.trace:
            passes = [None, tracing.Tracer()][::1 if len(tracers) % 2 == 0 else -1]
        for tracer in passes:
            wall, cpu, results = run_round(round_fn, tracer)
            if tracer is None:
                walls.append(wall)
                cpus.append(cpu)
            else:
                traced_walls.append(wall)
                tracers.append(tracer)
                layer_rounds.append(tracing.layer_metrics(tracer.spans))
            for res in results:
                if isinstance(res, Exception):
                    failures += 1
                    traceback.print_exception(res, file=sys.stderr)
                    continue
                outcomes.append(res)
                found = workloads.check(res, wl.tolerances)
                if found:
                    failures += 1
                    misses.extend(found)
        if time.perf_counter() - start >= args.seconds:
            break

    for miss in misses:
        print(f"bench: check failed: {miss}", file=sys.stderr)
    if not outcomes:
        print("bench: every solve failed; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: statistics.median(r[name] for r in layer_rounds)
                   for name in layer_rounds[0]}
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        units = LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "e0_rel_err": max(workloads.e0_rel_err(o) for o in outcomes),
            "se_abs_err": max(workloads.se_abs_err(o) for o in outcomes),
        }
        units = E2E_UNITS
    result = {
        "correct": not misses,
        "attempted": len(walls + traced_walls) * wl.solves,
        "failed": failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = dict(result, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, round_wall_s=walls, round_cpu_s=cpus,
                   traced_round_wall_s=traced_walls, setup_probe_s=setup_times,
                   layer_rounds=layer_rounds,
                   solves=[{"label": o.label, "n_sites": o.n_sites, "e0": o.e0,
                            "gap": o.gap, "S_E": o.entanglement,
                            "converged": o.converged} for o in outcomes],
                   cpu_count=os.cpu_count(),
                   blas_threads_env={k: os.environ.get(k) for k in
                                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if tracers:
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps([t.dump() for t in tracers], separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (SetupError, ImportError, tracing.MissingTarget) as err:
        print(f"bench: {err}", file=sys.stderr)
        sys.exit(2)
