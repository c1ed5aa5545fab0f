"""Command-line harness: runs the chain experiments and writes CSV.

Every report starts with a ``# config: ...`` comment line carrying the
fully resolved configuration, followed by a header row naming the columns.
Floating-point values are printed with 9 significant digits, and scan rows
are sorted by their scan key, so reruns with the same configuration are
byte-identical.

Exit codes: 0 success, 1 argument/usage error, 2 solver non-convergence
(single-run commands), 3 config-file parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, first_gap, ground_energy_closed, mode_spectrum, spectrum
from .dmrg import DmrgConfig, run_dmrg
from .ed import ed_lowest
from .errors import ConvergenceError, ResourceLimitError

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CONFIG = 3

COMMANDS = ("analytic", "ed", "dmrg", "scan-basis", "scan-size", "rdm-table", "spectrum")


class _UsageError(Exception):
    pass


class _ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise _UsageError(message)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as err:
        raise ValueError(f"not an integer list: {text!r}") from err


# key -> (converter, default); defaults may be overridden per command.
_OPTION_SPEC = {
    "N": (int, 50),
    "hbar": (float, 1.0),
    "m": (int, 14),
    "n": (int, 8),
    "n1": (int, 4),
    "ntar": (int, 1),
    "sweeps": (int, 6),
    "basis-mode": (str, None),
    "out": (str, None),
    "seed": (int, 0),
    "n-list": (_parse_int_list, [4, 6, 8, 10]),
    "N-list": (_parse_int_list, list(range(10, 101, 10))),
    "levels": (int, 10),
    "delimiter": (str, ","),
}

_COMMAND_DEFAULTS = {
    "analytic": {},
    "ed": {"m": 14, "levels": 2},
    "dmrg": {"basis-mode": "optimized"},
    "scan-basis": {"N": 50},
    "scan-size": {"n": 10, "ntar": 2, "basis-mode": "optimized"},
    # Table-style central-site spectra: the source experiment does not state
    # its chain size; N=10 puts the leading weight in the documented range.
    "rdm-table": {"N": 10, "n": 8, "basis-mode": "optimized"},
    "spectrum": {},
}


@dataclass
class RunConfig:
    """Fully resolved options for one command invocation."""

    command: str
    n_sites: int
    hbar_tilde: float
    bare_dim: int
    kept_states: int
    feed_size: int
    n_targets: int
    n_sweeps: int
    basis_mode: str | None
    seed: int
    n_list: list[int]
    size_list: list[int]
    levels: int
    output_path: str | None
    csv_delimiter: str

    def chain_spec(self, n_sites: int | None = None) -> ChainSpec:
        return ChainSpec(
            n_sites=self.n_sites if n_sites is None else n_sites,
            hbar_tilde=self.hbar_tilde,
            bare_dim=self.bare_dim,
        )

    def dmrg_config(self, kept: int | None = None, n_targets: int | None = None,
                    optimized: bool | None = None) -> DmrgConfig:
        if optimized is None:
            optimized = (self.basis_mode or "optimized") == "optimized"
        return DmrgConfig(
            kept_states=self.kept_states if kept is None else kept,
            feed_size=self.feed_size,
            n_targets=self.n_targets if n_targets is None else n_targets,
            n_sweeps=self.n_sweeps,
            optimized=optimized,
            seed=self.seed,
        )

    def echo(self) -> str:
        items = {
            "command": self.command,
            "N": self.n_sites,
            "hbar": self.hbar_tilde,
            "m": self.bare_dim,
            "n": self.kept_states,
            "n1": self.feed_size,
            "ntar": self.n_targets,
            "sweeps": self.n_sweeps,
            "basis-mode": self.basis_mode or "both",
            "seed": self.seed,
            "n-list": ",".join(str(v) for v in self.n_list),
            "N-list": ",".join(str(v) for v in self.size_list),
            "levels": self.levels,
            "delimiter": self.csv_delimiter,
        }
        return " ".join(f"{k}={v}" for k, v in items.items())


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise _ConfigError(f"cannot read config file {path}: {err}") from err
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTION_SPEC:
            raise _ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        out[key] = value
    return out


def _build_parser() -> _Parser:
    parser = _Parser(prog="oscdmrg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, add_help=True)
        p.add_argument("--config", type=str, default=None)
        for key, (conv, _default) in _OPTION_SPEC.items():
            choices = ("bare", "optimized") if key == "basis-mode" else None
            p.add_argument(f"--{key}", dest=key, type=conv, choices=choices, default=None)
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    command = args.command
    values: dict[str, object] = {}
    for key, (_conv, default) in _OPTION_SPEC.items():
        values[key] = _COMMAND_DEFAULTS.get(command, {}).get(key, default)
    if args.config:
        raw = _read_config_file(args.config)
        for key, text in raw.items():
            conv = _OPTION_SPEC[key][0]
            try:
                values[key] = conv(text)
            except ValueError as err:
                raise _ConfigError(f"config key '{key}': {err}") from err
    for key in _OPTION_SPEC:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return RunConfig(
        command=command,
        n_sites=values["N"],
        hbar_tilde=values["hbar"],
        bare_dim=values["m"],
        kept_states=values["n"],
        feed_size=values["n1"],
        n_targets=values["ntar"],
        n_sweeps=values["sweeps"],
        basis_mode=values["basis-mode"],
        seed=values["seed"],
        n_list=list(values["n-list"]),
        size_list=list(values["N-list"]),
        levels=values["levels"],
        output_path=values["out"],
        csv_delimiter=values["delimiter"],
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.9g}"
    return str(value)


def _write_csv(cfg: RunConfig, columns: list[str], rows: list[dict]) -> None:
    buf = io.StringIO()
    buf.write(f"# config: {cfg.echo()}\n")
    writer = csv.writer(buf, delimiter=cfg.csv_delimiter, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in columns])
    text = buf.getvalue()
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def _cmd_analytic(cfg: RunConfig) -> int:
    spec = cfg.chain_spec()
    rows = [
        {"quantity": "E_ground", "value": ground_energy_closed(spec)},
        {"quantity": "gap_12", "value": first_gap(spec)},
    ]
    modes = mode_spectrum(spec)
    for j, w in zip(modes.mode_numbers, modes.frequencies):
        rows.append({"quantity": f"omega_{j}", "value": float(w)})
    _write_csv(cfg, ["quantity", "value"], rows)
    return EXIT_OK


def _cmd_ed(cfg: RunConfig) -> int:
    spec = cfg.chain_spec()
    energies, _states = ed_lowest(spec, max(cfg.levels, 1), seed=cfg.seed)
    rows = [
        {"level": i, "energy": float(e), "excitation": float(e - energies[0])}
        for i, e in enumerate(energies)
    ]
    _write_csv(cfg, ["level", "energy", "excitation"], rows)
    return EXIT_OK


def _cmd_dmrg(cfg: RunConfig) -> int:
    spec = cfg.chain_spec()
    config = cfg.dmrg_config()
    result = run_dmrg(spec, config)
    rows = [
        {"quantity": f"energy_{i}", "value": float(e)}
        for i, e in enumerate(result.energies)
    ]
    if result.gap is not None:
        rows.append({"quantity": "gap_12", "value": result.gap})
    rows.append({"quantity": "S_E", "value": result.entanglement_SE})
    rows.append({"quantity": "converged", "value": result.converged})
    rows.append({"quantity": "sweeps_run", "value": len(result.sweep_energy_trace)})
    _write_csv(cfg, ["quantity", "value"], rows)
    if result.converged:
        return EXIT_OK
    trace = result.sweep_energy_trace
    missed = (f"last sweep-to-sweep |dE| {abs(trace[-1] - trace[-2]):.3g}"
              if trace.size >= 2 else "no sweep-to-sweep |dE| after one sweep")
    print(f"oscdmrg: not converged after {trace.size} sweeps: {missed}, "
          f"energy_tol {config.energy_tol:.3g}", file=sys.stderr)
    return EXIT_NO_CONVERGENCE


def _cmd_scan_basis(cfg: RunConfig) -> int:
    spec = cfg.chain_spec()
    exact = ground_energy_closed(spec)
    modes = ("bare", "optimized") if cfg.basis_mode is None else (cfg.basis_mode,)
    rows = []
    for n in sorted(cfg.n_list):
        for mode in sorted(modes):
            row = {"n": n, "basis_mode": mode, "E_exact": exact, "status": "ok"}
            try:
                result = run_dmrg(spec, cfg.dmrg_config(kept=n, optimized=mode == "optimized"))
                row["E_dmrg"] = float(result.energies[0])
                row["rel_err"] = _rel_err(result.energies[0], exact)
                row["S_E"] = result.entanglement_SE
                if not result.converged:
                    row["status"] = "not-converged"
            except (ConvergenceError, ValueError, ResourceLimitError) as err:
                row["status"] = f"error: {err}"
            rows.append(row)
    _write_csv(cfg, ["n", "basis_mode", "E_dmrg", "E_exact", "rel_err", "S_E", "status"], rows)
    return EXIT_OK


def _cmd_scan_size(cfg: RunConfig) -> int:
    if cfg.n_targets < 2:
        raise _UsageError("scan-size needs --ntar >= 2 to resolve the gap")
    rows = []
    for n_sites in sorted(cfg.size_list):
        spec = cfg.chain_spec(n_sites=n_sites)
        exact_e0 = ground_energy_closed(spec)
        exact_gap = first_gap(spec)
        row = {"N": n_sites, "status": "ok"}
        try:
            result = run_dmrg(spec, cfg.dmrg_config())
            row["rel_err_E0"] = _rel_err(result.energies[0], exact_e0)
            row["rel_err_gap"] = _rel_err(result.gap, exact_gap)
            if not result.converged:
                row["status"] = "not-converged"
        except (ConvergenceError, ValueError, ResourceLimitError) as err:
            row["status"] = f"error: {err}"
        rows.append(row)
    _write_csv(cfg, ["N", "rel_err_E0", "rel_err_gap", "status"], rows)
    return EXIT_OK


def _cmd_rdm_table(cfg: RunConfig, n_ranks: int = 20) -> int:
    # The tabulated spectrum is the target-averaged density matrix of the
    # enlarged central block, i.e. the truncation density matrix; its rank
    # is capped by n times the number of targeted states.
    spec = cfg.chain_spec()
    columns = ["rank"] + [f"lambda_ntar{t}" for t in range(1, 6)]
    table = {}
    for t in range(1, 6):
        result = run_dmrg(spec, cfg.dmrg_config(n_targets=t))
        lams = np.zeros(n_ranks)
        found = result.central_block_lambdas[:n_ranks]
        found = np.where(np.abs(found) < 1e-14, 0.0, found)  # machine floor
        lams[: found.size] = found
        table[t] = lams
    rows = []
    for r in range(n_ranks):
        row = {"rank": r + 1}
        for t in range(1, 6):
            row[f"lambda_ntar{t}"] = float(table[t][r])
        rows.append(row)
    _write_csv(cfg, columns, rows)
    return EXIT_OK


def _cmd_spectrum(cfg: RunConfig) -> int:
    rows = []
    for n_sites in sorted(cfg.size_list):
        spec = cfg.chain_spec(n_sites=n_sites)
        levels = spectrum(spec, cfg.levels)
        for i, e in enumerate(levels, start=1):
            rows.append({"N": n_sites, "level_index": i, "excitation_energy": float(e)})
    _write_csv(cfg, ["N", "level_index", "excitation_energy"], rows)
    return EXIT_OK


_DISPATCH = {
    "analytic": _cmd_analytic,
    "ed": _cmd_ed,
    "dmrg": _cmd_dmrg,
    "scan-basis": _cmd_scan_basis,
    "scan-size": _cmd_scan_size,
    "rdm-table": _cmd_rdm_table,
    "spectrum": _cmd_spectrum,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve(args)
        return _DISPATCH[cfg.command](cfg)
    except _UsageError as err:
        print(f"oscdmrg: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except _ConfigError as err:
        print(f"oscdmrg: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as err:
        print(f"oscdmrg: solver did not converge: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, ResourceLimitError) as err:
        print(f"oscdmrg: error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
