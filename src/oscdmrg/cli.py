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
import os
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

# Leading eigenvalues that rdm-table prints per number of targets.
_RDM_RANKS = 20


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


# flag name -> (converter, default): each option's one declaration. A
# command may override defaults in _COMMANDS.
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


@dataclass
class RunConfig:
    """One command invocation: its name and every option of ``_OPTION_SPEC``,
    resolved and keyed by flag name (``cfg["n-list"]``)."""

    command: str
    options: dict

    def __getitem__(self, key: str):
        return self.options[key]

    def chain_spec(self, n_sites: int | None = None) -> ChainSpec:
        return ChainSpec(self["N"] if n_sites is None else n_sites, self["hbar"], self["m"])

    def dmrg_config(self, kept: int | None = None, n_targets: int | None = None,
                    optimized: bool | None = None) -> DmrgConfig:
        if optimized is None:
            optimized = (self["basis-mode"] or "optimized") == "optimized"
        return DmrgConfig(
            kept_states=self["n"] if kept is None else kept,
            feed_size=self["n1"],
            n_targets=self["ntar"] if n_targets is None else n_targets,
            n_sweeps=self["sweeps"],
            optimized=optimized,
            seed=self["seed"],
        )

    def echo(self) -> str:
        items = [f"command={self.command}"]
        for key, value in self.options.items():
            if key == "out":
                continue
            if key == "basis-mode":
                value = value or "both"
            elif isinstance(value, list):
                value = ",".join(str(v) for v in value)
            items.append(f"{key}={value}")
        return " ".join(items)


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
    for name in _COMMANDS:
        p = sub.add_parser(name, add_help=True)
        p.add_argument("--config", type=str, default=None)
        for key, (conv, _default) in _OPTION_SPEC.items():
            p.add_argument(f"--{key}", dest=key, type=conv, default=None)
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    command = args.command
    values = {key: _COMMANDS[command][1].get(key, default)
              for key, (_conv, default) in _OPTION_SPEC.items()}
    if args.config:
        for key, text in _read_config_file(args.config).items():
            try:
                values[key] = _OPTION_SPEC[key][0](text)
            except ValueError as err:
                raise _ConfigError(f"config key '{key}': {err}") from err
    for key in _OPTION_SPEC:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    # Checked here, before any solve, whether a value came from a flag or a file.
    if values["basis-mode"] not in (None, "bare", "optimized"):
        raise _UsageError(f"basis-mode must be bare or optimized, got {values['basis-mode']!r}")
    if len(values["delimiter"]) != 1 or values["delimiter"] in "\r\n":
        raise _UsageError("--delimiter must be one character other than a line break, "
                          f"got {values['delimiter']!r}")
    out_dir = os.path.dirname(values["out"] or "") or "."
    if not os.path.isdir(out_dir):
        raise _UsageError(f"--out directory {out_dir!r} does not exist")
    if values["out"] and os.path.isdir(values["out"]):
        raise _UsageError(f"--out {values['out']!r} is a directory")
    # Copies, so that the shared list defaults are never aliased.
    cfg = RunConfig(command, {key: list(value) if isinstance(value, list) else value
                              for key, value in values.items()})
    cfg.dmrg_config()  # Its ValueError refuses a bad n, n1, ntar, sweeps or seed.
    return cfg


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
    writer = csv.writer(buf, delimiter=cfg["delimiter"], lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in columns])
    text = buf.getvalue()
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
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
    for j, w in enumerate(mode_spectrum(spec), start=1):
        rows.append({"quantity": f"omega_{j}", "value": float(w)})
    _write_csv(cfg, ["quantity", "value"], rows)
    return EXIT_OK


def _cmd_ed(cfg: RunConfig) -> int:
    spec = cfg.chain_spec()
    energies, _states = ed_lowest(spec, cfg["levels"], seed=cfg["seed"])
    rows = [
        {"level": i, "energy": float(e), "excitation": float(e - energies[0])}
        for i, e in enumerate(energies)
    ]
    _write_csv(cfg, ["level", "energy", "excitation"], rows)
    return EXIT_OK


def _cmd_dmrg(cfg: RunConfig) -> int:
    result = run_dmrg(cfg.chain_spec(), cfg.dmrg_config())
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
    print(f"oscdmrg: {result.stop_reason}", file=sys.stderr)
    return EXIT_NO_CONVERGENCE


def _scan_row(row: dict, cfg: RunConfig, spec: ChainSpec, fill, **overrides) -> dict:
    """One scan point: run DMRG on ``spec`` and add ``fill(result)`` to the
    row. Its status is ok, not-converged or the error that stopped the
    solve, so one bad point does not end the scan."""
    try:
        result = run_dmrg(spec, cfg.dmrg_config(**overrides))
        row.update(fill(result))
        row["status"] = "ok" if result.converged else "not-converged"
    except (ConvergenceError, ValueError, ResourceLimitError) as err:
        row["status"] = f"error: {err}"
    return row


def _cmd_scan_basis(cfg: RunConfig) -> int:
    spec = cfg.chain_spec()
    exact = ground_energy_closed(spec)
    modes = ("bare", "optimized") if cfg["basis-mode"] is None else (cfg["basis-mode"],)

    def fill(result):
        e0 = result.energies[0]
        return {"E_dmrg": float(e0), "rel_err": _rel_err(e0, exact),
                "S_E": result.entanglement_SE}

    rows = [_scan_row({"n": n, "basis_mode": mode, "E_exact": exact}, cfg, spec, fill,
                      kept=n, optimized=mode == "optimized")
            for n in sorted(cfg["n-list"]) for mode in sorted(modes)]
    _write_csv(cfg, ["n", "basis_mode", "E_dmrg", "E_exact", "rel_err", "S_E", "status"], rows)
    return EXIT_OK


def _cmd_scan_size(cfg: RunConfig) -> int:
    if cfg["ntar"] < 2:
        raise _UsageError("scan-size needs --ntar >= 2 to resolve the gap")
    rows = []
    for n_sites in sorted(cfg["N-list"]):
        spec = cfg.chain_spec(n_sites)
        e0, gap = ground_energy_closed(spec), first_gap(spec)
        rows.append(_scan_row({"N": n_sites}, cfg, spec, lambda r: {
            "rel_err_E0": _rel_err(r.energies[0], e0), "rel_err_gap": _rel_err(r.gap, gap)}))
    _write_csv(cfg, ["N", "rel_err_E0", "rel_err_gap", "status"], rows)
    return EXIT_OK


def _cmd_rdm_table(cfg: RunConfig) -> int:
    # The tabulated spectrum is the target-averaged density matrix of the
    # enlarged central block, i.e. the truncation density matrix; its rank
    # is capped by n times the number of targeted states.
    spec = cfg.chain_spec()
    columns = ["rank"] + [f"lambda_ntar{t}" for t in range(1, 6)]
    table = np.zeros((_RDM_RANKS, 5))
    for t in range(1, 6):
        found = run_dmrg(spec, cfg.dmrg_config(n_targets=t)).central_block_lambdas[:_RDM_RANKS]
        # Zero out the machine floor.
        table[: found.size, t - 1] = np.where(np.abs(found) < 1e-14, 0.0, found)
    rows = [dict(zip(columns, [r + 1, *map(float, lams)])) for r, lams in enumerate(table)]
    _write_csv(cfg, columns, rows)
    return EXIT_OK


def _cmd_spectrum(cfg: RunConfig) -> int:
    rows = []
    for n_sites in sorted(cfg["N-list"]):
        levels = spectrum(cfg.chain_spec(n_sites), cfg["levels"])
        for i, e in enumerate(levels, start=1):
            rows.append({"N": n_sites, "level_index": i, "excitation_energy": float(e)})
    _write_csv(cfg, ["N", "level_index", "excitation_energy"], rows)
    return EXIT_OK


# command -> (handler, the option defaults it overrides)
_COMMANDS = {
    "analytic": (_cmd_analytic, {}),
    "ed": (_cmd_ed, {"m": 14, "levels": 2}),
    "dmrg": (_cmd_dmrg, {"basis-mode": "optimized"}),
    "scan-basis": (_cmd_scan_basis, {"N": 50}),
    "scan-size": (_cmd_scan_size, {"n": 10, "ntar": 2, "basis-mode": "optimized"}),
    # Table-style spectra of the enlarged central block: the source experiment
    # does not state its chain size; N=10 puts the leading weight in the
    # documented range.
    "rdm-table": (_cmd_rdm_table, {"N": 10, "n": 8, "basis-mode": "optimized"}),
    "spectrum": (_cmd_spectrum, {}),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve(args)
        return _COMMANDS[cfg.command][0](cfg)
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
