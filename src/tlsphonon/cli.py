"""Command-line interface.

Subcommands:
  model   evaluate the linewidth breakdown over a (T, J, f) grid -> CSV
  synth   generate a synthetic gain-spectrum dataset from a config
  fit     run the fitting pipeline on a dataset directory
  report  render the fitted-vs-reference parameter table from a report

All state comes from the config file and the seed; nothing reads the clock
or the environment, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config, parse_config
from .constants import TWO_PI
from .dataset import (format_rows, load_dataset, read_manifest, require_key, write_json,
                      write_manifest, write_spectrum, write_trace)
from .dissipation import decay_length, q_factor, saturation_floor, total_linewidth
from .pipeline import TABLE_COLUMNS, render_report_table, run_fit_pipeline
from .sbs import WEAK_SIGNAL_WARN_LEVEL, g_b_at_linewidth, weak_signal_margin
from .synth import synth_sweep
from .tls_core import DriveState, PhononMode


class CliError(Exception):
    pass


def _csv_head(header, config: RunConfig) -> bytes:
    # the stamp keeps every emitted number traceable to its run
    stamp = f"# tlsphonon {__version__} config_sha256 {config.sha256}\n"
    return (stamp + ",".join(header) + "\n").encode()


# ---------------------------------------------------------------------------
# grid parsing for `model`
# ---------------------------------------------------------------------------

GRID_DIMS = ("T", "J", "f")
MAX_GRID_ROWS = 4_000_000  # at ~190 bytes a row, model stays under ~1 GB


def parse_grid(spec: str) -> dict:
    """Parse 'T=0.3:4.2:25,J=1e-3:1e3:25:log,f=9.188e9' into value arrays.

    Each dimension is either a single value or lo:hi:n with an optional
    :log for logarithmic spacing. T [K], J [W/m^2] and f [Hz] are each given
    once; a grid of more than MAX_GRID_ROWS points is rejected before any
    axis is allocated.
    """
    axes = {}  # name -> (lo, hi, n, log)
    if not spec:
        raise CliError("empty grid spec")
    for part in spec.split(","):
        if "=" not in part:
            raise CliError(f"grid dimension {part!r} is not name=values")
        name, values = part.split("=", 1)
        name = name.strip()
        if name not in GRID_DIMS or name in axes:
            raise CliError(f"grid dimension {name!r}: give each of T, J and f once")
        pieces = values.split(":")
        if len(pieces) == 1:
            axes[name] = (float(pieces[0]), None, 1, False)
            continue
        if len(pieces) not in (3, 4):
            raise CliError(f"grid dimension {name!r}: expected value or lo:hi:n[:log]")
        lo, hi, n = float(pieces[0]), float(pieces[1]), int(pieces[2])
        if n < 1:
            raise CliError(f"grid dimension {name}: need at least one point")
        log = len(pieces) == 4
        if log and pieces[3] != "log":
            raise CliError(f"grid dimension {name}: unknown modifier {pieces[3]!r}")
        if log and n > 1 and (lo <= 0 or hi <= 0):
            raise CliError(f"grid dimension {name}: log spacing needs positive bounds")
        axes[name] = (lo, hi, n, log)

    missing = set(GRID_DIMS) - set(axes)
    if missing:
        raise CliError(f"grid is missing dimensions: {sorted(missing)}")
    rows = math.prod(n for _, _, n, _ in axes.values())
    if rows > MAX_GRID_ROWS:
        raise CliError(f"grid has {rows} points, more than {MAX_GRID_ROWS}")
    dims = {name: (np.geomspace if log else np.linspace)(lo, hi, n) if n > 1
            else np.array([lo]) for name, (lo, hi, n, log) in axes.items()}
    if np.any(dims["T"] <= 0):
        raise CliError("grid temperatures must be positive")
    if np.any(dims["f"] <= 0):
        raise CliError("grid frequencies must be positive")
    if np.any(dims["J"] < 0):
        raise CliError("grid intensities must be nonnegative")
    return dims


MODEL_COLUMNS = (
    "temperature_k", "intensity_w_m2", "frequency_hz", "j_c_w_m2",
    "gamma_res_hz", "gamma_rel_hz", "gamma_bg_hz", "gamma_total_hz",
    "freq_shift_hz", "q_factor", "decay_length_m",
)
MODEL_BLOCK_ROWS = 4096


def cmd_model(config: RunConfig, grid_spec: str, out_dir: Path) -> Path:
    dims = parse_grid(grid_spec)
    t_ref = config.fit_section().get("t0_k")
    t, j = np.meshgrid(dims["T"], dims["J"], indexing="ij")
    j_c = config.forward_model().j_c(t)

    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "model.csv"
    with out.open("wb") as fh:
        fh.write(_csv_head(MODEL_COLUMNS, config))
        # frequency-major, then T, then J: the order of the grid spec
        for f_hz in dims["f"]:
            mode = PhononMode.in_material(config.material, TWO_PI * float(f_hz), "L")
            drive = DriveState(temperature=t, intensity=j, drive_omega=mode.omega)
            bd = total_linewidth(mode, drive, config.material, config.ensemble,
                                 j_c=j_c, t_ref=t_ref)
            columns = (
                t, j, f_hz, j_c,
                bd.gamma_res / TWO_PI, bd.gamma_rel / TWO_PI,
                bd.gamma_bg / TWO_PI, bd.total / TWO_PI,
                bd.freq_shift_res / TWO_PI,
                q_factor(mode.omega, bd.total),
                decay_length(bd.total, config.material, "L"),
            )
            table = np.stack([np.broadcast_to(c, t.shape).ravel() for c in columns], axis=1)
            # bounded blocks: a large grid never sits in memory as one text
            for start in range(0, len(table), MODEL_BLOCK_ROWS):
                fh.write(format_rows(table[start:start + MODEL_BLOCK_ROWS]))
    return out


def cmd_synth(config: RunConfig, out_dir: Path) -> Path:
    plan = config.sweep_plan()

    # conservative weak-signal check: the line is narrowest (gain highest)
    # at the saturation floor
    model = plan.model
    g_b_max = g_b_at_linewidth(model.material,
                               saturation_floor(plan.t_start, model.material, model.ensemble))
    for idx, drive in enumerate(plan.drives):
        margin = weak_signal_margin(drive, g_b_max)
        if margin > WEAK_SIGNAL_WARN_LEVEL:
            print(f"warning: power setting {idx} has single-pass gain "
                  f"g_B*P_p*L = {margin:.3g} > {WEAK_SIGNAL_WARN_LEVEL}; "
                  "the weak-signal model is marginal there", file=sys.stderr)

    traces = synth_sweep(plan)

    out_dir.mkdir(parents=True, exist_ok=True)
    entries = [write_trace(out_dir, tr) for tr in traces]
    write_manifest(out_dir, entries, config.raw, config.sha256, __version__)
    return out_dir / "manifest.json"


def cmd_fit(config: RunConfig, dataset_dir: Path, out_dir: Path) -> int:
    loaded = load_dataset(dataset_dir)
    traces = [tr for (_, tr, err) in loaded if err is None]
    load_errors = [err for (_, _, err) in loaded if err is not None]

    result = run_fit_pipeline(traces, config, load_errors=load_errors)
    report = result.report

    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "report.json", {**report, "config": config.raw})

    binned_dir = out_dir / "binned"
    binned_dir.mkdir(exist_ok=True)
    for unit in result.binned:
        write_spectrum(binned_dir / f"binned_s{unit.setting:02d}_T{unit.center:.3f}.csv",
                       unit.trace.detuning_grid / TWO_PI, unit.trace.gain)

    for table, columns in TABLE_COLUMNS.items():
        rows = [[row[c] for c in columns] for row in report[table]]
        (out_dir / f"{table}.csv").write_bytes(
            _csv_head(columns, config) + format_rows(rows))

    (out_dir / "report.txt").write_text(
        render_report_table(report, config) + "\n", encoding="utf-8"
    )

    for err in report["errors"]:
        print(f"warning: {err}", file=sys.stderr)
    if result.n_fit_units == 0:  # no trace loaded, so no bin to fit
        print(f"error: no fit units: {len(load_errors)} of {len(loaded)} traces failed to load",
              file=sys.stderr)
        return 1
    if result.failure_fraction > 0.5:
        print(f"error: {result.n_failures}/{result.n_fit_units} fit units failed",
              file=sys.stderr)
        return 1
    return 0


def cmd_report(out_dir: Path) -> str:
    path = Path(out_dir) / "report.json"
    if not path.exists():
        raise CliError(f"no report.json in {out_dir}; run `fit` first")
    doc = json.loads(path.read_text(encoding="utf-8"))
    config = parse_config(require_key(doc, "config", path))
    return render_report_table(doc, config, path)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlsphonon",
        description="Tunneling-state phonon dissipation: model, synthesize, fit.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="evaluate the linewidth model on a grid")
    p_model.add_argument("--config", required=True, type=Path)
    p_model.add_argument("--out", required=True, type=Path)
    p_model.add_argument("--grid", required=True,
                         help="e.g. T=0.3:4.2:25,J=1e-3:1e3:25:log,f=9.188e9")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--config", required=True, type=Path)
    p_synth.add_argument("--out", required=True, type=Path)
    p_synth.add_argument("--seed", type=int, default=None,
                         help="override the config seed")

    p_fit = sub.add_parser("fit", help="fit a dataset directory")
    p_fit.add_argument("dataset", type=Path)
    p_fit.add_argument("--config", type=Path, default=None,
                       help="defaults to the config embedded in the manifest")
    p_fit.add_argument("--out", required=True, type=Path)

    p_report = sub.add_parser("report", help="print the parameter comparison table")
    p_report.add_argument("--out", required=True, type=Path,
                          help="directory holding report.json")
    return parser


def _config_with_seed(path: Path, seed) -> RunConfig:
    config = load_config(path)
    if seed is not None:
        doc = dict(config.raw)
        doc["seed"] = int(seed)
        config = parse_config(doc)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "model":
            out = cmd_model(load_config(args.config), args.grid, args.out)
            print(out)
            return 0
        if args.command == "synth":
            out = cmd_synth(_config_with_seed(args.config, args.seed), args.out)
            print(out)
            return 0
        if args.command == "fit":
            if args.config is not None:
                config = load_config(args.config)
            else:
                config = parse_config(require_key(read_manifest(args.dataset), "config",
                                                  args.dataset / "manifest.json"))
            return cmd_fit(config, args.dataset, args.out)
        if args.command == "report":
            print(cmd_report(args.out))
            return 0
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
