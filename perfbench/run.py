"""Closed-loop benchmark of the tlsphonon CLI, end to end and per layer.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from ``src/``. Each
workload is a closed loop with one client: the benchmark starts one fresh
``python -m tlsphonon.cli`` process at a time (a user pays the import on
every call), waits for it, checks its output, and only then starts the
next. Passes over the workload's commands repeat until ``--seconds`` is
used up (at least ``MIN_PASSES``); every time is reported as the median
over passes, with its sample count.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes run through ``traced_cli.py``, which records a
span around every call into each layer's public functions, and prints the
per-layer metrics (self time = span duration minus its child spans) plus
the tracing overhead (traced loop wall minus the untraced median).

Every pass is checked: exit codes, closed-loop recovery of the configured
parameters (campaigns), a seeded sample of ``model.csv`` rows recomputed
here (grid), byte-identical output on every pass of one seed, and exact
counts that repeat. A failed check counts against the command whose output
failed it. Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``BENCHMARK.json`` at the repository root is ``benchmark_spec()`` written
out; ``python3 -m pytest perfbench`` checks that they agree and runs the
whole loop on a short ladder.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACED_CLI = HERE / "traced_cli.py"
MIN_PASSES = 3
MODEL_SAMPLE_ROWS = 64
MB = 1e6

# the README quick-start config; the seed comes from --seed
README_CONFIG = {
    "material": "ge-doped-silica-44wt",
    "ensemble": "ge-doped-silica-44wt",
    "jc_source": {"type": "power-law"},
    "seed": 0,
    "synth": {
        "t_start_k": 1.1, "t_end_k": 4.2, "traces_per_100mk": 10,
        "power_settings_w": [[0.035, 0.021], [0.035, 0.0055], [0.035, 0.0015],
                             [0.035, 0.0004], [0.035, 0.0001], [0.035, 2.8e-5]],
        "noise_sigma_w": 2e-10,
    },
    "fit": {"shared_p_gamma2": True},
}

# closed-loop recovery bounds (acceptance criterion 07)
RECOVERY_REL_TOL = 0.02      # P*gamma^2, per-temperature J_c and Gamma_0
POWER_LAW_A_REL_TOL = 0.10
POWER_LAW_B_ABS_TOL = 0.2
MODEL_REL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    """One closed loop: synth -> fit -> report, or a single `model` grid."""

    name: str
    why: str
    synth: dict = field(default_factory=dict)  # overrides of the README synth section
    fit: dict = field(default_factory=dict)    # overrides of the README fit section
    grid: str = ""                             # set: the loop is one `model` call

    def config(self, seed: int) -> dict:
        doc = copy.deepcopy(README_CONFIG)
        doc["seed"] = int(seed)
        doc["synth"].update(self.synth)
        doc["fit"].update(self.fit)
        return doc

    def rungs(self) -> int:
        """Ladder rungs, one per 100 mK bin, counted as the synthesizer counts them."""
        s = self.config(0)["synth"]
        k = 0
        while s["t_start_k"] + (k + 0.5) * 0.1 < s["t_end_k"]:
            k += 1
        return k

    def size(self) -> dict:
        if self.grid:
            return {"grid_points": math.prod(len(v) for v in grid_values(self.grid).values())}
        s = self.config(0)["synth"]
        traces = self.rungs() * len(s["power_settings_w"]) * s["traces_per_100mk"]
        points = s.get("detuning_points", 401)
        return {"traces": traces, "points": points, "samples": traces * points}


WORKLOADS = {w.name: w for w in (
    Workload(
        "campaign",
        "headline README loop, 1860 traces x 401 points in 3721 files: per-file text "
        "I/O and the shared saturation fit dominate",
    ),
    Workload(
        "long-traces",
        "186 traces x 4001 points: campaign's sample count in 10x fewer files, so "
        "per-file and per-value savings separate; the only drift, unshared and weighted fits",
        synth={"traces_per_100mk": 1, "detuning_points": 4001, "center_drift": True},
        fit={"shared_p_gamma2": False, "weighted": True},
    ),
    Workload(
        "model-grid",
        "model on a 256 x 256 = 65536-point (T, J) grid: forward model and CSV only, so "
        "dataset, synth and fitting changes should not move it",
        grid="T=1.1:4.2:256,J=1e-2:1e2:256:log,f=9.188e9",
    ),
)}

# (name, unit, better, bound): printed with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("loop_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("written_mb", "MB", "lower", 0.05),
    ("results_mb", "MB", "lower", 0.05),
)

# (name, unit, better): printed with --trace 1; a layer a workload does not
# run reads 0. What each should move, written down before measuring:
#   synth.run_acquisition_*, fixed_point_iterations  synth_s on campaign (small share)
#   dataset.write_*, files_written, bytes_written     synth_s, dataset_mb; most on campaign
#   dataset.load_dataset_s, load_errors               fit_s on both campaigns
#   synth.bin_traces_s, fitting.fit_lorentzian_*      fit_s; most on long-traces
#   fitting.saturation_*                              fit_s; most on campaign
#   pipeline.*                                        fit_s and failed_frac
#   cli.cmd_fit.self_s (results writing)              fit_s, results_mb; most on long-traces
#   config.load_config_s, synth.plan_acquisitions_s   setup_s and synth_s
#   dissipation.*, cli.cmd_model.self_s               model_s on model-grid only
PER_LAYER = (
    ("cmd.synth_s", "s", "lower"),
    ("cmd.fit_s", "s", "lower"),
    ("cmd.report_s", "s", "lower"),
    ("cmd.model_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("config.load_config_s", "s", "lower"),
    ("synth.plan_acquisitions_s", "s", "lower"),
    ("synth.run_acquisition_s", "s", "lower"),
    ("synth.run_acquisition_calls", "count", "lower"),
    ("synth.fixed_point_iterations", "count", "lower"),
    ("dataset.write_trace_s", "s", "lower"),
    ("dataset.write_manifest_s", "s", "lower"),
    ("dataset.files_written", "count", "lower"),
    ("dataset.bytes_written", "count", "lower"),
    ("dataset.load_dataset_s", "s", "lower"),
    ("dataset.load_errors", "count", "lower"),
    ("synth.bin_traces_s", "s", "lower"),
    ("fitting.fit_lorentzian_s", "s", "lower"),
    ("fitting.fit_lorentzian_calls", "count", "lower"),
    ("fitting.saturation_s", "s", "lower"),
    ("fitting.saturation_calls", "count", "lower"),
    ("pipeline.run_fit_pipeline_s", "s", "lower"),
    ("pipeline.run_fit_pipeline.self_s", "s", "lower"),
    ("pipeline.fit_units", "count", "higher"),
    ("pipeline.fit_units_failed", "count", "lower"),
    ("cli.cmd_synth.self_s", "s", "lower"),
    ("cli.cmd_fit.self_s", "s", "lower"),
    ("cli.cmd_report_s", "s", "lower"),
    ("cli.cmd_model.self_s", "s", "lower"),
    ("dissipation.total_linewidth_s", "s", "lower"),
    ("dissipation.total_linewidth_calls", "count", "lower"),
    ("dissipation.critical_intensity_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# per-layer counts that must repeat exactly on every traced pass of a run
EXACT_COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")

# per-layer metrics that must read above 0 on every traced pass of a campaign
# or of the grid: a layer the tracer lost (renamed, or loaded where it was not
# found) fails the run instead of reading 0
LOOP_LAYERS = (
    "config.load_config_s", "synth.plan_acquisitions_s", "synth.run_acquisition_calls",
    "dataset.write_trace_s", "dataset.write_manifest_s", "dataset.load_dataset_s",
    "synth.bin_traces_s", "fitting.fit_lorentzian_calls", "fitting.saturation_calls",
    "pipeline.run_fit_pipeline_s", "pipeline.fit_units", "cli.cmd_synth.self_s",
    "cli.cmd_fit.self_s", "cli.cmd_report_s",
)
GRID_LAYERS = (
    "config.load_config_s", "dissipation.total_linewidth_calls",
    "dissipation.critical_intensity_s", "cli.cmd_model.self_s",
)


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 40,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Command:
    label: str
    wall_s: float
    maxrss_mb: float
    code: int
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(label: str, argv: list, work: Path) -> Command:
    """Run one process to completion; wall time and max RSS come from outside."""
    out_path = work / f"{label}.stdout"
    err_path = work / f"{label}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(label, wall, usage.ru_maxrss * 1024 / MB, proc.returncode,
                   out_path.read_text(encoding="utf-8", errors="replace"))


def cli_argv(args: list, spans: Path = None) -> list:
    if spans is None:
        return [sys.executable, "-m", "tlsphonon.cli", *args]
    return [sys.executable, str(TRACED_CLI), str(spans), "--", *args]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def tree_stats(root: Path) -> tuple:
    """(files, bytes, sha256 over relative paths and contents) of a directory."""
    digest = hashlib.sha256()
    files = size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(data)
        files += 1
        size += len(data)
    return files, size, digest.hexdigest()


def check_recovery(report: dict, config_doc: dict, rungs: int) -> tuple:
    """(problems, worst relative error) of a fit report against the config's truth."""
    from tlsphonon.config import parse_config
    from tlsphonon.constants import TWO_PI
    from tlsphonon.dissipation import gamma_rel_closed

    config = parse_config(config_doc)
    material, ens = config.material, config.ensemble
    a_true, b_true = ens.jc_power_law
    problems = []
    if report.get("errors"):
        problems.append(f"{len(report['errors'])} errors, first: {report['errors'][0]}")
    rows = report.get("per_temperature", [])
    if len(rows) != rungs:
        problems.append(f"{len(rows)} per_temperature rows, expected {rungs}")
    glob = report.get("global", {})
    if not {"p_gamma2_j_m3", "a_w_m2", "b"} <= set(glob):
        return problems + [f"global block incomplete: {sorted(glob)}"], math.inf

    pg2_err = abs(glob["p_gamma2_j_m3"] / (ens.p * ens.gamma_l ** 2) - 1.0)
    a_err = abs(glob["a_w_m2"] / a_true - 1.0)
    b_err = abs(glob["b"] - b_true)
    jc_err = g0_err = 0.0
    for row in rows:
        t = row["temperature_k"]
        jc_err = max(jc_err, abs(row["j_c_w_m2"] / ens.j_c_from_power_law(t) - 1.0))
        g0_true = (gamma_rel_closed(t, "L", material, ens) + ens.gamma_bg) / TWO_PI
        g0_err = max(g0_err, abs(row["gamma0_hz"] / g0_true - 1.0))
    for label, err, tol in (("P*gamma^2", pg2_err, RECOVERY_REL_TOL),
                            ("J_c", jc_err, RECOVERY_REL_TOL),
                            ("Gamma_0", g0_err, RECOVERY_REL_TOL),
                            ("a", a_err, POWER_LAW_A_REL_TOL),
                            ("b (absolute)", b_err, POWER_LAW_B_ABS_TOL)):
        if not err < tol:
            problems.append(f"{label} error {err:.3g} >= {tol}")
    return problems, max(pg2_err, a_err, jc_err, g0_err)


def grid_values(spec: str) -> dict:
    """The (T, J, f) axes of a `model` grid spec, spaced as the CLI spaces them."""
    dims = {}
    for part in spec.split(","):
        name, values = part.split("=", 1)
        pieces = values.split(":")
        if len(pieces) == 1:
            dims[name] = np.array([float(pieces[0])])
            continue
        lo, hi, n = float(pieces[0]), float(pieces[1]), int(pieces[2])
        dims[name] = (np.geomspace if pieces[3:] == ["log"] else np.linspace)(lo, hi, n)
    return dims


def check_model(csv_path: Path, config_doc: dict, spec: str, seed: int) -> list:
    """Problems found in a fixed sample of model.csv rows, recomputed here."""
    from tlsphonon.config import parse_config
    from tlsphonon.constants import TWO_PI
    from tlsphonon.dissipation import (critical_intensity, decay_length, q_factor,
                                       total_linewidth)
    from tlsphonon.tls_core import DriveState, PhononMode

    config = parse_config(config_doc)
    dims = grid_values(spec)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    header, rows = body[0].split(","), body[1:]
    n_t, n_j = len(dims["T"]), len(dims["J"])
    expected_rows = n_t * n_j * len(dims["f"])
    if len(rows) != expected_rows:
        return [f"model.csv has {len(rows)} rows, expected {expected_rows}"]
    problems = []
    sample = random.Random(seed).sample(range(len(rows)), min(MODEL_SAMPLE_ROWS, len(rows)))
    for i in sorted(sample):
        got = dict(zip(header, map(float, rows[i].split(","))))
        t, j, f = (float(dims["T"][(i // n_j) % n_t]), float(dims["J"][i % n_j]),
                   float(dims["f"][i // (n_t * n_j)]))
        if (got["temperature_k"], got["intensity_w_m2"], got["frequency_hz"]) != (t, j, f):
            problems.append(f"row {i}: grid point out of order")
            continue
        mode = PhononMode.in_material(config.material, TWO_PI * f, "L")
        j_c = critical_intensity(config.material, t, times=config.times,
                                 ensemble=config.ensemble)
        bd = total_linewidth(mode, DriveState(temperature=t, intensity=j,
                                              drive_omega=mode.omega),
                             config.material, config.ensemble, j_c=j_c,
                             t_ref=config.fit_section().get("t0_k"))
        want = {
            "j_c_w_m2": j_c, "gamma_res_hz": bd.gamma_res / TWO_PI,
            "gamma_rel_hz": bd.gamma_rel / TWO_PI, "gamma_bg_hz": bd.gamma_bg / TWO_PI,
            "gamma_total_hz": bd.total / TWO_PI,
            "freq_shift_hz": bd.freq_shift_res / TWO_PI,
            "q_factor": q_factor(mode.omega, bd.total),
            "decay_length_m": decay_length(bd.total, config.material, "L"),
        }
        for col, value in want.items():
            if not math.isclose(got[col], value, rel_tol=MODEL_REL_TOL):
                problems.append(f"row {i} {col}: {got[col]!r} != {value!r}")
    return problems


def fixed_point_iterations(config_doc: dict) -> int:
    """Sum of the self-consistent solver's iterations over the campaign plan."""
    from tlsphonon.config import parse_config
    from tlsphonon.synth import plan_acquisitions, solve_self_consistent

    plan = parse_config(config_doc).sweep_plan()
    _, acquisitions = plan_acquisitions(plan)
    model = plan.model
    return sum(solve_self_consistent(a.temperature, a.drive, model,
                                     center=model.line_center(a.temperature)).iterations
               for a in acquisitions)


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

# per-layer metric -> (statistic, span name), summed over a pass's commands;
# "total" is inclusive time, "self" excludes child spans
SPAN_METRICS = {
    "cli.import_s": ("total", "cli.import"),
    "config.load_config_s": ("total", "config.load_config"),
    "synth.plan_acquisitions_s": ("total", "synth.plan_acquisitions"),
    "synth.run_acquisition_s": ("total", "synth.run_acquisition"),
    "synth.run_acquisition_calls": ("calls", "synth.run_acquisition"),
    "dataset.write_trace_s": ("total", "dataset.write_trace"),
    "dataset.write_manifest_s": ("total", "dataset.write_manifest"),
    "dataset.load_dataset_s": ("total", "dataset.load_dataset"),
    "synth.bin_traces_s": ("total", "synth.bin_traces"),
    "fitting.fit_lorentzian_s": ("total", "fitting.fit_lorentzian"),
    "fitting.fit_lorentzian_calls": ("calls", "fitting.fit_lorentzian"),
    "pipeline.run_fit_pipeline_s": ("total", "pipeline.run_fit_pipeline"),
    "pipeline.run_fit_pipeline.self_s": ("self", "pipeline.run_fit_pipeline"),
    "cli.cmd_synth.self_s": ("self", "cli.cmd_synth"),
    "cli.cmd_fit.self_s": ("self", "cli.cmd_fit"),
    "cli.cmd_report_s": ("total", "cli.cmd_report"),
    "cli.cmd_model.self_s": ("self", "cli.cmd_model"),
    "dissipation.total_linewidth_s": ("total", "dissipation.total_linewidth"),
    "dissipation.total_linewidth_calls": ("calls", "dissipation.total_linewidth"),
    "dissipation.critical_intensity_s": ("total", "dissipation.critical_intensity"),
}

# counts read off return values inside the traced process (traced_cli.OBSERVERS)
OBSERVED_COUNTS = ("dataset.load_errors", "pipeline.fit_units", "pipeline.fit_units_failed")

# the shared fit calls the per-temperature one for its starting values; only
# the outermost saturation call counts
SATURATION_SPANS = ("fitting.fit_saturation", "fitting.fit_saturation_shared")


def load_spans(path: Path) -> tuple:
    """(spans, counts, targets never wrapped) of one traced process; each
    span gets its self time."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    names = doc["names"]
    spans = [{"name": names[i], "parent": parent, "dur": (end - start) / 1e9}
             for i, parent, start, end in doc["spans"]]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["dur"]
    for span, covered in zip(spans, child_time):
        span["self"] = span["dur"] - covered
    return spans, doc["counts"], doc["unwrapped"]


def layer_metrics(traced: list) -> dict:
    """Per-layer totals of one traced pass, given [(Command, spans, counts), ...]."""
    stats = {"total": {}, "self": {}, "calls": {}}
    out = {"fitting.saturation_s": 0.0, "fitting.saturation_calls": 0,
           "trace.unaccounted_s": 0.0, **{name: 0 for name in OBSERVED_COUNTS}}
    for cmd, spans, counts, _ in traced:
        for span in spans:
            name = span["name"]
            for key, value in (("total", span["dur"]), ("self", span["self"]), ("calls", 1)):
                stats[key][name] = stats[key].get(name, 0) + value
            parent = spans[span["parent"]]["name"] if span["parent"] >= 0 else None
            if name in SATURATION_SPANS and parent not in SATURATION_SPANS:
                out["fitting.saturation_s"] += span["dur"]
                out["fitting.saturation_calls"] += 1
        # interpreter start-up and exit, wrapper set-up and the span dump
        out["trace.unaccounted_s"] += cmd.wall_s - sum(
            s["dur"] for s in spans if s["parent"] < 0)
        for name in OBSERVED_COUNTS:
            out[name] += counts.get(name, 0)
    for metric, (key, name) in SPAN_METRICS.items():
        out[metric] = stats[key].get(name, 0)
    return out


def lost_layers(workload: Workload, layers: dict) -> list:
    """Layers the workload runs that a traced pass saw no spans of."""
    return [name for name in (GRID_LAYERS if workload.grid else LOOP_LAYERS)
            if not layers[name] > 0]


def breakdown_lines(cmd: Command, spans: list, unwrapped: list) -> list:
    """Self time per span name of one traced command, largest first."""
    agg = {}
    for span in spans:
        s, n = agg.get(span["name"], (0.0, 0))
        agg[span["name"]] = (s + span["self"], n + 1)
    roots = sum(s["dur"] for s in spans if s["parent"] < 0)
    lines = [f"  traced {cmd.label}: wall {cmd.wall_s:.3f} s, spans cover {roots:.3f} s "
             f"({roots / cmd.wall_s:.1%})"]
    for name, (s, n) in sorted(agg.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"    {s:9.4f} s self {n:7d} calls  {name}")
    if unwrapped:
        lines.append(f"    not found, so not traced: {', '.join(unwrapped)}")
    return lines


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Everything one run measured and every problem it found."""

    setup: list = field(default_factory=list)         # Commands timing the import
    commands: list = field(default_factory=list)      # every Command attempted
    failed_commands: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    passes: list = field(default_factory=list)        # one dict per pass
    layers: list = field(default_factory=list)        # layer_metrics per traced pass
    breakdowns: list = field(default_factory=list)    # span tables, human-readable

    def fail(self, cmd: Command, problem: str) -> None:
        self.failed_commands.add(id(cmd))
        self.problems.append(f"{cmd.label}: {problem}")

    def add(self, cmd: Command) -> Command:
        self.commands.append(cmd)
        if cmd.code != 0:
            self.fail(cmd, f"exit code {cmd.code}")
        return cmd


def workload_steps(workload: Workload, config_path: Path, work: Path) -> list:
    data, results = work / "data", work / "results"
    if workload.grid:
        return [("model", ["model", "--config", str(config_path), "--out", str(results),
                           "--grid", workload.grid])]
    return [("synth", ["synth", "--config", str(config_path), "--out", str(data)]),
            ("fit", ["fit", str(data), "--out", str(results)]),
            ("report", ["report", "--out", str(results)])]


def run_pass(workload: Workload, config_path: Path, config_doc: dict, seed: int,
             work: Path, traced: bool, outcome: Outcome, reference: dict) -> None:
    """One pass over the workload's commands, then its output checks (untimed)."""
    for stale in (work / "data", work / "results"):
        shutil.rmtree(stale, ignore_errors=True)
    # start every pass with no dirty pages left over from the previous one
    os.sync()
    steps = workload_steps(workload, config_path, work)
    cmds, spans = {}, []
    for label, args in steps:
        span_path = work / f"{label}.spans.json" if traced else None
        cmd = cmds[label] = outcome.add(run_child(label, cli_argv(args, span_path), work))
        if cmd.code != 0:
            break
        if traced:
            spans.append((cmd, *load_spans(span_path)))

    record = {"traced": traced,
              **{f"{label}_s": cmd.wall_s for label, cmd in cmds.items()},
              "loop_s": sum(c.wall_s for c in cmds.values()),
              "peak_rss_mb": max(c.maxrss_mb for c in cmds.values())}
    outcome.passes.append(record)
    if any(c.code != 0 for c in cmds.values()):
        return
    try:
        check_pass(workload, config_doc, seed, work, cmds, outcome, reference, record)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        writer = cmds["model" if workload.grid else "fit"]
        outcome.fail(writer, f"output unreadable: {type(exc).__name__}: {exc}")
        return
    if traced:
        layers = layer_metrics(spans)
        layers["dataset.files_written"] = record.get("dataset_files", 0)
        layers["dataset.bytes_written"] = record.get("dataset_bytes", 0)
        layers["synth.fixed_point_iterations"] = (
            0 if workload.grid else fixed_point_iterations(config_doc))
        outcome.layers.append(layers)
        lost = lost_layers(workload, layers)
        if lost:
            outcome.problems.append(f"traced pass {len(outcome.passes)}: no spans behind "
                                    f"{', '.join(lost)}")
        outcome.breakdowns.append(f"pass {len(outcome.passes)} (traced), self time by span:")
        for cmd, cmd_spans, _, unwrapped in spans:
            outcome.breakdowns.extend(breakdown_lines(cmd, cmd_spans, unwrapped))


def check_pass(workload: Workload, config_doc: dict, seed: int, work: Path,
               cmds: dict, outcome: Outcome, reference: dict, record: dict) -> None:
    """Output checks of one pass; a failed check counts against its command."""
    results = work / "results"
    _, record["results_bytes"], results_digest = tree_stats(results)
    digests = {"model" if workload.grid else "fit": results_digest}
    if workload.grid:
        for problem in check_model(results / "model.csv", config_doc, workload.grid, seed):
            outcome.fail(cmds["model"], problem)
    else:
        record["dataset_files"], record["dataset_bytes"], digests["synth"] = tree_stats(
            work / "data")
        report = json.loads((results / "report.json").read_text(encoding="utf-8"))
        problems, record["recovery_err"] = check_recovery(report, config_doc,
                                                          workload.rungs())
        for problem in problems:
            outcome.fail(cmds["fit"], problem)
        if "P*gamma_L^2" not in cmds["report"].stdout:
            outcome.fail(cmds["report"], "parameter table missing from stdout")
    # determinism: every pass on one seed writes the same bytes
    for label, digest in digests.items():
        if reference.setdefault(label, digest) != digest:
            outcome.fail(cmds[label], "output differs from the first pass on this seed")


def check_exact_counts(outcome: Outcome) -> None:
    """Counts are exact: every traced pass of one run must reproduce them."""
    for name in EXACT_COUNTS:
        seen = {layers[name] for layers in outcome.layers}
        if len(seen) > 1:
            outcome.problems.append(f"count {name} differs between passes: {sorted(seen)}")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> Outcome:
    """Passes until ``seconds`` is used up; with ``trace`` every second pass is traced."""
    work.mkdir(parents=True, exist_ok=True)
    config_doc = workload.config(seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config_doc, indent=1) + "\n", encoding="utf-8")
    outcome, reference = Outcome(), {}
    # with trace, two traced passes at least, so that their exact counts are compared
    min_passes = 4 if trace else MIN_PASSES
    start = time.perf_counter()
    while True:
        n = len(outcome.passes)
        elapsed = time.perf_counter() - start
        if n >= min_passes and elapsed + elapsed / n > seconds:
            break
        # set-up samples are spread over the run, so one slow spell moves few
        outcome.setup.append(outcome.add(run_child(
            "setup", [sys.executable, "-c", "import tlsphonon.cli"], work)))
        run_pass(workload, config_path, config_doc, seed, work,
                 traced=trace and n % 2 == 1, outcome=outcome, reference=reference)
    check_exact_counts(outcome)
    return outcome


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(outcome: Outcome) -> dict:
    """name -> (value, unit, samples): untraced medians and exact sizes."""
    untraced = [p for p in outcome.passes if not p["traced"]]
    checked = [p for p in outcome.passes if "results_bytes" in p]
    last = checked[-1] if checked else {}
    dataset_mb = last.get("dataset_bytes", 0) / MB
    results_mb = last.get("results_bytes", 0) / MB
    table = {
        "setup_s": (_median([c.wall_s for c in outcome.setup]), "s", len(outcome.setup)),
        "loop_s": (_median([p["loop_s"] for p in untraced]), "s", len(untraced)),
        "peak_rss_mb": (_median([p["peak_rss_mb"] for p in untraced]), "MB", len(untraced)),
        "written_mb": (dataset_mb + results_mb, "MB", len(checked)),
        "results_mb": (results_mb, "MB", len(checked)),
        "dataset_mb": (dataset_mb, "MB", len(checked)),
    }
    for label in ("synth", "fit", "report", "model"):
        walls = [p[f"{label}_s"] for p in untraced if f"{label}_s" in p]
        if walls:
            table[f"{label}_s"] = (_median(walls), "s", len(walls))
    recovery = [p["recovery_err"] for p in checked if "recovery_err" in p]
    if recovery:
        table["recovery_err"] = (max(recovery), "ratio", len(recovery))
    attempted = len(outcome.commands)
    table["failed_frac"] = (len(outcome.failed_commands) / attempted, "ratio", attempted)
    return table


def per_layer(outcome: Outcome, table: dict) -> dict:
    """Per-layer medians over traced passes (counts are exact), plus overhead."""
    layers = {}
    for name, unit, _ in PER_LAYER:
        values = [l[name] for l in outcome.layers if name in l]
        layers[name] = (_median(values) if unit == "s" else values[0]) if values else 0
    for label in ("synth", "fit", "report", "model"):
        layers[f"cmd.{label}_s"] = table.get(f"{label}_s", (0.0,))[0]
    traced = [p["loop_s"] for p in outcome.passes if p["traced"]]
    layers["trace.overhead_s"] = _median(traced) - table["loop_s"][0] if traced else 0.0
    return layers


def result_line(outcome: Outcome, trace: bool) -> tuple:
    """(human-readable lines, the final JSON object) of a finished run."""
    lines = []
    for i, p in enumerate(outcome.passes, 1):
        walls = ", ".join(f"{k[:-2]} {v:.3f} s" for k, v in p.items()
                          if k.endswith("_s") and k != "loop_s")
        lines.append(f"pass {i}{' (traced)' if p['traced'] else ''}: {walls}; "
                     f"loop {p['loop_s']:.3f} s, "
                     f"peak rss {p['peak_rss_mb']:.1f} MB")
    lines.extend(outcome.breakdowns)
    table = end_to_end(outcome)
    lines.append("end-to-end (medians of untraced passes):")
    lines.extend(f"  {name:<14} {value:14.6g} {unit:<6} n={n}"
                 for name, (value, unit, n) in table.items())
    if trace:
        layers = per_layer(outcome, table)
        lines.append(f"per layer (median of {len(outcome.layers)} traced passes; "
                     "counts are exact):")
        lines.extend(f"  {name:<34} {layers[name]:{'14d' if unit == 'count' else '14.6g'}} {unit}"
                     for name, unit, _ in PER_LAYER)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": table[name][0], "unit": unit}
                   for name, unit, _, _ in END_TO_END}
    lines.extend(f"FAILED {problem}" for problem in outcome.problems)
    return lines, {
        "correct": not outcome.problems,
        "attempted": len(outcome.commands),
        "failed": len(outcome.failed_commands),
        "metrics": metrics,
    }


def stamp(workload: Workload, seed: int, seconds: float, trace: bool) -> str:
    import scipy

    size = " ".join(f"{k}={v}" for k, v in workload.size().items())
    return (f"# perfbench workload={workload.name} seed={seed} seconds={seconds:g} "
            f"trace={int(trace)} nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} {size}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "tlsphonon" / "cli.py").is_file():
        print(f"error: no tlsphonon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    print(stamp(workload, args.seed, args.seconds, trace), flush=True)
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    try:
        outcome = run_workload(workload, args.seed, args.seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines, result = result_line(outcome, trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
