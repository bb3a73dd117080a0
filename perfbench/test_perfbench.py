"""Smoke test of the benchmark on a short ladder: the closed loop, the trace
writer, the output checks and the printer, in seconds rather than minutes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402

# 5 rungs x 6 settings x 2 repeats = 60 traces, 30 fit units
SHORT = bench.Workload("short", "smoke test", synth={"t_end_k": 1.6, "traces_per_100mk": 2})
SMALL_GRID = bench.Workload("small-grid", "smoke test",
                            grid="T=1.1:4.2:4,J=1e-2:1e2:3:log,f=9.188e9")


def test_traced_short_ladder(tmp_path):
    outcome = bench.run_workload(SHORT, seed=3, seconds=0, trace=True, work=tmp_path)
    assert outcome.problems == []
    assert [p["traced"] for p in outcome.passes] == [False, True, False, True]
    lines, result = bench.result_line(outcome, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4 + 4 * 3
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [name for name, _, _ in bench.PER_LAYER]
    assert metrics["synth.run_acquisition_calls"] == 60
    assert metrics["dataset.files_written"] == 2 * 60 + 1
    assert metrics["fitting.fit_lorentzian_calls"] == 30
    assert metrics["pipeline.fit_units"] == 30
    assert metrics["pipeline.fit_units_failed"] == 0
    assert metrics["fitting.saturation_calls"] == 1
    assert metrics["synth.fixed_point_iterations"] > 60
    assert metrics["dissipation.total_linewidth_calls"] == 0
    assert metrics["dataset.write_trace_s"] > 0 and metrics["cli.import_s"] > 0
    assert any("dataset.write_trace" in line for line in lines)
    assert bench.lost_layers(SHORT, metrics) == []
    assert bench.lost_layers(SHORT, {**metrics, "fitting.saturation_calls": 0}) == [
        "fitting.saturation_calls"]

    # the untraced printer gives exactly the end-to-end metrics
    _, plain = bench.result_line(outcome, trace=False)
    assert list(plain["metrics"]) == [name for name, _, _, _ in bench.END_TO_END]
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    json.loads(json.dumps(plain))

    # the last pass's outputs are still in the work directory: a changed
    # dataset, a wrong recovery and a missing table are each caught
    config_doc = SHORT.config(3)
    cmds = {label: bench.Command(label, 1.0, 1.0, 0, "P*gamma_L^2 ...")
            for label in ("synth", "fit", "report")}
    check = bench.Outcome()
    bench.check_pass(SHORT, config_doc, 3, tmp_path, cmds, check, {"synth": "0" * 64}, {})
    assert check.problems == ["synth: output differs from the first pass on this seed"]

    report = json.loads((tmp_path / "results" / "report.json").read_text())
    report["global"]["p_gamma2_j_m3"] *= 1.03
    report["per_temperature"].pop()
    problems, _ = bench.check_recovery(report, config_doc, SHORT.rungs())
    assert len(problems) == 2

    cmds["report"].stdout = ""
    check = bench.Outcome()
    bench.check_pass(SHORT, config_doc, 3, tmp_path, cmds, check, {}, {})
    assert check.problems == ["report: parameter table missing from stdout"]


def test_model_grid_check(tmp_path):
    outcome = bench.run_workload(SMALL_GRID, seed=1, seconds=0, trace=False, work=tmp_path)
    assert outcome.problems == []
    csv = tmp_path / "results" / "model.csv"
    lines = csv.read_text().splitlines()
    assert len(lines) == 2 + 12
    fields = lines[5].split(",")
    fields[7] = repr(float(fields[7]) * (1 + 1e-11))  # gamma_total_hz
    lines[5] = ",".join(fields)
    csv.write_text("\n".join(lines) + "\n")
    problems = bench.check_model(csv, SMALL_GRID.config(1), SMALL_GRID.grid, seed=1)
    assert len(problems) == 1 and "gamma_total_hz" in problems[0]


def test_tracer_wraps_modules_imported_late():
    # fitting and pipeline load only after the tracer is in place, as a lazy
    # import inside a command would load them
    script = (
        "import sys, traced_cli\n"
        "tracer = traced_cli.Tracer()\n"
        "tracer.install()\n"
        "sys.meta_path.insert(0, traced_cli.InstallAfterImport(tracer))\n"
        "import tlsphonon.pipeline as pipeline, tlsphonon.fitting as fitting\n"
        "assert pipeline.fit_lorentzian is fitting.fit_lorentzian\n"
        "assert fitting.fit_lorentzian.__code__.co_name == 'traced'\n"
        "assert 'tlsphonon.fitting.fit_lorentzian' not in tracer.unwrapped()\n"
        "assert 'tlsphonon.cli.cmd_fit' in tracer.unwrapped()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=HERE, env=bench.child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_json_matches_the_spec():
    on_disk = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == bench.benchmark_spec()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
