"""On-disk dataset format for gain spectra.

One CSV per trace with header ``detuning_hz,gain_w`` plus a JSON sidecar
repeating the trace's acquisition metadata, and a manifest listing every
trace with that metadata, the config hash and the library version. Only
the CSV and the manifest are read back. Floats are written with ``repr``
(the shortest round-trip form), so re-running an identical config produces
byte-identical files. Synthetic and externally measured data share the
format; a manifest entry's ``peak_intensity_w_m2`` is optional for the
latter and recomputed from the fitted linewidth when absent.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import List

import numpy as np

from .constants import TWO_PI
from .sbs import OpticalDrive
from .synth import BGSTrace

TRACE_HEADER = "detuning_hz,gain_w"


def trace_filename(index: int) -> str:
    return f"trace_{index:05d}.csv"


def write_spectrum(path: Path, detuning_hz: np.ndarray, gain: np.ndarray) -> None:
    """Write one spectrum as a ``detuning_hz,gain_w`` CSV."""
    rows = "".join(f"{f!r},{g!r}\n" for f, g in zip(detuning_hz.tolist(), gain.tolist()))
    Path(path).write_text(f"{TRACE_HEADER}\n{rows}", encoding="utf-8")


def write_trace(directory: Path, trace: BGSTrace) -> dict:
    """Write one trace (CSV + JSON sidecar); returns its manifest entry."""
    directory = Path(directory)
    name = trace_filename(trace.timestamp_index)
    write_spectrum(directory / name, trace.detuning_grid / TWO_PI, trace.gain)

    sidecar = {
        "temperature_k": float(trace.temperature),
        "pump_w": float(trace.drive.pump_power),
        "probe_w": float(trace.drive.stokes_power),
        "length_m": float(trace.drive.fiber_length),
        "pump_frequency_hz": float(trace.drive.pump_omega / TWO_PI),
        "seed": int(trace.seed),
        "timestamp_index": int(trace.timestamp_index),
        "setting_index": int(trace.setting_index),
        "peak_intensity_w_m2": float(trace.peak_intensity),
    }
    (directory / (name[:-4] + ".json")).write_text(
        json.dumps(sidecar, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    entry = {"file": name}
    entry.update(sidecar)
    return entry


def read_trace(directory: Path, entry: dict) -> BGSTrace:
    """Load one trace from its manifest entry."""
    directory = Path(directory)
    path = directory / entry["file"]
    raw = path.read_text(encoding="utf-8").strip().splitlines()
    if not raw or raw[0].strip() != TRACE_HEADER:
        raise ValueError(f"{path}: expected header {TRACE_HEADER!r}")
    det = []
    gain = []
    for line in raw[1:]:
        a, b = line.split(",")
        det.append(float(a))
        gain.append(float(b))
    drive = OpticalDrive(
        pump_power=entry["pump_w"],
        stokes_power=entry["probe_w"],
        pump_omega=entry["pump_frequency_hz"] * TWO_PI,
        detuning=float(np.median(det)) * TWO_PI,
        fiber_length=entry["length_m"],
    )
    return BGSTrace(
        temperature=entry["temperature_k"],
        detuning_grid=np.asarray(det) * TWO_PI,
        gain=np.asarray(gain),
        drive=drive,
        seed=int(entry.get("seed", 0)),
        timestamp_index=int(entry.get("timestamp_index", 0)),
        setting_index=int(entry.get("setting_index", 0)),
        peak_intensity=float(entry.get("peak_intensity_w_m2", 0.0)),
    )


def write_manifest(directory: Path, entries: List[dict], config_doc: dict,
                   config_hash: str, version: str) -> None:
    doc = {
        "format": "tlsphonon-bgs-v1",
        "version": version,
        "config_sha256": config_hash,
        "config": config_doc,
        "traces": entries,
    }
    (Path(directory) / "manifest.json").write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


def read_manifest(directory: Path) -> dict:
    path = Path(directory) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no manifest.json in {directory}")
    return json.loads(path.read_text(encoding="utf-8"))


def _off_grid(loaded: List[tuple]) -> List[int]:
    """Positions in ``loaded`` of traces off their power setting's grid.

    A setting's grid is the one shared by the most of its traces; on a tie,
    the grid of the earliest of them in the manifest.
    """
    # + 0.0 maps -0.0 to 0.0, so equal bytes mean np.array_equal grids
    keys = {pos: (trace.setting_index, (trace.detuning_grid + 0.0).tobytes())
            for pos, (_, trace, _) in enumerate(loaded) if trace is not None}
    counts = Counter(keys.values())
    majority = {}
    for setting, grid in keys.values():  # manifest order: a tie keeps the earliest
        if counts[setting, grid] > counts[setting, majority.get(setting)]:
            majority[setting] = grid
    return [pos for pos, (setting, grid) in keys.items() if grid != majority[setting]]


def load_dataset(directory: Path) -> List[tuple]:
    """All traces of a dataset as (entry, trace-or-None, error-or-None).

    Corrupted traces are surfaced rather than fatal, and so is a trace whose
    detuning grid differs from the one most traces of its power setting
    share; the caller decides how many failures the run tolerates.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    out = []
    for entry in manifest["traces"]:
        try:
            out.append((entry, read_trace(directory, entry), None))
        except Exception as exc:
            out.append((entry, None, f"{type(exc).__name__}: {exc}"))
    for pos in _off_grid(out):
        entry, trace, _ = out[pos]
        out[pos] = (entry, None, "ValueError: detuning grid differs from the one shared "
                                 f"by most traces of power setting {trace.setting_index}")
    return out
