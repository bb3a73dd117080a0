"""On-disk dataset format for gain spectra.

One CSV per trace with header ``detuning_hz,gain_w`` plus a JSON sidecar
repeating the trace's acquisition metadata, and a manifest listing every
trace with that metadata, the config hash and the library version. Only
the CSV and the manifest are read back. Synthetic and externally measured
data share the format; a manifest entry's ``peak_intensity_w_m2`` is
optional for the latter and recomputed from the fitted linewidth when
absent.

Every number the program writes to a CSV, here and in ``fit``'s and
``model``'s tables, goes through :func:`format_rows` in its shortest
round-trip form, and every JSON file through :func:`write_json`, so
re-running an identical config produces byte-identical files.

The row codec makes one flat pass each way. :func:`format_rows` dumps a
table's row-major values as one flat orjson list and turns every width-th
comma into a newline with one numpy pass over the bytes. The trace reader
checks in one numpy pass that the separators alternate ``,`` and newline,
then parses the values as one flat orjson list; a body it does not take
goes to a line-at-a-time parser that reads any v1 layout.

A loaded dataset holds each detuning axis once. :func:`load_dataset`
interns every parsed axis by its exact bytes, so the traces of one power
setting share one read-only grid array and only their gains are per trace:
~8 bytes a sample, where a grid per trace took ~24 while loading.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import List, Optional

import numpy as np
import orjson

from .config import require_key
from .constants import TWO_PI
from .sbs import OpticalDrive
from .synth import BGSTrace

TRACE_HEADER = "detuning_hz,gain_w"
_HEADER_LINE = TRACE_HEADER.encode() + b"\n"
# every byte format_rows writes for finite values; any other goes to the line parser
_ROW_BYTES = b"0123456789.eE+-, \n"
# JSON reads the integer -0 as +0, where float() keeps the sign
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?![.\deE])")
_COMMA, _NEWLINE = b","[0], b"\n"[0]


def trace_filename(index: int) -> str:
    return f"trace_{index:05d}.csv"


def _token(value) -> bytes:
    # repr spells NaN and +-inf as Python's float() reads them; JSON has no such numbers
    if math.isfinite(value):
        return orjson.dumps(value, option=orjson.OPT_SERIALIZE_NUMPY)
    return repr(float(value)).encode()


def format_rows(rows) -> bytes:
    """CSV rows of a 2-D float matrix, or of a list of rows of Python (or
    numpy scalar) ints and floats, each value in its shortest round-trip form.

    The digits are those of ``repr``, written by orjson's C serializer;
    exponents are unpadded (``1e-7``, ``1e16``) and values in [1e-5, 1e-4)
    are positional (``0.00003``). Ints in a list stay ints (``3``). NaN and
    +-inf are written ``nan``, ``inf`` and ``-inf``, never JSON's ``null``.
    Rows must share one width of at least one value.

    One flat orjson dump of the row-major values, then one numpy pass that
    turns every width-th comma into a newline.
    """
    if isinstance(rows, np.ndarray):
        block = np.ascontiguousarray(rows, dtype=np.float64)
        if block.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {block.shape}")
        shape, flat = block.shape, block.ravel()
        finite = np.isfinite(flat)
        bad = [] if finite.all() else np.flatnonzero(~finite.reshape(shape).all(axis=1))
    else:
        block = [list(row) for row in rows]
        widths = sorted({len(row) for row in block})
        if len(widths) > 1:
            raise ValueError(f"expected rows of one width, got widths {widths}")
        shape = (len(block), widths[0] if block else 0)
        flat = list(chain.from_iterable(block))
        bad = [i for i, row in enumerate(block) if not all(map(math.isfinite, row))]
    if not shape[0]:
        return b""
    if not shape[1]:
        raise ValueError(f"expected at least one column, got shape {shape}")
    text = bytearray(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1])  # a,b,c,d
    chars = np.frombuffer(text, dtype=np.uint8)
    chars[np.flatnonzero(chars == _COMMA)[shape[1] - 1::shape[1]]] = _NEWLINE
    if not len(bad):
        return bytes(text) + b"\n"
    lines = bytes(text).split(b"\n")
    for i in bad:
        lines[i] = b",".join(map(_token, block[i]))
    return b"\n".join(lines) + b"\n"


def write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` as key-sorted JSON indented by one space, newline-terminated."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def write_spectrum(path: Path, detuning_hz: np.ndarray, gain: np.ndarray) -> None:
    """Write one spectrum as a ``detuning_hz,gain_w`` CSV."""
    rows = format_rows(np.column_stack((detuning_hz, gain)))
    Path(path).write_bytes(_HEADER_LINE + rows)


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
    write_json(directory / (name[:-4] + ".json"), sidecar)
    entry = {"file": name}
    entry.update(sidecar)
    return entry


def _parse_rows(data: bytes):
    """The (n, 2) value matrix of a trace CSV in format_rows' layout, else None.

    One numpy pass checks that the separators alternate ``,`` and newline,
    so the body is two values a line, then one orjson parse of the values
    as a flat list. Anything else a v1 reader takes (``1.``, ``.5``, ``+1``,
    ``nan``, CRLF, blank lines) returns None and goes to
    :func:`_parse_lines`, and so does a body that is not two numbers a line,
    so a damaged file fails with that parser's message.
    """
    if not data.startswith(_HEADER_LINE):
        return None
    body = data[len(_HEADER_LINE):].rstrip()
    if body.translate(None, _ROW_BYTES) or _INTEGER_MINUS_ZERO.search(body):
        return None
    chars = np.frombuffer(body, dtype=np.uint8)
    commas = np.flatnonzero(chars == _COMMA)
    newlines = np.flatnonzero(chars == _NEWLINE)
    # two values a line: the separators alternate , \n , ... , so each newline
    # sits between two commas
    if (len(commas) != len(newlines) + 1 or (newlines < commas[:-1]).any()
            or (newlines > commas[1:]).any()):
        return None
    try:
        values = np.array(orjson.loads(b"[" + body.replace(b"\n", b",") + b"]"),
                          dtype=np.float64)
    except ValueError:  # not JSON, or a number past the double range
        return None
    return values.reshape(-1, 2)


def _parse_lines(text: str, path: Path):
    """(detuning, gain) arrays of any v1 trace CSV, one line at a time."""
    raw = text.strip().splitlines()
    if not raw or raw[0].strip() != TRACE_HEADER:
        raise ValueError(f"{path}: expected header {TRACE_HEADER!r}")
    det = []
    gain = []
    for line in raw[1:]:
        a, b = line.split(",")
        det.append(float(a))
        gain.append(float(b))
    return np.array(det), np.array(gain)


def read_trace(directory: Path, entry: dict, grids: Optional[dict] = None) -> BGSTrace:
    """Load one trace from its manifest entry.

    The detuning grid is read-only. ``grids`` maps an axis's exact bytes (in
    Hz, as parsed) to its grid; a trace whose axis is in it shares that grid,
    and a new axis is added, so traces read with one table hold each axis once.
    """
    directory = Path(directory)
    path = directory / entry["file"]
    data = path.read_bytes()
    rows = _parse_rows(data)
    if rows is None:
        det, gain = _parse_lines(data.decode("utf-8"), path)
    else:  # an owned gain: a column view would keep the whole matrix alive
        det, gain = rows[:, 0], rows[:, 1].copy()
    grids = {} if grids is None else grids
    key = det.tobytes()
    grid = grids.get(key)
    if grid is None:
        grid = grids[key] = det * TWO_PI
        grid.flags.writeable = False
    drive = OpticalDrive(
        pump_power=entry["pump_w"],
        stokes_power=entry["probe_w"],
        pump_omega=entry["pump_frequency_hz"] * TWO_PI,
        fiber_length=entry["length_m"],
    )
    return BGSTrace(
        temperature=entry["temperature_k"],
        detuning_grid=grid,
        gain=gain,
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
    write_json(Path(directory) / "manifest.json", doc)


def read_manifest(directory: Path) -> dict:
    path = Path(directory) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no manifest.json in {directory}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    traces = require_key(doc, "traces", path)
    if not isinstance(traces, list):
        raise ValueError(f"{path}: key 'traces' must be a list, got {type(traces).__name__}")
    return doc


def _off_grid(loaded: List[tuple]) -> List[int]:
    """Positions in ``loaded`` of traces off their power setting's grid.

    A setting's grid is the one shared by the most of its traces; on a tie,
    the grid of the earliest of them in the manifest.
    """
    # + 0.0 maps -0.0 to 0.0, so equal bytes mean np.array_equal grids; one
    # key per grid object, which traces read with one table share
    grid_bytes = {}
    keys = {}
    for pos, (_, trace, _) in enumerate(loaded):
        if trace is not None:
            grid = trace.detuning_grid
            if id(grid) not in grid_bytes:
                grid_bytes[id(grid)] = (grid + 0.0).tobytes()
            keys[pos] = (trace.setting_index, grid_bytes[id(grid)])
    counts = Counter(keys.values())
    majority = {}
    for setting, grid in keys.values():  # manifest order: a tie keeps the earliest
        if counts[setting, grid] > counts[setting, majority.get(setting)]:
            majority[setting] = grid
    return [pos for pos, (setting, grid) in keys.items() if grid != majority[setting]]


def load_dataset(directory: Path) -> List[tuple]:
    """All traces of a dataset as (entry, trace-or-None, labelled error-or-None).

    Corrupted traces are surfaced rather than fatal, and so is a trace whose
    detuning grid differs from the one most traces of its power setting
    share; the caller decides how many failures the run tolerates. Traces
    with one axis share one read-only grid array.
    """
    directory = Path(directory)
    entries = read_manifest(directory)["traces"]
    labels = [f"trace {entry['file']}" if isinstance(entry, dict) and "file" in entry
              else f"manifest entry {pos}" for pos, entry in enumerate(entries)]
    out = []
    grids = {}
    for entry, label in zip(entries, labels):
        try:
            out.append((entry, read_trace(directory, entry, grids), None))
        except Exception as exc:
            out.append((entry, None, f"{label}: {type(exc).__name__}: {exc}"))
    for pos in _off_grid(out):
        entry, trace, _ = out[pos]
        out[pos] = (entry, None, f"{labels[pos]}: ValueError: detuning grid differs from the "
                                 f"one shared by most traces of power setting "
                                 f"{trace.setting_index}")
    return out
