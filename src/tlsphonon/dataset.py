"""On-disk dataset format for gain spectra (``tlsphonon-bgs-v3``).

The synthesizer sets the detuning axis and only the gain is measured, so a
dataset holds each power setting's axis once. ``manifest.json`` carries the
config, its SHA-256, the library version, every trace with its acquisition
metadata, and under ``detuning_axes_hz`` the axis of each power setting,
keyed by the setting index as a string: one string of its values in Hz,
comma-separated, in the digits a v1 CSV's detuning column holds, so it
parses back to the same doubles. Each trace's gains, sampled on its
setting's axis, are one ``.f64`` file of raw little-endian IEEE-754
doubles with no header, beside a JSON sidecar repeating the trace's
manifest entry. Only the ``.f64`` files and the manifest are read back.

Externally measured data may keep the v1 layout: two-column
``detuning_hz,gain_w`` CSVs and no axes in the manifest. Such a trace
carries its own axis, and one whose axis differs from the axis most traces
of its power setting share is refused. Like an instrument, a dataset holds
no acoustic intensity; an old manifest's ``peak_intensity_w_m2`` is ignored.
The gain-only ``gain_w`` CSVs of ``tlsphonon-bgs-v2`` are refused, each
with a note to re-run ``synth``.

Every number the program writes to a CSV, here and in ``fit``'s and
``model``'s tables, goes through :func:`format_rows` in its shortest
round-trip form, and every JSON file through :func:`write_json`, so
re-running an identical config produces byte-identical files.

The number codec is one rule each way. :func:`format_rows` yields a
table's text in chunks of a few whole rows, each one flat orjson list whose
every width-th comma numpy turns into a newline, so a caller streams a table
of any size to its file with ``writelines``. Every number read from text, a
manifest axis or a v1 CSV column, is read as ``float()`` reads it, by
:func:`_floats`; whether the values may be a trace is for
:class:`~tlsphonon.synth.BGSTrace` to say (finite, increasing), so the two
layouts accept and refuse the same tokens.

A loaded dataset holds each detuning axis once. :func:`load_dataset` reads
every trace in one pass and takes its grid from one table keyed by the
values of its axis, from the manifest or from a v1 CSV (the axis's bytes,
with -0.0 as 0.0), so traces on equal axes share one read-only grid array
and only their gains are per trace: the 8 bytes a sample the file holds.
Then each power setting votes once: its grid is the one most of its loaded
traces are on, the earliest on a tie, and a trace on another grid is
refused.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Iterator, List, Optional

import numpy as np
import orjson

from .config import is_integer, require_key
from .constants import TWO_PI
from .sbs import OpticalDrive
from .synth import BGSTrace

FORMAT = "tlsphonon-bgs-v3"
AXES_KEY = "detuning_axes_hz"
V1_TRACE_HEADER = "detuning_hz,gain_w"
_COMMA, _NEWLINE = b",\n"
# values per chunk of format_rows: ~40 kB of text, and ~190 kB of peak
# memory while one is formatted. Each chunk pays its own numpy passes and
# write: at 512 values the 256 x 256 model table wrote ~25% slower
_CHUNK_VALUES = 2048


def trace_filename(index: int) -> str:
    return f"trace_{index:05d}.f64"


def format_rows(rows) -> Iterator[bytearray]:
    """CSV rows of a 2-D float matrix, or of a list of rows of Python (or
    numpy scalar) ints and floats, each value in its shortest round-trip
    form, yielded in chunks of whole rows.

    The digits are those of ``repr``, written by orjson's C serializer;
    exponents are unpadded (``1e-7``, ``1e16``) and values in [1e-5, 1e-4)
    are positional (``0.00003``). Ints in a list stay ints (``3``). NaN and
    +-inf are written ``nan``, ``inf`` and ``-inf``, never JSON's ``null``.
    Rows must share one width of at least one value.

    Each chunk is the row-major values of ~``_CHUNK_VALUES`` values' worth
    of whole rows, dumped as one flat orjson list; one numpy pass turns its
    every width-th comma, and the closing bracket, into a newline. The text
    of a table is never held whole: write it with ``fh.writelines``.
    """
    if isinstance(rows, np.ndarray):
        block = np.ascontiguousarray(rows, dtype=np.float64)
        if block.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {block.shape}")
        shape, flat = block.shape, block.ravel()
    else:
        block = [list(row) for row in rows]
        widths = sorted({len(row) for row in block})
        if len(widths) > 1:
            raise ValueError(f"expected rows of one width, got widths {widths}")
        shape = (len(block), widths[0] if block else 0)
        flat = list(chain.from_iterable(block))
    if not shape[0]:
        return
    width = shape[1]
    if not width:
        raise ValueError(f"expected at least one column, got shape {shape}")
    step = max(1, _CHUNK_VALUES // width) * width
    for start in range(0, len(flat), step):
        values = flat[start:start + step]
        dump = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
        text = bytearray(memoryview(dump)[1:])  # a,b,c,d]
        del dump  # orjson's buffer goes before the pass below allocates
        chars = np.frombuffer(text, dtype=np.uint8)
        chars[-1] = _NEWLINE
        chars[np.flatnonzero(chars == _COMMA)[width - 1::width]] = _NEWLINE
        del chars  # the caller gets the chunk with no view on it
        finite = np.isfinite(np.asarray(values, dtype=np.float64))
        if not finite.all():
            # orjson writes each non-finite value as null; repr spells it as
            # Python's float() reads it
            tokens = [repr(float(values[i])).encode() for i in np.flatnonzero(~finite)]
            text = bytearray().join(chain.from_iterable(zip(text.split(b"null"), tokens + [b""])))
        yield text


def write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` as key-sorted JSON indented by one space, newline-terminated.

    The text is streamed to the file as it is encoded: ``json.dumps`` with an
    indent holds every piece of it in one list first, ~4 MB for the
    1860-trace campaign's manifest.
    """
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_trace(directory: Path, trace: BGSTrace) -> dict:
    """Write one trace (its gains as raw little-endian doubles, and a JSON
    sidecar); returns its manifest entry.

    The detuning axis is not written here: :func:`write_manifest` holds it
    once for the trace's power setting.
    """
    directory = Path(directory)
    name = trace_filename(trace.timestamp_index)
    (directory / name).write_bytes(trace.gain.astype("<f8").tobytes())

    sidecar = {
        "temperature_k": float(trace.temperature),
        "pump_w": float(trace.drive.pump_power),
        "probe_w": float(trace.drive.stokes_power),
        "length_m": float(trace.drive.fiber_length),
        "pump_frequency_hz": float(trace.drive.pump_omega / TWO_PI),
        "seed": int(trace.seed),
        "timestamp_index": int(trace.timestamp_index),
        "setting_index": int(trace.setting_index),
    }
    write_json(directory / (name[:-4] + ".json"), sidecar)
    entry = {"file": name}
    entry.update(sidecar)
    return entry


def _floats(tokens, source) -> np.ndarray:
    """The strings ``tokens`` as the doubles ``float()`` reads, or one
    ValueError naming ``source`` and the first token ``float()`` refuses,
    counted from 1."""
    try:
        return np.array([float(token) for token in tokens], dtype=np.float64)
    except ValueError:
        for pos, token in enumerate(tokens, 1):
            try:
                float(token)
            except ValueError:
                raise ValueError(f"{source}: value {pos}, {token.strip()!r}, "
                                 f"is not a number") from None
        raise


def _columns(path: Path):
    """(detuning [Hz], gain) arrays of a v1 trace CSV, read line by line,
    each column by :func:`_floats`, or (None, gain) of a ``.f64`` trace,
    whose gain is a read-only view of the file's bytes."""
    if path.suffix == ".f64":
        data = path.read_bytes()
        if len(data) % 8:
            raise ValueError(f"{path} holds {len(data)} bytes, not a whole number of "
                             f"8-byte doubles")
        return None, np.frombuffer(data, "<f8")
    raw = path.read_text(encoding="utf-8").strip().splitlines()
    head = raw[0].strip() if raw else ""
    if head == "gain_w":
        raise ValueError(f"{path}: header 'gain_w' opens a gain-only CSV of tlsphonon-bgs-v2, "
                         f"which is no longer read; re-run synth with the manifest's config")
    if head != V1_TRACE_HEADER:
        raise ValueError(f"{path}: expected header {V1_TRACE_HEADER!r}")
    rows = raw[1:]
    for pos, line in enumerate(rows, 1):
        if line.count(",") != 1:
            raise ValueError(f"{path}: row {pos}, {line.strip()!r}, is not two values")
    det, gain = zip(*(line.split(",") for line in rows)) if rows else ((), ())
    return _floats(det, f"{path}, column detuning_hz"), _floats(gain, f"{path}, column gain_w")


def _axis_text(axis_hz: np.ndarray) -> str:
    """An axis as the manifest holds it: one row of :func:`format_rows`,
    so in the digits a v1 CSV's detuning column holds, comma-separated."""
    return b"".join(format_rows(axis_hz.reshape(1, -1))).decode()[:-1] if len(axis_hz) else ""


def write_manifest(directory: Path, entries: List[dict], traces: List[BGSTrace],
                   config_doc: dict, config_hash: str, version: str) -> None:
    """Write ``manifest.json``: the ``entries`` :func:`write_trace` returned
    for ``traces``, and the detuning axis of each power setting, in Hz.

    Every trace of a setting must share that axis, since its file holds only
    the gain.
    """
    axes = {}
    for trace in traces:
        grid = axes.setdefault(trace.setting_index, trace.detuning_grid)
        if grid is not trace.detuning_grid and not np.array_equal(grid, trace.detuning_grid):
            raise ValueError(f"the traces of power setting {trace.setting_index} have more "
                             f"than one detuning axis")
    doc = {
        "format": FORMAT,
        "version": version,
        "config_sha256": config_hash,
        "config": config_doc,
        AXES_KEY: {str(setting): _axis_text(grid / TWO_PI) for setting, grid in axes.items()},
        "traces": entries,
    }
    write_json(Path(directory) / "manifest.json", doc)


def _axis_array(axis, source: str) -> np.ndarray:
    """A manifest axis, a string of comma-separated numbers, as a read-only
    float array, or one ValueError naming ``source`` and, in a string, the
    first value that is not a number (see :func:`_floats`). A blank string
    is the empty axis."""
    if not isinstance(axis, str):
        raise ValueError(f"{source} is not a string of comma-separated numbers")
    array = _floats(axis.split(",") if axis.strip() else [], source)
    array.flags.writeable = False
    return array


def read_manifest(directory: Path) -> dict:
    """The parsed ``manifest.json`` of a dataset, each of its detuning axes
    turned into a read-only array as soon as it is parsed, so no axis is held
    as a list of Python floats. An axis :func:`_axis_array` refuses is held
    as its ValueError, for :func:`load_dataset` to record for each trace of
    its power setting."""
    path = Path(directory) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no manifest.json in {directory}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    traces = require_key(doc, "traces", path)
    if not isinstance(traces, list):
        raise ValueError(f"{path}: key 'traces' must be a list, got {type(traces).__name__}")
    axes = doc.get(AXES_KEY, {})
    if not isinstance(axes, dict):
        raise ValueError(f"{path}: key {AXES_KEY!r} must be an object, got "
                         f"{type(axes).__name__}")
    for setting, axis in axes.items():
        try:
            axes[setting] = _axis_array(
                axis, f"the manifest's detuning axis for power setting {setting}")
        except ValueError as exc:
            axes[setting] = exc
    return doc


def _index(entry: dict, key: str, bits: int) -> int:
    """A manifest entry's ``key``, 0 when absent, as an integer in
    [0, 2**``bits``), as :func:`~tlsphonon.config.is_integer` reads one."""
    value = entry.get(key, 0)
    if not (is_integer(value) and 0 <= value < 2 ** bits):
        raise ValueError(f"{key} must be an integer in [0, 2**{bits}), got {value!r}")
    return int(value)


def load_dataset(directory: Path, manifest: Optional[dict] = None) -> List[tuple]:
    """All traces of a dataset as (entry, trace-or-None, labelled error-or-None).

    ``manifest`` is the dataset's :func:`read_manifest` doc, read here when
    not given. A ``.f64`` trace is on its power setting's manifest axis, a
    v1 trace on its own, and each setting's grid is the one most of its
    loaded traces are on (the earliest on a tie). A corrupted trace, every
    trace of a setting whose manifest axis is missing or refused, and a trace
    off its setting's grid are surfaced rather than fatal; the caller decides
    how many failures the run tolerates.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = read_manifest(directory)
    # the grid table: an axis's bytes in Hz, -0.0 as 0.0, to (those bytes, its
    # read-only grid [rad/s]); a vote holds the table's key, not a copy
    grids = {}

    def grid_of(axis_hz: np.ndarray) -> tuple:
        key = (axis_hz + 0.0).tobytes()
        if key not in grids:
            with np.errstate(over="ignore"):  # past ~2.9e307 Hz: inf, which BGSTrace refuses
                grid = axis_hz * TWO_PI
            grid.flags.writeable = False
            grids[key] = key, grid
        return grids[key]

    # each setting's (key, grid), or the ValueError that refused its axis
    axes = {setting: axis if isinstance(axis, ValueError) else grid_of(axis)
            for setting, axis in manifest.get(AXES_KEY, {}).items()}
    out, votes = [], {}  # votes: the position of each trace loaded -> (setting, grid key)
    for pos, entry in enumerate(manifest["traces"]):
        try:
            path = directory / entry["file"]
            det, gain = _columns(path)
            setting, timestamp, seed = (_index(entry, key, bits) for key, bits in (
                ("setting_index", 63), ("timestamp_index", 63), ("seed", 64)))
            if det is not None:
                key, grid = grid_of(det)
            else:
                axis = axes.get(str(setting))
                if axis is None:
                    raise ValueError(f"{path} holds gains only, and the manifest has no "
                                     f"detuning axis for power setting {setting}")
                if isinstance(axis, ValueError):
                    raise ValueError(str(axis))
                key, grid = axis
                if len(grid) != len(gain):
                    raise ValueError(f"{path} holds {len(gain)} gain samples, and the detuning "
                                     f"axis of power setting {setting} has {len(grid)}")
            drive = OpticalDrive(
                pump_power=entry["pump_w"],
                stokes_power=entry["probe_w"],
                pump_omega=entry["pump_frequency_hz"] * TWO_PI,
                fiber_length=entry["length_m"],
            )
            trace = BGSTrace(
                temperature=entry["temperature_k"],
                detuning_grid=grid,
                gain=gain,
                drive=drive,
                seed=seed,
                timestamp_index=timestamp,
                setting_index=setting,
            )
        except Exception as exc:
            label = (f"trace {entry['file']}" if isinstance(entry, dict) and "file" in entry
                     else f"manifest entry {pos}")
            out.append((entry, None, f"{label}: {type(exc).__name__}: {exc}"))
        else:
            out.append((entry, trace, None))
            votes[pos] = (setting, key)
    counts = Counter(votes.values())
    majority = {}
    for setting, key in votes.values():  # manifest order: a tie keeps the earliest
        if counts[setting, key] > counts[setting, majority.get(setting)]:
            majority[setting] = key
    for pos, (setting, key) in votes.items():
        if key != majority[setting]:
            entry = out[pos][0]
            out[pos] = (entry, None, f"trace {entry['file']}: ValueError: detuning grid differs "
                                     f"from the one shared by most traces of power setting "
                                     f"{setting}")
    return out
