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

The row codec makes one flat pass each way. :func:`format_rows` dumps a
table's row-major values as flat orjson lists of a few whole rows each,
appended to one buffer, and turns every width-th comma into a newline with
one numpy pass over each chunk. Reading back, a manifest axis is one orjson
list, and a v1 CSV is read line by line.

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
import math
import re
from collections import Counter
from contextlib import suppress
from itertools import chain
from pathlib import Path
from typing import List, Optional

import numpy as np
import orjson

from .config import is_integer, require_key
from .constants import TWO_PI
from .sbs import OpticalDrive
from .synth import BGSTrace

FORMAT = "tlsphonon-bgs-v3"
AXES_KEY = "detuning_axes_hz"
V1_TRACE_HEADER = "detuning_hz,gain_w"
# the bytes of JSON numbers, of the commas between them and of JSON's whitespace
_NUMBER_LIST_BYTES = b"0123456789.eE+-, \t\r\n"
# JSON reads the integer -0 as +0, where float() keeps the sign; an exponent
# -0 (1e-0), which format_rows never writes, is refused with it
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?![.\deE])")
_COMMA, _NEWLINE = b",\n"
# values per orjson dump in format_rows. A dump's bytes keep orjson's whole
# buffer, ~16 kB for 512 values (~10 kB of text) and ~64 kB for 1024, so a
# chunk stays small beside a large table's text
_CHUNK_VALUES = 512


def trace_filename(index: int) -> str:
    return f"trace_{index:05d}.f64"


def _token(value) -> bytes:
    # repr spells NaN and +-inf as Python's float() reads them; JSON has no such numbers
    if math.isfinite(value):
        return orjson.dumps(value, option=orjson.OPT_SERIALIZE_NUMPY)
    return repr(float(value)).encode()


def format_rows(rows) -> bytearray:
    """CSV rows of a 2-D float matrix, or of a list of rows of Python (or
    numpy scalar) ints and floats, each value in its shortest round-trip form.

    The digits are those of ``repr``, written by orjson's C serializer;
    exponents are unpadded (``1e-7``, ``1e16``) and values in [1e-5, 1e-4)
    are positional (``0.00003``). Ints in a list stay ints (``3``). NaN and
    +-inf are written ``nan``, ``inf`` and ``-inf``, never JSON's ``null``.
    Rows must share one width of at least one value.

    The row-major values are dumped as flat orjson lists of whole rows,
    ~``_CHUNK_VALUES`` values each, straight into the one buffer returned;
    one numpy pass over each chunk turns every width-th comma, and the
    closing bracket, into a newline. No copy of the whole text is made, so
    the peak memory is under twice the output.
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
        return bytearray()
    width = shape[1]
    if not width:
        raise ValueError(f"expected at least one column, got shape {shape}")
    step = max(1, _CHUNK_VALUES // width) * width
    text = bytearray()
    for start in range(0, len(flat), step):
        at = len(text)
        dump = orjson.dumps(flat[start:start + step], option=orjson.OPT_SERIALIZE_NUMPY)
        text += memoryview(dump)[1:]  # a,b,c,d]
        del dump  # orjson's buffer goes before the pass below allocates
        chars = np.frombuffer(text, dtype=np.uint8, offset=at)
        chars[-1] = _NEWLINE
        chars[np.flatnonzero(chars == _COMMA)[width - 1::width]] = _NEWLINE
        del chars  # a bytearray with a view on it cannot grow
    if len(bad):
        lines = text.split(b"\n")  # the last is the empty one after the final newline
        for i in bad:
            lines[i] = b",".join(map(_token, block[i]))
        text = bytearray(b"\n").join(lines)
    return text


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


def _json_numbers(text: bytes) -> Optional[list]:
    """``text`` as one orjson list; None unless each comma-separated token is
    a JSON number in the double range other than the integer ``-0``."""
    if not text.translate(None, _NUMBER_LIST_BYTES) and not _INTEGER_MINUS_ZERO.search(text):
        with suppress(ValueError):  # not JSON, or a number past the double range
            return orjson.loads(b"[%b]" % text)
    return None


def _number_list(text: bytes, source) -> np.ndarray:
    """The comma-separated numbers of ``text`` as the doubles ``float()``
    reads, or one ValueError naming ``source`` and the first token that is
    not a JSON number in the double range (``1.``, ``.5``, ``+2``, ``nan``,
    an empty token) or is the integer ``-0``."""
    values = _json_numbers(text)
    if values is None:
        pos, token = next((pos, token) for pos, token in enumerate(text.split(b","), 1)
                          if len(_json_numbers(token) or ()) != 1)
        raise ValueError(f"{source}: value {pos}, {token.strip().decode(errors='replace')!r}, "
                         f"is not a JSON number in the double range other than the integer -0")
    return np.array(values, dtype=np.float64)


def _columns(path: Path):
    """(detuning [Hz], gain) arrays of a v1 trace CSV, read line by line and
    taking any number ``float()`` reads, or (None, gain) of a ``.f64``
    trace, whose gain is a read-only view of the file's bytes."""
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
    cells = [line.split(",") for line in raw[1:]]
    return np.array([float(a) for a, _ in cells]), np.array([float(b) for _, b in cells])


def _axis_text(axis_hz: np.ndarray) -> str:
    """An axis as the manifest holds it: the values a v1 CSV's detuning
    column holds, in the same digits, comma-separated."""
    return format_rows(axis_hz.reshape(-1, 1)).decode().rstrip("\n").replace("\n", ",")


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
    first value that is not a number (see :func:`_number_list`)."""
    if not isinstance(axis, str):
        raise ValueError(f"{source} is not a string of comma-separated numbers")
    array = _number_list(axis.encode(), source)
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
