"""Config validation, dataset round trips, CLI subcommands, determinism."""

import copy
import dataclasses
import hashlib
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tlsphonon
from tlsphonon.cli import MAX_GRID_ROWS, MODEL_COLUMNS, main, parse_grid, CliError
from tlsphonon.config import (
    canonical_json,
    config_sha256,
    load_config,
    parse_config,
)
from tlsphonon.constants import TWO_PI
from tlsphonon.dataset import (_parse_lines, _parse_rows, format_rows, load_dataset,
                               read_manifest, read_trace, write_manifest, write_spectrum,
                               write_trace)
from tlsphonon.dissipation import decay_length, jc_t1t2, q_factor, total_linewidth
from tlsphonon.pipeline import TABLE_COLUMNS, run_fit_pipeline
from tlsphonon.synth import bin_traces, synth_sweep
from tlsphonon.tls_core import DriveState, PhononMode


def base_doc(**overrides):
    doc = {
        "material": "ge-doped-silica-44wt",
        "ensemble": "ge-doped-silica-44wt",
        "jc_source": {"type": "power-law"},
        "seed": 42,
        "synth": {
            "t_start_k": 1.1,
            "t_end_k": 1.5,
            "traces_per_100mk": 2,
            "power_settings_w": [
                [0.035, 2.1e-2], [0.035, 5.5e-3], [0.035, 1.5e-3],
                [0.035, 4.0e-4], [0.035, 1.0e-4], [0.035, 2.8e-5],
            ],
            "noise_sigma_w": 0.0,
        },
        "fit": {"shared_p_gamma2": True},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def src_env():
    """The environment with this checkout's package first on PYTHONPATH, for
    commands run in a child process."""
    src = str(Path(tlsphonon.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


INLINE_MATERIAL = {
    "rho_kg_m3": 2666.0, "v_l_m_s": 4760.0, "v_t_m_s": 3092.0,
    "n_eff": 1.495, "g_b_ref_w_m": 0.6, "gamma_ref_hz": 30e6,
    "a_eff_m2": 1.6e-12, "l_fut_m": 0.022,
}
INLINE_ENSEMBLE = {"p_per_j_m3": 2.49e45, "gamma_l_ev": 0.5, "gamma_t_ev": 0.35,
                   "jc_power_law": {"a_w_m2": 0.9, "b": 2.6}, "gamma_bg_hz": 650e3}
DELETE = object()


def edited(doc, path, value):
    """``doc`` with the value at key path ``path`` replaced (or deleted)."""
    doc = copy.deepcopy(doc)
    *parents, key = path
    target = doc
    for part in parents:
        target = target[part]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    return doc


JC_SOURCES = {
    "power-law": {"type": "power-law"},
    "times": {"type": "times", "t1_s": 1e-7, "t2_s": 1e-9},
    "explicit": {"type": "explicit", "jc_w_m2": 4.0},
}


def jc_law(kind, material, ensemble):
    """The (a, b) of J_c = a T^b that a ``jc_source`` of type ``kind`` defines."""
    if kind == "times":
        return jc_t1t2(material, ensemble, "L") / (1e-7 * 1e-9), 0.0
    return {"power-law": (0.9, 2.6), "explicit": (4.0, 0.0)}[kind]


def report_references(text: str) -> dict:
    """The reference column of a report table, keyed by the row name's first word."""
    lines = text.splitlines()[2:]
    return {line.split()[0].split("(")[0]: line.split()[-1] for line in lines}


# (key path, new value, message pattern): every document parse_config rejects
REJECTED = {
    "unknown-top-key": (("bogus",), 1, "invalid config: config has unknown key 'bogus'"),
    "unknown-material-key": (("material",), {**INLINE_MATERIAL, "bogus": 1},
                             "material has unknown key 'bogus'"),
    "unknown-synth-key": (("synth", "bogus"), 1, "synth has unknown key 'bogus'"),
    "unknown-fit-key": (("fit", "bogus"), 1, "fit has unknown key 'bogus'"),
    "unknown-jc_source-key": (("jc_source", "bogus"), 1, "jc_source has unknown key"),
    "missing-seed": (("seed",), DELETE, "invalid config: config is missing key 'seed'"),
    "times-missing-t2_s": (("jc_source",), {"type": "times", "t1_s": 1e-7},
                           "jc_source is missing key 't2_s'"),
    "string-number": (("synth", "noise_sigma_w"), "0",
                      "synth.noise_sigma_w must be a number, got '0'"),
    "bool-number": (("synth", "t_start_k"), True, "synth.t_start_k must be a number, got True"),
    "fractional-seed": (("seed",), 1.5, "seed must be an integer, got 1.5"),
    "synth-list": (("synth",), [], "synth must be an object, got \\[\\]"),
    "unknown-source-type": (("jc_source", "type"), "bogus", "jc_source must be an object of type"),
    "power-triple": (("synth", "power_settings_w", 0), [0.035, 0.01, 0.0], "pair"),
    "power-negative": (("synth", "power_settings_w", 0), [0.035, -0.01],
                       "optical powers must be finite and >= 0"),
    "zero-span": (("synth", "detuning_span_fwhm"), 0, "detuning_span must be finite and > 0"),
    "t_end-at-t_start": (("synth", "t_end_k"), 1.1, "need t_start < t_end"),
    "negative-seed": (("seed",), -1, "seed must be >= 0, got -1"),
    "negative-explicit-j_c": (("jc_source",), {"type": "explicit", "jc_w_m2": -1},
                              "jc_power_law_a must be finite and > 0, got -1"),
    "negative-bin-width": (("fit", "bin_width_k"), -1, "fit.bin_width_k must be finite and > 0"),
    "integer-weighted": (("fit", "weighted"), 1, "fit.weighted must be true or false, got 1"),
}

# every optional synth and fit key, and the optional material/ensemble keys inline
FULL_DOC = base_doc(material=INLINE_MATERIAL, ensemble=INLINE_ENSEMBLE)
FULL_DOC["synth"].update(detuning_points=51, detuning_span_fwhm=8.0,
                         pump_wavelength_m=1.55e-6, center_drift=True)
FULL_DOC["fit"].update(bin_width_k=0.2, t0_k=1.2, weighted=True)

ACCEPTED = {
    "base": base_doc(),
    "inline-material-and-ensemble": FULL_DOC,
    "times": base_doc(jc_source=JC_SOURCES["times"]),
    "explicit": base_doc(jc_source=JC_SOURCES["explicit"]),
    "no-center-drift": edited(base_doc(), ("synth", "center_drift"), False),
    "no-synth-no-fit": edited(edited(base_doc(), ("synth",), DELETE), ("fit",), DELETE),
    "no-power-law": base_doc(ensemble={**INLINE_ENSEMBLE, "jc_power_law": None},
                             jc_source={"type": "times", "t1_s": 1e-7, "t2_s": 1e-9}),
    "integral-float-integers": edited(edited(FULL_DOC, ("synth", "traces_per_100mk"), 2.0),
                                      ("synth", "detuning_points"), 51.0),
}


class TestConfig:
    def test_presets_resolve(self):
        config = parse_config(base_doc())
        assert config.material.rho == 2666.0
        assert config.ensemble.jc_power_law == (0.9, 2.6)
        assert config.seed == 42

    @pytest.mark.parametrize("case", REJECTED)
    def test_rejected_at_parse(self, case, tmp_path, capsys):
        path, value, message = REJECTED[case]
        doc = edited(base_doc(), path, value)
        with pytest.raises(ValueError, match=message) as exc:
            parse_config(doc)
        assert "\n" not in str(exc.value)
        assert main(["model", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "model"), "--grid", "T=1.1,J=1,f=9e9"]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("case", ACCEPTED)
    def test_accepted_at_parse(self, case):
        config = parse_config(ACCEPTED[case])
        if "synth" in config.raw:
            plan = config.sweep_plan()
            assert plan.model == config.forward_model() and plan.rung_temperatures()
        if case == "integral-float-integers":  # the same plan as FULL_DOC's 2 and 51
            assert plan == parse_config(FULL_DOC).sweep_plan()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            parse_config(base_doc(material="unobtainium"))

    def test_power_law_source_needs_power_law(self):
        doc = base_doc(ensemble={"p_per_j_m3": 2.49e45, "gamma_l_ev": 0.5,
                                 "gamma_bg_hz": 650e3, "jc_power_law": None})
        with pytest.raises(ValueError, match="power law"):
            parse_config(doc)

    def test_explicit_times_source(self):
        # T1 T2 replaces the preset ensemble's own power law (0.9, 2.6)
        config = parse_config(base_doc(jc_source=JC_SOURCES["times"]))
        assert (config.times.t1, config.times.t2) == (1e-7, 1e-9)
        assert config.ensemble.jc_power_law == jc_law("times", config.material,
                                                      config.ensemble)

    def test_inline_material_units(self):
        doc = base_doc(material=INLINE_MATERIAL)
        config = parse_config(doc)
        assert config.material.gamma_ref == pytest.approx(TWO_PI * 30e6)

    def test_fit_defaults_fill_the_section_but_not_raw(self):
        doc = base_doc()
        del doc["fit"]
        config = parse_config(doc)
        assert config.fit_section() == {"bin_width_k": 0.1, "shared_p_gamma2": True,
                                        "weighted": False}
        assert "fit" not in config.raw and config.sha256 == config_sha256(doc)
        doc["fit"] = {"weighted": True, "t0_k": 1.2}
        assert parse_config(doc).fit_section() == {"bin_width_k": 0.1, "shared_p_gamma2": True,
                                                   "weighted": True, "t0_k": 1.2}

    def test_hash_is_order_insensitive(self):
        doc = base_doc()
        shuffled = json.loads(canonical_json(dict(reversed(list(doc.items())))))
        assert config_sha256(doc) == config_sha256(shuffled)


class TestDataset:
    def test_trace_round_trip(self, tmp_path, ge_doped):
        config = parse_config(base_doc())
        traces = synth_sweep(config.sweep_plan())
        entry = write_trace(tmp_path, traces[0])
        back = read_trace(tmp_path, entry)
        assert np.allclose(back.detuning_grid, traces[0].detuning_grid, rtol=1e-15)
        assert np.array_equal(back.gain, traces[0].gain)
        assert back.temperature == traces[0].temperature
        assert back.peak_intensity == traces[0].peak_intensity
        for column in (back.detuning_grid, back.gain):  # owned, not views of a parse buffer
            assert column.base is None and column.flags.c_contiguous

    def test_header_enforced(self, tmp_path):
        config = parse_config(base_doc())
        traces = synth_sweep(config.sweep_plan())
        entry = write_trace(tmp_path, traces[0])
        path = tmp_path / entry["file"]
        path.write_text("wrongheader\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_trace(tmp_path, entry)

    def test_traces_of_one_axis_share_one_read_only_grid(self, workspace):
        _, _, data = workspace
        loaded = load_dataset(data)
        assert [err for _, _, err in loaded] == [None] * 48
        grid = loaded[0][1].detuning_grid
        assert all(trace.detuning_grid is grid for _, trace, _ in loaded)
        assert not grid.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 0.0

    def test_sign_of_a_zero_sample_keeps_a_trace_on_grid(self, tmp_path):
        # bytes that differ only in -0.0 are two grid objects of one axis
        [trace] = synth_sweep(parse_config(base_doc()).sweep_plan())[:1]
        axis_hz = np.arange(len(trace.gain), dtype=float) - 200.0
        signed = axis_hz.copy()
        signed[200] = -0.0
        traces = [dataclasses.replace(trace, detuning_grid=axis * TWO_PI, timestamp_index=i)
                  for i, axis in enumerate((axis_hz, signed, axis_hz))]
        write_manifest(tmp_path, [write_trace(tmp_path, tr) for tr in traces], {}, "", "")
        loaded = load_dataset(tmp_path)
        assert [err for _, _, err in loaded] == [None] * 3
        grids = [tr.detuning_grid for _, tr, _ in loaded]
        assert grids[0] is grids[2] and grids[1] is not grids[0]
        assert np.signbit(grids[1][200]) and not np.signbit(grids[0][200])
        [(_, averaged, n)] = bin_traces([tr for _, tr, _ in loaded], 0.1)
        assert n == 3 and averaged.detuning_grid is grids[0]

    def test_truncated_axis_is_off_grid(self, workspace, tmp_path):
        _, _, data = workspace
        broken = tmp_path / "broken"
        shutil.copytree(data, broken)
        victim = read_manifest(broken)["traces"][3]
        path = broken / victim["file"]
        path.write_text("".join(f"{line}\n" for line in path.read_text().splitlines()[:-1]))
        errors = [err for _, _, err in load_dataset(broken) if err is not None]
        assert errors == [f"trace {victim['file']}: ValueError: detuning grid differs from the "
                          f"one shared by most traces of power setting "
                          f"{victim['setting_index']}"]

    def test_load_holds_one_grid_per_axis(self, tmp_path):
        # a grid per trace, and a byte copy of each for the off-grid vote, put
        # the peak over 3x the gain bytes; one grid per axis keeps it under 2x
        doc = base_doc()
        doc["synth"]["traces_per_100mk"] = 6
        data = tmp_path / "data"
        assert main(["synth", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(data)]) == 0
        tracemalloc.start()
        try:
            loaded = load_dataset(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gain_bytes = sum(trace.gain.nbytes for _, trace, _ in loaded)
        assert len(loaded) == 144 and peak < 2.0 * gain_bytes


ENTRY = {"file": "spectrum.csv", "temperature_k": 1.2, "pump_w": 0.035, "probe_w": 0.001,
         "length_m": 100.0, "pump_frequency_hz": 1.94e14}
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EXTREMES = np.array([-0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308])


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def nested_json_rows(rows) -> bytes:
    """format_rows' layout as one nested JSON dump spells it, ``[[a,b],[c,d]]``
    with ``],[`` made a newline and JSON's ``null`` respelled: the reference
    the flat writer must match byte for byte."""
    block = rows if isinstance(rows, np.ndarray) else [list(row) for row in rows]
    if not len(block):
        return b""
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]
    lines = []
    for line, row in zip(text.split(b"],["), block):
        lines.append(b",".join(tok if tok != b"null" else repr(float(v)).encode()
                               for tok, v in zip(line.split(b","), row)))
    return b"\n".join(lines) + b"\n"


# bodies of trace CSVs over the bytes format_rows writes for finite values:
# its own layout, lines of one to three tokens, and bytes at random
ROW_ALPHABET = "0123456789.eE+-, \n"
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: orjson.dumps(v).decode()),
    st.integers(-2 ** 70, 2 ** 70).map(str),
)
TOKENS = st.one_of(NUMBERS, st.text(alphabet="0123456789.eE+- ", max_size=6))
ROW_BODIES = st.one_of(
    st.lists(st.tuples(NUMBERS, NUMBERS).map(",".join), max_size=6).map("\n".join),
    st.lists(st.lists(TOKENS, min_size=1, max_size=3).map(",".join), max_size=6)
    .map("\n".join),
    st.text(alphabet=ROW_ALPHABET, max_size=40),
)


class TestRowCodec:
    """format_rows writes shortest round-trip rows; read_trace reads every v1 layout."""

    @given(gain=hnp.arrays(np.float64, st.integers(1, 40), elements=FINITE),
           det=hnp.arrays(np.float64, st.integers(1, 40),
                          elements=st.floats(0.0, 1e300, exclude_min=True)))
    @example(gain=EXTREMES, det=np.array([5e-324, 1e-310, 1.0, 2.0]))
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_is_bitwise(self, tmp_path, gain, det):
        det = np.unique(det)[:len(gain)]
        gain = gain[:len(det)]
        assume(np.all(np.diff(det * TWO_PI) > 0.0))  # the increasing grid a trace demands
        write_spectrum(tmp_path / ENTRY["file"], det, gain)
        back = read_trace(tmp_path, ENTRY)
        assert np.array_equal(bits(back.gain), bits(gain))
        assert np.array_equal(bits(back.detuning_grid), bits(det * TWO_PI))

    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(1, 4)),
                      elements=st.floats()))
    @example(np.array([[np.nan, 1.0], [np.inf, -np.inf], [1e-7, 1e16]]))
    def test_rows_read_back_by_float(self, matrix):
        text = format_rows(matrix).decode()
        assert "null" not in text
        rows = [[float(v) for v in line.split(",")] for line in text.splitlines()]
        back = np.array(rows).reshape(matrix.shape)
        finite = np.isfinite(matrix)
        assert np.array_equal(bits(back[finite]), bits(matrix[finite]))
        assert np.array_equal(np.isnan(back), np.isnan(matrix))
        assert np.array_equal(back[np.isinf(matrix)], matrix[np.isinf(matrix)])

    def test_non_finite_tokens(self):
        rows = format_rows(np.array([[np.nan, 1e-7], [np.inf, -np.inf], [2.5, -0.0]]))
        assert rows == b"nan,1e-7\ninf,-inf\n2.5,-0.0\n"
        # rows of Python and numpy scalars take the same tokens and keep their ints
        rows = format_rows([[3, 1e-5, np.float64(2.5)], [0, np.nan, -np.inf]])
        assert rows == b"3,0.00001,2.5\n0,nan,-inf\n"

    @given(matrix=hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 12)),
                             elements=st.floats()))
    @example(matrix=np.arange(33.0).reshape(3, 11) / 7)  # model.csv's width
    @example(matrix=np.array([[1.0, np.nan], [np.inf, 2.0], [3.0, 4.0]]))
    def test_matrix_rows_match_nested_json(self, matrix):
        assert format_rows(matrix) == nested_json_rows(matrix)
        # a strided view is written as its values
        assert format_rows(np.asfortranarray(matrix)) == nested_json_rows(matrix)

    @given(st.integers(1, 12).flatmap(lambda width: st.lists(
        st.lists(st.one_of(st.integers(-2 ** 63, 2 ** 64 - 1), st.floats(),
                           st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                           st.floats().map(np.float64)),
                 min_size=width, max_size=width),
        min_size=1, max_size=8)))
    def test_list_rows_match_nested_json(self, rows):
        assert format_rows(rows) == nested_json_rows(rows)

    @pytest.mark.parametrize("rows, shape", [
        (np.zeros((3, 0)), r"shape \(3, 0\)"),
        ([[]], r"shape \(1, 0\)"),
        ([[1.0, 2.0], [3.0]], r"widths \[1, 2\]"),
        (np.zeros(4), r"shape \(4,\)"),
    ], ids=["no-columns", "empty-row", "ragged", "one-dimensional"])
    def test_shapeless_rows_are_rejected(self, rows, shape):
        with pytest.raises(ValueError, match=shape):
            format_rows(rows)

    @given(ROW_BODIES)
    @example("1,2\n3,4")
    @example(" 1 ,2\n-0.0,18446744073709551617 \n")
    @example("1,2,3\n4")
    @example("1\n2,3,4")
    @settings(max_examples=300)
    def test_flat_reader_agrees_with_line_reader(self, body):
        data = f"detuning_hz,gain_w\n{body}".encode()
        rows = _parse_rows(data)
        if rows is None:
            return
        det, gain = _parse_lines(data.decode(), Path("spectrum.csv"))
        assert rows.shape == (len(det), 2)
        assert np.array_equal(bits(rows[:, 0]), bits(det))
        assert np.array_equal(bits(rows[:, 1]), bits(gain))

    def test_empty_spectrum_is_header_only(self, tmp_path):
        write_spectrum(tmp_path / "empty.csv", np.array([]), np.array([]))
        assert (tmp_path / "empty.csv").read_bytes() == b"detuning_hz,gain_w\n"

    @pytest.mark.parametrize("body", [
        # repr's layout, as written before the codec: padded exponents
        "-1e+16,1e-05\n-0.0,-0.0\n1e-05,9.99e-05\n1e+16,1.7976931348623157e+308\n",
        # tokens float() takes and JSON does not
        "1.,.5\n+2,-0\n1e5,7\n",
        # whitespace, CRLF and blank lines around the rows
        " -2.5 , 3 \r\n4,5e-324\r\n\n\n",
        # integers, which JSON reads as ints: -0 must keep its sign
        "1,-0\n2,3\n18446744073709551616,-9223372036854775809\n",
    ], ids=["repr-layout", "non-json-tokens", "whitespace", "integers"])
    def test_reads_every_v1_layout(self, tmp_path, body):
        (tmp_path / ENTRY["file"]).write_bytes(f"detuning_hz,gain_w\n{body}".encode())
        back = read_trace(tmp_path, ENTRY)
        want = np.array([[float(v) for v in line.split(",")]
                         for line in body.strip().splitlines() if line.strip()])
        assert np.array_equal(bits(back.detuning_grid), bits(want[:, 0] * TWO_PI))
        assert np.array_equal(bits(back.gain), bits(want[:, 1]))

    @pytest.mark.parametrize("body, message", [
        ("1,2\n\n3,4\n", "not enough values to unpack"),
        ("1,2,3\n", "too many values to unpack"),
        ("1,null\n", "could not convert string to float: 'null'"),
        ('1,"2"\n', "could not convert string to float: '\"2\"'"),
        ("1,2\n3\n", "not enough values to unpack"),
        # the right number of values, laid out raggedly
        ("1,2,3\n4\n", "too many values to unpack"),
        ("1\n2,3,4\n", "not enough values to unpack"),
        ("1,1e400\n", "gain samples must be finite"),
        ("1,nan\n", "gain samples must be finite"),
    ], ids=["blank-line", "three-columns", "null", "quoted", "one-column", "ragged-3-1",
            "ragged-1-3", "overflow", "nan"])
    def test_damaged_rows_keep_their_errors(self, tmp_path, body, message):
        (tmp_path / ENTRY["file"]).write_text(f"detuning_hz,gain_w\n{body}")
        with pytest.raises(ValueError, match=message):
            read_trace(tmp_path, ENTRY)


class TestGridParsing:
    def test_single_values_and_ranges(self):
        dims = parse_grid("T=1.1:4.2:4,J=1e-2:1e2:5:log,f=9.188e9")
        assert len(dims["T"]) == 4 and len(dims["J"]) == 5 and len(dims["f"]) == 1
        assert dims["J"][0] == pytest.approx(1e-2)
        assert dims["J"][-1] == pytest.approx(1e2)

    def test_rejections(self):
        with pytest.raises(CliError):
            parse_grid("")
        with pytest.raises(CliError):
            parse_grid("T=1:2:3")  # missing J and f
        with pytest.raises(CliError):
            parse_grid("T=0:4:3,J=1,f=9e9")  # nonpositive temperature
        with pytest.raises(CliError):
            parse_grid("T=1:4:3,J=-1,f=9e9")
        with pytest.raises(CliError):
            parse_grid("T=1:4:0,J=1,f=9e9")
        # counted before any axis is allocated
        with pytest.raises(CliError, match=f"^grid has 4002000 points, more than {MAX_GRID_ROWS}$"):
            parse_grid("T=1:4:2000,J=1:2:2001,f=9e9")
        for spec, message in [
            ("T=1,J=1,f", "grid dimension 'f' is not name=values"),
            ("T=1:4,J=1,f=9e9", "grid dimension 'T': expected value or lo:hi:n[:log]"),
            ("T=1,J=1:2:3:lin,f=9e9", "grid dimension J: unknown modifier 'lin'"),
            ("T=1,J=0:2:3:log,f=9e9", "grid dimension J: log spacing needs positive bounds"),
            ("T=1,J=1,f=-9e9", "grid frequencies must be positive"),
        ]:
            with pytest.raises(CliError) as exc:
                parse_grid(spec)
            assert str(exc.value) == message


class TestCliModel:
    def test_single_point_matches_library(self, tmp_path, ge_doped):
        material, ensemble = ge_doped
        config_path = write_config(tmp_path, base_doc())
        out = tmp_path / "model"
        assert main(["model", "--config", str(config_path), "--out", str(out),
                     "--grid", "T=1.1,J=3.3,f=9.188e9"]) == 0
        lines = (out / "model.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# tlsphonon")  # traceability stamp
        lines = lines[1:]
        assert len(lines) == 2
        row = dict(zip(lines[0].split(","), [float(v) for v in lines[1].split(",")]))
        mode = PhononMode.in_material(material, TWO_PI * 9.188e9, "L")
        drive = DriveState(temperature=1.1, intensity=3.3, drive_omega=mode.omega)
        bd = total_linewidth(mode, drive, material, ensemble,
                             j_c=ensemble.j_c_from_power_law(1.1))
        assert row["gamma_total_hz"] == bd.total / TWO_PI
        assert row["gamma_res_hz"] == bd.gamma_res / TWO_PI
        assert row["j_c_w_m2"] == ensemble.j_c_from_power_law(1.1)

    @pytest.mark.parametrize("jc_source", JC_SOURCES.values(), ids=list(JC_SOURCES))
    def test_grid_matches_pointwise_library(self, tmp_path, jc_source):
        # the grid is evaluated as arrays; each row must agree with a scalar
        # call at its grid point up to last-digit rounding (array and scalar
        # transcendental kernels can differ by an ulp)
        doc = base_doc(jc_source=jc_source)
        doc["fit"]["t0_k"] = 1.6  # nonzero shift column
        config = parse_config(doc)
        spec = "T=1.1:4.2:5,J=1e-2:1e2:4:log,f=9.0e9:9.4e9:2"
        out = tmp_path / "model"
        assert main(["model", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out), "--grid", spec]) == 0
        lines = [ln for ln in (out / "model.csv").read_text().strip().splitlines()
                 if not ln.startswith("#")]
        assert lines[0].split(",") == list(MODEL_COLUMNS)
        got = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])

        dims = parse_grid(spec)
        want = []
        for f, t, j in itertools.product(dims["f"], dims["T"], dims["J"]):
            t, j, f = float(t), float(j), float(f)
            mode = PhononMode.in_material(config.material, TWO_PI * f, "L")
            j_c = config.forward_model().j_c(t)
            bd = total_linewidth(mode, DriveState(temperature=t, intensity=j,
                                                  drive_omega=mode.omega),
                                 config.material, config.ensemble, j_c=j_c, t_ref=1.6)
            want.append((t, j, f, j_c, bd.gamma_res / TWO_PI, bd.gamma_rel / TWO_PI,
                         bd.gamma_bg / TWO_PI, bd.total / TWO_PI,
                         bd.freq_shift_res / TWO_PI, q_factor(mode.omega, bd.total),
                         decay_length(bd.total, config.material, "L")))
        want = np.array(want)
        assert got.shape == want.shape == (5 * 4 * 2, len(MODEL_COLUMNS))
        assert np.count_nonzero(want[:, MODEL_COLUMNS.index("freq_shift_hz")]) > 0
        assert np.array_equal(got[:, :3], want[:, :3])  # grid order
        tol = 1e-13 * np.max(np.abs(want), axis=0)
        assert np.all(np.abs(got - want) <= tol)

    def test_intensity_scan_is_monotone(self, tmp_path):
        config_path = write_config(tmp_path, base_doc())
        out = tmp_path / "model"
        assert main(["model", "--config", str(config_path), "--out", str(out),
                     "--grid", "T=1.15:4.15:3,J=1e-2:1e2:9:log,f=9.188e9"]) == 0
        lines = [ln for ln in (out / "model.csv").read_text().strip().splitlines()
                 if not ln.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
        for t in {r["temperature_k"] for r in rows}:
            gammas = [r["gamma_total_hz"] for r in rows
                      if r["temperature_k"] == t]
            assert all(a > b for a, b in zip(gammas, gammas[1:]))

    @pytest.mark.parametrize("grid", ["T=0:1:2,J=1,f=1",
                                      "T=nan:4.2:3,J=1e-2:1e2:3:log,f=9.188e9",
                                      "T=1.1:4.2:3,J=1,f=9e9,F=1e9",
                                      "T=1.1,T=2.0,J=1,f=9e9",
                                      "T=1.1:4.2:10000000000000,J=1,f=9.188e9"],
                             ids=["zero-temperature", "nan-temperature", "unknown-dimension",
                                  "repeated-dimension", "oversized"])
    def test_bad_grid_exit_code(self, tmp_path, capsys, grid):
        config_path = write_config(tmp_path, base_doc())
        assert main(["model", "--config", str(config_path),
                     "--out", str(tmp_path / "x"), "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def _shift_one_grid_value(lines):
    # a quarter step toward the next sample keeps the grid increasing
    f_hz, gain = lines[5].split(",")
    nxt = float(lines[6].split(",")[0])
    return lines[:5] + [f"{(3.0 * float(f_hz) + nxt) / 4.0!r},{gain}"] + lines[6:]


# ways to damage one trace file, as edits of its lines (header included)
TRACE_FAULTS = {
    "truncated": lambda lines: lines[:-1],
    "shifted-grid": _shift_one_grid_value,
    "nan-gain": lambda lines: lines[:5] + [lines[5].split(",")[0] + ",nan"] + lines[6:],
    "duplicate-row": lambda lines: lines[:6] + lines[5:],
    "swapped-rows": lambda lines: lines[:5] + [lines[6], lines[5]] + lines[7:],
    "empty": lambda lines: [],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    doc = base_doc()
    doc["synth"]["noise_sigma_w"] = 2e-10
    config_path = write_config(tmp, doc)
    data = tmp / "data"
    assert main(["synth", "--config", str(config_path), "--out", str(data)]) == 0
    return tmp, config_path, data


class TestCliSynthFit:
    def test_synth_outputs(self, workspace):
        tmp, config_path, data = workspace
        manifest = read_manifest(data)
        n = len(manifest["traces"])
        assert n == 4 * 6 * 2  # rungs x settings x repeats
        assert manifest["config_sha256"] == load_config(config_path).sha256
        csvs = sorted(data.glob("trace_*.csv"))
        assert len(csvs) == n
        first = csvs[0].read_text().splitlines()
        assert first[0] == "detuning_hz,gain_w"

    def test_synth_rerun_is_byte_identical(self, workspace, tmp_path):
        tmp, config_path, data = workspace
        again = tmp_path / "again"
        assert main(["synth", "--config", str(config_path), "--out", str(again)]) == 0
        assert tree_digest(again) == tree_digest(data)

    def test_seed_override_changes_bytes(self, workspace, tmp_path):
        tmp, config_path, data = workspace
        other = tmp_path / "other"
        assert main(["synth", "--config", str(config_path), "--out", str(other),
                     "--seed", "43"]) == 0
        assert tree_digest(other) != tree_digest(data)

    def test_fit_closed_loop(self, workspace, tmp_path, ge_doped):
        material, ensemble = ge_doped
        tmp, config_path, data = workspace
        out = tmp_path / "fit"
        assert main(["fit", str(data), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        glob = report["global"]
        truth = ensemble.p * ensemble.gamma_l ** 2
        assert abs(glob["p_gamma2_j_m3"] / truth - 1.0) < 5e-3
        assert abs(glob["a_w_m2"] / 0.9 - 1.0) < 0.05
        assert abs(glob["b"] - 2.6) < 0.1
        for row in report["per_temperature"]:
            jc_true = ensemble.j_c_from_power_law(row["temperature_k"])
            assert abs(row["j_c_w_m2"] / jc_true - 1.0) < 0.02
        # intermediates present
        assert (out / "per_bin.csv").exists()
        assert (out / "per_temperature.csv").exists()
        assert (out / "freq_shift.csv").exists()
        assert sorted((out / "binned").glob("*.csv"))
        # report subcommand renders every comparison row
        assert main(["report", "--out", str(out)]) == 0

    def test_report_tables_read_back_bit_for_bit(self, workspace, tmp_path):
        # the tables share format_rows' layout with every other CSV, so each
        # cell reads back as its report.json value and the counts stay ints
        tmp, config_path, data = workspace
        out = tmp_path / "fit"
        assert main(["fit", str(data), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for table, columns in TABLE_COLUMNS.items():
            assert report[table]
            lines = (out / f"{table}.csv").read_bytes().splitlines(keepends=True)
            assert lines[0].startswith(b"# tlsphonon ")
            assert lines[1].decode().strip().split(",") == list(columns)
            rows = [[row[c] for c in columns] for row in report[table]]
            assert b"".join(lines[2:]) == format_rows(rows)
            for line, row in zip(lines[2:], rows):
                for cell, value in zip(line.decode().strip().split(","), row):
                    if isinstance(value, int):
                        assert cell == str(value)
                    else:
                        assert bits(float(cell)) == bits(value)
        ints = {c for c, v in report["per_bin"][0].items() if isinstance(v, int)}
        assert ints == {"setting_index", "n_traces"}

    def test_fit_config_option(self, workspace, tmp_path):
        # --config with the synth config fits as the manifest's copy does; a
        # config that unshares P*gamma^2 changes the report
        tmp, config_path, data = workspace
        assert main(["fit", str(data), "--out", str(tmp_path / "manifest")]) == 0
        assert main(["fit", str(data), "--config", str(config_path),
                     "--out", str(tmp_path / "option")]) == 0
        assert tree_digest(tmp_path / "manifest") == tree_digest(tmp_path / "option")
        doc = json.loads(config_path.read_text())
        doc["fit"]["shared_p_gamma2"] = False
        unshared = write_config(tmp_path, doc)
        assert main(["fit", str(data), "--config", str(unshared),
                     "--out", str(tmp_path / "unshared")]) == 0
        shared_rows, unshared_rows = (
            json.loads((tmp_path / name / "report.json").read_text())["per_temperature"]
            for name in ("manifest", "unshared"))
        assert len({row["p_gamma2_j_m3"] for row in shared_rows}) == 1
        assert len({row["p_gamma2_j_m3"] for row in unshared_rows}) == len(unshared_rows) > 1

    def test_fit_rerun_identical(self, workspace, tmp_path):
        tmp, config_path, data = workspace
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        assert main(["fit", str(data), "--out", str(out1)]) == 0
        assert main(["fit", str(data), "--out", str(out2)]) == 0
        assert tree_digest(out1) == tree_digest(out2)

    def test_corrupted_trace_is_flagged_not_fatal(self, workspace, tmp_path):
        tmp, config_path, data = workspace
        broken = tmp_path / "broken"
        shutil.copytree(data, broken)
        victim = sorted(broken.glob("trace_*.csv"))[3]
        victim.write_text("detuning_hz,gain_w\nnot,a,number\n")
        out = tmp_path / "fitbroken"
        assert main(["fit", str(broken), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert any(victim.name in err for err in report["errors"])
        assert report["per_temperature"]  # pipeline still completed

    # ways to damage one manifest entry; an entry without a file is named by position
    ENTRY_FAULTS = ["missing-pump_w", "nan-pump_w", "missing-file", "not-an-object"]

    @pytest.mark.parametrize("fault", [*TRACE_FAULTS, *ENTRY_FAULTS])
    def test_damaged_trace_is_recorded_and_skipped(self, workspace, tmp_path, capsys, fault):
        tmp, config_path, data = workspace
        broken = tmp_path / "broken"
        shutil.copytree(data, broken)
        manifest = read_manifest(broken)
        victim = manifest["traces"][3]
        label = f"trace {victim['file']}"
        if fault in self.ENTRY_FAULTS:
            if fault == "missing-pump_w":
                del victim["pump_w"]
            elif fault == "nan-pump_w":
                victim["pump_w"] = float("nan")  # json writes the literal NaN
            elif fault == "missing-file":
                del victim["file"]
                label = "manifest entry 3"
            else:
                manifest["traces"][3] = 7
                label = "manifest entry 3"
            (broken / "manifest.json").write_text(json.dumps(manifest))
        else:
            path = broken / victim["file"]
            lines = TRACE_FAULTS[fault](path.read_text().splitlines())
            path.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "fit"
        capsys.readouterr()
        assert main(["fit", str(broken), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["errors"]) == 1 and report["errors"][0].startswith(f"{label}: ")
        assert capsys.readouterr().err.count("warning: ") == 1
        assert report["per_temperature"]

    @staticmethod
    def _fit_without(data, tmp_path, settings, shift_hz=None):
        """Fit a copy of ``data`` in which the traces of ``settings`` are left
        out of the manifest or, given ``shift_hz``, have their detuning axis
        shifted by it; returns the exit code and the report."""
        broken = tmp_path / "broken"
        shutil.copytree(data, broken)
        manifest = read_manifest(broken)
        victims = [e for e in manifest["traces"] if e["setting_index"] in settings]
        if shift_hz is None:
            manifest["traces"] = [e for e in manifest["traces"] if e not in victims]
            (broken / "manifest.json").write_text(json.dumps(manifest))
        else:
            for entry in victims:
                path = broken / entry["file"]
                header, *lines = path.read_text().splitlines()
                rows = (line.split(",") for line in lines)
                path.write_text("".join(f"{line}\n" for line in [header, *(
                    f"{float(f_hz) + shift_hz!r},{gain}" for f_hz, gain in rows)]))
        code = main(["fit", str(broken), "--out", str(tmp_path / "fit")])
        return code, json.loads((tmp_path / "fit" / "report.json").read_text())

    @pytest.mark.parametrize("missing", [(2,), (2, 4)], ids=["one", "two"])
    def test_missing_power_setting(self, workspace, tmp_path, capsys, missing):
        # the manifest lists none of a setting's traces: nothing to record, and
        # the saturation stage runs as long as five settings reach each bin
        tmp, config_path, data = workspace
        capsys.readouterr()
        code, report = self._fit_without(data, tmp_path, missing)
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        assert report["errors"] == []
        assert {row["setting_index"] for row in report["per_bin"]} == (
            set(range(6)) - set(missing))
        if len(missing) == 1:
            assert len(report["per_temperature"]) == 4  # every bin of the ladder
        else:
            assert report["per_temperature"] == []
            assert any("saturation stage skipped" in n for n in report["notes"])

    def test_negative_detuning_axis_is_recorded_per_unit(self, workspace, tmp_path, capsys):
        # a setting whose axis was shifted through zero fits a line center < 0:
        # each of its units is one recorded error, and every table is what the
        # fit writes without that setting
        tmp, config_path, data = workspace
        capsys.readouterr()
        code, report = self._fit_without(data, tmp_path / "shifted", (2,), shift_hz=-100e9)
        assert code == 0
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("warning: ") == 4
        assert len(report["errors"]) == 4
        for center, error in zip((1.15, 1.25, 1.35, 1.45), report["errors"]):
            assert error.startswith(f"bin {center:.3f} K setting 2: fitted line center -")
            assert error.endswith(" Hz is not > 0")
        _, without = self._fit_without(data, tmp_path / "without", (2,))
        for key in ("per_bin", "per_temperature", "freq_shift", "global"):
            assert report[key] == without[key]

    @pytest.mark.parametrize("pump_w, warns", [(0.035, False), (1.0, True)])
    def test_weak_signal_warning(self, tmp_path, capsys, pump_w, warns):
        # the check reads only t_start and the pump powers, which base_doc
        # shares with the README config; 1 W pushes g_B*P_p*L past the level
        doc = base_doc()
        doc["synth"]["traces_per_100mk"] = 1
        doc["synth"]["power_settings_w"] = [[pump_w, 2.1e-2], [pump_w, 1.0e-4]]
        out = tmp_path / "data"
        assert main(["synth", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert ("weak-signal model is marginal" in err) is warns
        if warns:
            assert "power setting 0" in err and "power setting 1" in err

    @pytest.mark.parametrize("command", ["synth", "fit"])
    def test_parallel_option_removed(self, tmp_path, capsys, command):
        target = ["--config", "c.json"] if command == "synth" else ["data"]
        with pytest.raises(SystemExit) as exc:
            main([command, *target, "--out", str(tmp_path), "--parallel", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --parallel" in capsys.readouterr().err

    def test_no_command_loads_scipy(self, workspace, tmp_path):
        # Importing scipy.special, scipy.optimize or scipy.integrate costs
        # ~0.3 s each, and no command needs any scipy module: the fits have
        # their own solver, the frequency shift its own digamma, and only the
        # quadrature of tlsphonon.oracles integrates, so no command loads that
        # module either. The commands cover each path that reaches the
        # digamma or skips it: a model grid without and one with fit.t0_k, a
        # synth without and one with center drift, report, and fit on the
        # drifting dataset. config checks keys and types itself, so nothing
        # loads jsonschema either.
        tmp, config_path, data = workspace
        assert main(["fit", str(data), "--out", str(tmp_path / "fit")]) == 0
        steady = tmp_path / "steady.json"
        steady.write_text(json.dumps(edited(base_doc(), ("synth", "center_drift"), False)))
        drifting = tmp_path / "drifting.json"
        drifting.write_text(json.dumps(edited(base_doc(), ("fit", "t0_k"), 1.1)))
        script = (
            "import json, sys\n"
            "from tlsphonon.cli import main\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.partition('.')[0] in ('scipy', 'jsonschema')\n"
            "                  or m == 'tlsphonon.oracles')\n"
            "seen = [['import', loaded()]]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0\n"
            "    seen.append([argv[0], loaded()])\n"
            "print(json.dumps(seen))\n"
        )
        grid = ["--grid", "T=1.1:4.2:3,J=1e-2:1e2:3:log,f=9.188e9"]
        commands = [
            ["model", "--config", str(config_path), "--out", str(tmp_path / "model"), *grid],
            ["model", "--config", str(drifting), "--out", str(tmp_path / "shift"), *grid],
            ["synth", "--config", str(steady), "--out", str(tmp_path / "steady")],
            ["report", "--out", str(tmp_path / "fit")],
            ["synth", "--config", str(config_path), "--out", str(tmp_path / "data")],
            ["fit", str(tmp_path / "data"), "--out", str(tmp_path / "refit")],
        ]
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == [["import", []], ["model", []], ["model", []], ["synth", []],
                        ["report", []], ["synth", []], ["fit", []]]

    def test_report_requires_fit(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert "report.json" in capsys.readouterr().err


def limit_memory():
    """Cap a child's address space at 1.5 GB, so a run that tries to allocate
    a huge campaign fails fast instead of taking the machine's memory."""
    limit = 1536 * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("kind", JC_SOURCES)
class TestJcSource:
    """Each source is one law J_c = a T^b for the model, synth and the report."""

    def test_j_c_is_the_source_law(self, kind):
        config = parse_config(base_doc(jc_source=JC_SOURCES[kind]))
        a, b = jc_law(kind, config.material, config.ensemble)
        assert config.ensemble.jc_power_law == (a, b)
        model = config.forward_model()
        t = np.array([1.15, 2.0, 4.15])
        want = a * t ** b if b else np.full_like(t, a)  # a constant law is J_c itself
        assert np.array_equal(bits(model.j_c(t)), bits(want))
        assert bits(model.j_c(1.15)) == bits(want[0])

    def test_report_references_the_source_law(self, kind, tmp_path, capsys):
        doc = base_doc(jc_source=JC_SOURCES[kind])
        config = parse_config(doc)
        data, out = tmp_path / "data", tmp_path / "fit"
        assert main(["synth", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(data)]) == 0
        assert main(["fit", str(data), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout == (out / "report.txt").read_text()
        t_low = json.loads((out / "report.json").read_text())["per_temperature"][0][
            "temperature_k"]
        a, b = jc_law(kind, config.material, config.ensemble)
        refs = report_references(stdout)
        assert (refs["J_c"], refs["a"], refs["b"]) == (
            f"{a * t_low ** b:.4g}", f"{a:.4g}", f"{b:.4g}")


class TestFitStageNotes:
    """A stage that cannot run is a note; the fit still exits 0 with every table."""

    @pytest.mark.parametrize("t_end, fit, note", [
        (1.3, {}, "too few temperature bins for power-law / decomposition stages"),
        (1.6, {"t0_k": 5.0},
         "frequency-shift stage failed: fits do not span the reference temperature 5.0 K"),
    ], ids=["two-rungs", "t0-outside-the-ladder"])
    def test_note_keeps_the_other_tables(self, tmp_path, capsys, t_end, fit, note):
        doc = base_doc()
        doc["synth"]["t_end_k"] = t_end
        doc["fit"].update(fit)
        data, out = tmp_path / "data", tmp_path / "fit"
        assert main(["synth", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(data)]) == 0
        assert main(["fit", str(data), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert note in report["notes"]
        assert report["per_bin"] and report["per_temperature"]
        assert bool(report["freq_shift"]) == ("t0_k" not in fit)
        assert ("a_w_m2" in report["global"]) == ("t0_k" in fit)
        for table in TABLE_COLUMNS:
            assert len((out / f"{table}.csv").read_text().splitlines()) == (
                2 + len(report[table]))
        assert (out / "report.txt").read_text()
        assert "error" not in capsys.readouterr().err


class TestFailureContract:
    @pytest.mark.parametrize("setting, value, message", [
        (("power_settings_w", 0), [float("nan"), 0.01], "optical powers must be finite"),
        (("noise_sigma_w",), float("nan"), "noise_sigma must be finite and >= 0, got nan"),
        (("t_end_k",), float("inf"), "t_end must be finite and > 0, got inf"),
        (("t_end_k",), 1e9, "the ladder has 9999999989 rungs, more than 10000"),
        (("traces_per_100mk",), 1e7, "the campaign has 240000000 traces, more than 1000000"),
        (("detuning_points",), 1e9,
         "the campaign has 48000000000 samples, more than 100000000"),
    ], ids=["power", "noise", "t_end-inf", "t_end-1e9", "traces-1e7", "points-1e9"])
    def test_nan_power_setting_is_a_config_error(self, tmp_path, setting, value, message):
        # json reads the literals NaN and Infinity; a range check has to reject
        # them. A finite value too large to run is rejected as quickly: the
        # child runs under a time and a memory limit, so a campaign that starts
        # anyway fails the test rather than filling the machine.
        doc = edited(base_doc(), ("synth", *setting), value)
        config_path = write_config(tmp_path, doc)
        text = config_path.read_text()
        assert ("NaN" in text or "Infinity" in text) == (not np.all(np.isfinite(value)))
        proc = subprocess.run(
            [sys.executable, "-m", "tlsphonon.cli", "synth", "--config", str(config_path),
             "--out", str(tmp_path / "data")],
            env=src_env(), capture_output=True, text=True, timeout=10,
            preexec_fn=limit_memory)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("case", ["synth-out-is-a-file", "model-config-is-a-directory",
                                      "fit-out-under-a-file"])
    def test_os_error_is_one_error_line(self, tmp_path, capsys, case):
        config_path = write_config(tmp_path, base_doc())
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        if case == "synth-out-is-a-file":
            argv = ["synth", "--config", str(config_path), "--out", str(blocker)]
        elif case == "model-config-is-a-directory":
            argv = ["model", "--config", str(tmp_path), "--out", str(tmp_path / "model"),
                    "--grid", "T=1.1:4.2:3,J=1e-2:1e2:3:log,f=9.188e9"]
        else:
            assert main(["synth", "--config", str(config_path),
                         "--out", str(tmp_path / "data")]) == 0
            capsys.readouterr()
            argv = ["fit", str(tmp_path / "data"), "--out", str(blocker / "sub")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # the values of the first per-temperature row that the report table shows
    ROW_KEYS = ("temperature_k", "j_c_w_m2", "t1_t2_s2", "t1_s", "t2_s")

    # manifests whose traces are not a list
    TRACES_NOT_A_LIST = {"manifest-traces-null": None, "manifest-traces-string": "abc",
                         "manifest-traces-object": {}}

    @pytest.mark.parametrize("case", ["report-without-config", "manifest-without-traces",
                                      "manifest-without-config", *TRACES_NOT_A_LIST,
                                      *(f"report-row-without-{key}" for key in ROW_KEYS)])
    def test_missing_json_key_names_file_and_key(self, tmp_path, capsys, case):
        if case == "report-without-config":
            (tmp_path / "report.json").write_text(json.dumps({"per_temperature": []}))
            argv, name, key = ["report", "--out", str(tmp_path)], "report.json", "config"
        elif case.startswith("report-row-without-"):
            key = case.removeprefix("report-row-without-")
            row = {k: 1e-8 for k in self.ROW_KEYS if k != key}
            (tmp_path / "report.json").write_text(json.dumps(
                {"config": base_doc(), "per_temperature": [row]}))
            argv, name = ["report", "--out", str(tmp_path)], "report.json"
        elif case in self.TRACES_NOT_A_LIST:
            (tmp_path / "manifest.json").write_text(json.dumps(
                {"config": base_doc(), "traces": self.TRACES_NOT_A_LIST[case]}))
            key = "traces"
            argv, name = ["fit", str(tmp_path), "--out", str(tmp_path / "fit")], "manifest.json"
        else:
            doc = ({"config": base_doc()} if case == "manifest-without-traces"
                   else {"traces": []})
            (tmp_path / "manifest.json").write_text(json.dumps(doc))
            key = "traces" if case == "manifest-without-traces" else "config"
            argv, name = ["fit", str(tmp_path), "--out", str(tmp_path / "fit")], "manifest.json"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err and repr(key) in err

    def test_majority_bin_failure_exits_nonzero(self, tmp_path, capsys):
        doc = base_doc()
        doc["synth"]["power_settings_w"] = [[0.0, 0.0]]  # flat traces
        doc["synth"]["noise_sigma_w"] = 0.0
        config_path = write_config(tmp_path, doc)
        data = tmp_path / "data"
        assert main(["synth", "--config", str(config_path), "--out", str(data)]) == 0
        out = tmp_path / "fit"
        assert main(["fit", str(data), "--out", str(out)]) == 1
        assert "fit units failed" in capsys.readouterr().err

    def test_unreadable_dataset_has_no_fit_units(self, workspace, tmp_path, capsys):
        # every trace fails to load: one warning each, and the error names
        # the load failures rather than a share of no fit units
        tmp, config_path, data = workspace
        broken = tmp_path / "broken"
        shutil.copytree(data, broken)
        for path in broken.glob("trace_*.csv"):
            path.write_text("x,y\n")
        capsys.readouterr()
        assert main(["fit", str(broken), "--out", str(tmp_path / "fit")]) == 1
        *warnings, last = capsys.readouterr().err.splitlines()
        assert len(warnings) == 48 and all(w.startswith("warning: trace ") for w in warnings)
        assert last == "error: no fit units: 48 of 48 traces failed to load"
        result = run_fit_pipeline([], parse_config(base_doc()))
        assert result.n_fit_units == 0 and result.failure_fraction == 1.0

    @pytest.mark.parametrize("case", ["synth-without-synth-section", "fit-without-manifest"])
    def test_missing_input_is_one_error_line(self, tmp_path, capsys, case):
        if case == "synth-without-synth-section":
            doc = base_doc()
            del doc["synth"]
            argv = ["synth", "--config", str(write_config(tmp_path, doc)),
                    "--out", str(tmp_path / "data")]
            message = "config has no 'synth' section"
        else:
            argv = ["fit", str(tmp_path), "--out", str(tmp_path / "fit")]
            message = f"no manifest.json in {tmp_path}"
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_noise_only_traces_fail_every_unit(self, tmp_path, capsys):
        # no signal at all: each bin's fit is one noise spike, not a line
        doc = base_doc(seed=7)
        doc["synth"].update(t_end_k=1.3, traces_per_100mk=10,
                            power_settings_w=[[1e-30, 1e-30]], noise_sigma_w=2e-10)
        config_path = write_config(tmp_path, doc)
        data, out = tmp_path / "data", tmp_path / "fit"
        assert main(["synth", "--config", str(config_path), "--out", str(data)]) == 0
        assert main(["fit", str(data), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["per_bin"] == [] and len(report["errors"]) == 2
        assert all("narrower than the detuning step" in e for e in report["errors"])
        assert "2/2 fit units failed" in capsys.readouterr().err


class TestPipelineOptions:
    def test_per_bin_coupling_mode(self, ge_doped):
        doc = base_doc()
        doc["fit"]["shared_p_gamma2"] = False
        config = parse_config(doc)
        traces = synth_sweep(config.sweep_plan())
        result = run_fit_pipeline(traces, config)
        truth = config.ensemble.p * config.ensemble.gamma_l ** 2
        for row in result.report["per_temperature"]:
            assert abs(row["p_gamma2_j_m3"] / truth - 1.0) < 1e-3

    def test_per_bin_coupling_skips_a_failed_bin(self):
        # squeezing one bin's intensities below a decade fails only that bin's
        # saturation fit: the bins after it still carry their own modes,
        # and P*gamma^2 is the median over the fitted bins
        import dataclasses
        doc = base_doc()
        doc["fit"]["shared_p_gamma2"] = False
        config = parse_config(doc)
        traces = synth_sweep(config.sweep_plan())
        in_bin = [1.2 < tr.temperature < 1.3 for tr in traces]
        squeezed = [dataclasses.replace(tr, peak_intensity=1.0) if inside else tr
                    for tr, inside in zip(traces, in_bin)]
        report = run_fit_pipeline(squeezed, config).report
        without = run_fit_pipeline([tr for tr, inside in zip(traces, in_bin) if not inside],
                                   config).report
        assert [n for n in report["notes"] if "1.250 K" in n] == [
            "saturation fit at 1.250 K failed: saturation fit needs intensities "
            "spanning at least one decade"]
        assert len(report["per_temperature"]) == 3
        assert report["per_temperature"] == without["per_temperature"]
        assert report["global"] == without["global"]
        assert report["global"]["p_gamma2_j_m3"] == np.median(
            [row["p_gamma2_j_m3"] for row in report["per_temperature"]])

    def test_weighted_mode(self):
        doc = base_doc()
        doc["synth"]["noise_sigma_w"] = 2e-10
        doc["fit"]["weighted"] = True
        config = parse_config(doc)
        traces = synth_sweep(config.sweep_plan())
        result = run_fit_pipeline(traces, config)
        assert result.report["per_temperature"]

    def test_weighted_fit_ignores_the_synth_noise_level(self):
        # weighting uses the Lorentzian linewidth sigmas only, so the synth
        # section's noise level moves no reported number
        doc = base_doc()
        doc["synth"]["noise_sigma_w"] = 2e-10
        doc["fit"]["weighted"] = True
        traces = synth_sweep(parse_config(doc).sweep_plan())
        reports = []
        for noise in (2e-10, 3e-8):
            doc = copy.deepcopy(doc)
            doc["synth"]["noise_sigma_w"] = noise
            report = run_fit_pipeline(traces, parse_config(doc)).report
            reports.append({k: v for k, v in report.items() if k != "config_sha256"})
        assert reports[0]["per_temperature"]
        assert reports[0] == reports[1]

    def test_external_data_intensity_fallback(self, tmp_path):
        # wiping the stored intensities forces the optical-power relation
        # (evaluated with the fitted linewidth) to reassign J; recovery of
        # the generator parameters survives
        import dataclasses
        config = parse_config(base_doc())
        traces = [dataclasses.replace(tr, peak_intensity=0.0)
                  for tr in synth_sweep(config.sweep_plan())]
        result = run_fit_pipeline(traces, config)
        truth = config.ensemble.p * config.ensemble.gamma_l ** 2
        glob = result.report["global"]
        assert abs(glob["p_gamma2_j_m3"] / truth - 1.0) < 1e-3
        for row in result.report["per_temperature"]:
            jc_true = config.ensemble.j_c_from_power_law(row["temperature_k"])
            assert abs(row["j_c_w_m2"] / jc_true - 1.0) < 1e-2

    def test_too_few_settings_skips_saturation(self):
        doc = base_doc()
        doc["synth"]["power_settings_w"] = [[0.035, 5.5e-4]]
        config = parse_config(doc)
        traces = synth_sweep(config.sweep_plan())
        result = run_fit_pipeline(traces, config)
        assert result.report["per_temperature"] == []
        assert any("saturation stage skipped" in n
                   for n in result.report["notes"])
        # frequency-shift comparison still runs off the single setting, and
        # its prediction takes the configured coupling product
        assert result.report["freq_shift"]
        assert "p_gamma2_j_m3" not in result.report["global"]
        doubled = dataclasses.replace(
            config, ensemble=dataclasses.replace(config.ensemble, p=2.0 * config.ensemble.p))
        rows = run_fit_pipeline(traces, doubled).report["freq_shift"]
        for row, row2 in zip(result.report["freq_shift"], rows, strict=True):
            assert row2["predicted_shift_hz"] == pytest.approx(2.0 * row["predicted_shift_hz"],
                                                               rel=1e-12)
