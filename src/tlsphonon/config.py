"""Run configuration: JSON schema, presets, and deterministic hashing.

A run is fully described by one JSON document -- material, ensemble, the
critical-intensity source, the sweep plan, and the base seed. No state
comes from the environment or the wall clock, so identical configs produce
identical outputs. Frequencies in config files and all emitted files are
ordinary Hz; the conversion to angular frequency happens exactly once here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import jsonschema

from .bloch import RelaxationTimes
from .constants import EV, TWO_PI
from .synth import DEFAULT_POINTS, DEFAULT_SPAN_FWHM, ForwardModel, SweepPlan
from .tls_core import MaterialParams, TLSEnsemble, get_preset, preset_names

_MATERIAL_SCHEMA = {
    "type": "object",
    "properties": {
        "rho_kg_m3": {"type": "number", "exclusiveMinimum": 0},
        "v_l_m_s": {"type": "number", "exclusiveMinimum": 0},
        "v_t_m_s": {"type": "number", "exclusiveMinimum": 0},
        "n_eff": {"type": "number", "exclusiveMinimum": 0},
        "g_b_ref_w_m": {"type": "number", "exclusiveMinimum": 0},
        "gamma_ref_hz": {"type": "number", "exclusiveMinimum": 0},
        "a_eff_m2": {"type": "number", "exclusiveMinimum": 0},
        "l_fut_m": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["rho_kg_m3", "v_l_m_s", "v_t_m_s", "n_eff",
                 "g_b_ref_w_m", "a_eff_m2", "l_fut_m"],
    "additionalProperties": False,
}

_ENSEMBLE_SCHEMA = {
    "type": "object",
    "properties": {
        "p_per_j_m3": {"type": "number", "exclusiveMinimum": 0},
        "gamma_l_ev": {"type": "number", "exclusiveMinimum": 0},
        "gamma_t_ev": {"type": "number", "exclusiveMinimum": 0},
        "jc_power_law": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "properties": {
                        "a_w_m2": {"type": "number", "exclusiveMinimum": 0},
                        "b": {"type": "number"},
                    },
                    "required": ["a_w_m2", "b"],
                    "additionalProperties": False,
                },
            ]
        },
        "gamma_bg_hz": {"type": "number", "minimum": 0},
    },
    "required": ["p_per_j_m3", "gamma_l_ev"],
    "additionalProperties": False,
}

_JC_SOURCE_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"type": {"const": "power-law"}},
            "required": ["type"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "times"},
                "t1_s": {"type": "number", "exclusiveMinimum": 0},
                "t2_s": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["type", "t1_s", "t2_s"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "explicit"},
                "jc_w_m2": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["type", "jc_w_m2"],
            "additionalProperties": False,
        },
    ]
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "material": {"oneOf": [{"type": "string"}, _MATERIAL_SCHEMA]},
        "ensemble": {"oneOf": [{"type": "string"}, _ENSEMBLE_SCHEMA]},
        "jc_source": _JC_SOURCE_SCHEMA,
        "seed": {"type": "integer", "minimum": 0},
        "synth": {
            "type": "object",
            "properties": {
                "t_start_k": {"type": "number", "exclusiveMinimum": 0},
                "t_end_k": {"type": "number", "exclusiveMinimum": 0},
                "traces_per_100mk": {"type": "integer", "minimum": 1},
                "power_settings_w": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "items": {"type": "number", "minimum": 0},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
                "noise_sigma_w": {"type": "number", "minimum": 0},
                "detuning_points": {"type": "integer", "minimum": 7},
                "detuning_span_fwhm": {"type": "number", "exclusiveMinimum": 0},
                "pump_wavelength_m": {"type": "number", "exclusiveMinimum": 0},
                "center_drift": {"type": "boolean"},
            },
            "required": ["t_start_k", "t_end_k", "traces_per_100mk",
                         "power_settings_w", "noise_sigma_w"],
            "additionalProperties": False,
        },
        "fit": {
            "type": "object",
            "properties": {
                "bin_width_k": {"type": "number", "exclusiveMinimum": 0},
                "shared_p_gamma2": {"type": "boolean"},
                "t0_k": {"type": "number", "exclusiveMinimum": 0},
                "weighted": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
    },
    "required": ["material", "ensemble", "jc_source", "seed"],
    "additionalProperties": False,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with resolved physics objects."""

    material: MaterialParams
    ensemble: TLSEnsemble
    times: Optional[RelaxationTimes]
    j_c_explicit: Optional[float]
    seed: int
    raw: dict  # the canonical JSON document this config came from

    @property
    def sha256(self) -> str:
        return config_sha256(self.raw)

    def synth_section(self) -> dict:
        return self.raw.get("synth", {})

    def fit_section(self) -> dict:
        return self.raw.get("fit", {})

    def forward_model(self) -> ForwardModel:
        synth = self.synth_section()
        drift_ref = None
        if synth.get("center_drift", True) and "t_start_k" in synth:
            drift_ref = float(synth["t_start_k"])
        return ForwardModel(
            material=self.material,
            ensemble=self.ensemble,
            times=self.times,
            j_c_explicit=self.j_c_explicit,
            pump_wavelength=float(synth.get("pump_wavelength_m", ForwardModel.pump_wavelength)),
            drift_reference_k=drift_ref,
        )

    def sweep_plan(self) -> SweepPlan:
        synth = self.synth_section()
        if not synth:
            raise ValueError("config has no 'synth' section")
        return SweepPlan(
            t_start=float(synth["t_start_k"]),
            t_end=float(synth["t_end_k"]),
            traces_per_100mk=int(synth["traces_per_100mk"]),
            power_settings=[tuple(map(float, ps)) for ps in synth["power_settings_w"]],
            noise_sigma=float(synth["noise_sigma_w"]),
            model=self.forward_model(),
            base_seed=self.seed,
            detuning_points=int(synth.get("detuning_points", DEFAULT_POINTS)),
            detuning_span=float(synth.get("detuning_span_fwhm", DEFAULT_SPAN_FWHM)),
        )


def _material_from_doc(doc) -> MaterialParams:
    if isinstance(doc, str):
        return get_preset(doc)[0]
    return MaterialParams(
        rho=doc["rho_kg_m3"],
        v_l=doc["v_l_m_s"],
        v_t=doc["v_t_m_s"],
        n_eff=doc["n_eff"],
        g_b_ref=doc["g_b_ref_w_m"],
        a_eff=doc["a_eff_m2"],
        l_fut=doc["l_fut_m"],
        gamma_ref=TWO_PI * doc.get("gamma_ref_hz", 30e6),
    )


def _ensemble_from_doc(doc) -> TLSEnsemble:
    if isinstance(doc, str):
        return get_preset(doc)[1]
    power_law = doc.get("jc_power_law")
    if power_law is not None:
        power_law = (power_law["a_w_m2"], power_law["b"])
    gamma_t = doc.get("gamma_t_ev")
    return TLSEnsemble(
        p=doc["p_per_j_m3"],
        gamma_l=doc["gamma_l_ev"] * EV,
        gamma_t=gamma_t * EV if gamma_t is not None else None,
        jc_power_law=power_law,
        gamma_bg=TWO_PI * doc.get("gamma_bg_hz", 0.0),
    )


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document and resolve presets into physics objects."""
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ValueError(f"invalid config: {exc.message} (at {list(exc.absolute_path)})") from exc

    for key in ("material", "ensemble"):
        if isinstance(doc[key], str) and doc[key] not in preset_names():
            raise ValueError(
                f"unknown {key} preset {doc[key]!r}; available: {preset_names()}"
            )

    material = _material_from_doc(doc["material"])
    ensemble = _ensemble_from_doc(doc["ensemble"])

    source = doc["jc_source"]
    times = None
    j_c_explicit = None
    if source["type"] == "times":
        times = RelaxationTimes(t1=source["t1_s"], t2=source["t2_s"])
    elif source["type"] == "explicit":
        j_c_explicit = float(source["jc_w_m2"])
    elif ensemble.jc_power_law is None:
        raise ValueError("jc_source is 'power-law' but the ensemble has no power law")

    synth = doc.get("synth")
    if synth is not None and not synth["t_start_k"] < synth["t_end_k"]:
        raise ValueError("synth.t_start_k must be below synth.t_end_k")

    return RunConfig(
        material=material,
        ensemble=ensemble,
        times=times,
        j_c_explicit=j_c_explicit,
        seed=int(doc["seed"]),
        raw=doc,
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_config(doc)


def canonical_json(doc: dict) -> str:
    """Key-sorted, whitespace-free JSON; the hashing and on-disk form."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_sha256(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
