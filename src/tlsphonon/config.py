"""Run configuration: key and type checks, presets, and deterministic hashing.

A run is fully described by one JSON document -- material, ensemble, the
critical-intensity source, the sweep plan, and the base seed. No state
comes from the environment or the wall clock, so identical configs produce
identical outputs. Frequencies in config files and all emitted files are
ordinary Hz and angular inside; each file boundary converts its own: this
module the config's, :mod:`tlsphonon.dataset` a trace's detuning axis and
pump frequency, and the ``fit`` and ``model`` writers their results. Each
range is checked once, by the value type the number goes into; only the
seed and the ``fit`` numbers, which go into none, are checked here.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

from .constants import EV, TWO_PI
from .synth import DEFAULT_POINTS, DEFAULT_SPAN_FWHM, RUNG_STEP_K, ForwardModel, SweepPlan
from .tls_core import MaterialParams, RelaxationTimes, TLSEnsemble, get_preset, preset_names

# (required keys, optional keys) of each object in a config document
_TOP_KEYS = (("material", "ensemble", "jc_source", "seed"), ("synth", "fit"))
_MATERIAL_KEYS = (("rho_kg_m3", "v_l_m_s", "v_t_m_s", "n_eff", "g_b_ref_w_m", "a_eff_m2",
                   "l_fut_m"), ("gamma_ref_hz",))
_ENSEMBLE_KEYS = (("p_per_j_m3", "gamma_l_ev"), ("gamma_t_ev", "jc_power_law", "gamma_bg_hz"))
_POWER_LAW_KEYS = (("a_w_m2", "b"), ())
_JC_SOURCE_KEYS = {
    "power-law": (("type",), ()),
    "times": (("type", "t1_s", "t2_s"), ()),
    "explicit": (("type", "jc_w_m2"), ()),
}
_SYNTH_KEYS = (("t_start_k", "t_end_k", "traces_per_100mk", "power_settings_w",
                "noise_sigma_w"),
               ("detuning_points", "detuning_span_fwhm", "pump_wavelength_m", "center_drift"))
# fit keys' values when omitted; no t0_k anchors the drift at the first bin
FIT_DEFAULTS = {"bin_width_k": RUNG_STEP_K, "shared_p_gamma2": True, "weighted": False}
_FIT_KEYS = ((), (*FIT_DEFAULTS, "t0_k"))


def _invalid(path: str, requirement: str, value) -> ValueError:
    return ValueError(f"invalid config: {path} {requirement}, got {value!r}")


def _section(doc, name: str, keys) -> dict:
    """``doc`` if it is an object with every required key and no other key."""
    required, optional = keys
    if not isinstance(doc, dict):
        raise _invalid(name, "must be an object", doc)
    for key in required:
        if key not in doc:
            raise ValueError(f"invalid config: {name} is missing key {key!r}")
    for key in doc:
        if key not in required and key not in optional:
            raise ValueError(f"invalid config: {name} has unknown key {key!r}")
    return doc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(doc: dict, path: str, default=None):
    """The value of ``doc`` at the last part of dotted key ``path`` (``default``
    when absent), if it is a JSON number; ``_integer`` and ``_boolean`` read
    the same way."""
    value = doc.get(path.rpartition(".")[2], default)
    if not _is_number(value):
        raise _invalid(path, "must be a number", value)
    return value


def _integer(doc: dict, path: str, default=None):
    """An integer; an integral float such as 2.0 counts, as in JSON Schema."""
    value = doc.get(path.rpartition(".")[2], default)
    if not (_is_number(value) and (isinstance(value, int) or value.is_integer())):
        raise _invalid(path, "must be an integer", value)
    return value


def _boolean(doc: dict, path: str, default=None) -> bool:
    value = doc.get(path.rpartition(".")[2], default)
    if not isinstance(value, bool):
        raise _invalid(path, "must be true or false", value)
    return value


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

    def fit_section(self) -> dict:
        """The ``fit`` section, with :data:`FIT_DEFAULTS` for the keys it omits."""
        return {**FIT_DEFAULTS, **self.raw.get("fit", {})}

    def forward_model(self) -> ForwardModel:
        synth = self.raw.get("synth", {})
        drift_ref = None
        if synth and _boolean(synth, "synth.center_drift", True):
            drift_ref = float(_number(synth, "synth.t_start_k"))
        return ForwardModel(
            material=self.material,
            ensemble=self.ensemble,
            times=self.times,
            j_c_explicit=self.j_c_explicit,
            pump_wavelength=float(_number(synth, "synth.pump_wavelength_m",
                                          ForwardModel.pump_wavelength)),
            drift_reference_k=drift_ref,
        )

    def sweep_plan(self) -> SweepPlan:
        synth = self.raw.get("synth", {})
        if not synth:
            raise ValueError("config has no 'synth' section")
        settings = synth["power_settings_w"]
        if not (isinstance(settings, list)
                and all(isinstance(ps, list) and len(ps) == 2 and all(map(_is_number, ps))
                        for ps in settings)):
            raise _invalid("synth.power_settings_w",
                           "must be a list of (pump, Stokes) number pairs", settings)
        return SweepPlan(
            t_start=float(_number(synth, "synth.t_start_k")),
            t_end=float(_number(synth, "synth.t_end_k")),
            traces_per_100mk=int(_integer(synth, "synth.traces_per_100mk")),
            power_settings=[tuple(map(float, ps)) for ps in settings],
            noise_sigma=float(_number(synth, "synth.noise_sigma_w")),
            model=self.forward_model(),
            base_seed=self.seed,
            detuning_points=int(_integer(synth, "synth.detuning_points", DEFAULT_POINTS)),
            detuning_span=float(_number(synth, "synth.detuning_span_fwhm", DEFAULT_SPAN_FWHM)),
        )


def _preset(name: str, key: str):
    if name not in preset_names():
        raise ValueError(f"unknown {key} preset {name!r}; available: {preset_names()}")
    return get_preset(name)


def _material_from_doc(doc) -> MaterialParams:
    if isinstance(doc, str):
        return _preset(doc, "material")[0]
    _section(doc, "material", _MATERIAL_KEYS)
    return MaterialParams(
        rho=_number(doc, "material.rho_kg_m3"),
        v_l=_number(doc, "material.v_l_m_s"),
        v_t=_number(doc, "material.v_t_m_s"),
        n_eff=_number(doc, "material.n_eff"),
        g_b_ref=_number(doc, "material.g_b_ref_w_m"),
        a_eff=_number(doc, "material.a_eff_m2"),
        l_fut=_number(doc, "material.l_fut_m"),
        gamma_ref=TWO_PI * _number(doc, "material.gamma_ref_hz", 30e6),
    )


def _ensemble_from_doc(doc) -> TLSEnsemble:
    if isinstance(doc, str):
        return _preset(doc, "ensemble")[1]
    _section(doc, "ensemble", _ENSEMBLE_KEYS)
    power_law = doc.get("jc_power_law")
    if power_law is not None:
        _section(power_law, "ensemble.jc_power_law", _POWER_LAW_KEYS)
        power_law = (_number(power_law, "ensemble.jc_power_law.a_w_m2"),
                     _number(power_law, "ensemble.jc_power_law.b"))
    return TLSEnsemble(
        p=_number(doc, "ensemble.p_per_j_m3"),
        gamma_l=_number(doc, "ensemble.gamma_l_ev") * EV,
        gamma_t=_number(doc, "ensemble.gamma_t_ev") * EV if "gamma_t_ev" in doc else None,
        jc_power_law=power_law,
        gamma_bg=TWO_PI * _number(doc, "ensemble.gamma_bg_hz", 0.0),
    )


def parse_config(doc: dict) -> RunConfig:
    """Check a config document and resolve presets into physics objects.

    The forward model, and the sweep plan when there is a ``synth``
    section, are built here too, so a bad value fails before any work.
    """
    _section(doc, "config", _TOP_KEYS)
    seed = _integer(doc, "seed")
    if seed < 0:
        raise _invalid("seed", "must be >= 0", seed)
    if "synth" in doc:
        _section(doc["synth"], "synth", _SYNTH_KEYS)
    fit = {**FIT_DEFAULTS, **_section(doc.get("fit", {}), "fit", _FIT_KEYS)}
    for key in ("shared_p_gamma2", "weighted"):
        _boolean(fit, f"fit.{key}")
    for key in ("bin_width_k", "t0_k"):
        if key in fit and not 0.0 < _number(fit, f"fit.{key}") < math.inf:
            raise _invalid(f"fit.{key}", "must be finite and > 0", fit[key])

    source = doc["jc_source"]
    kind = source.get("type") if isinstance(source, dict) else None
    if not isinstance(kind, str) or kind not in _JC_SOURCE_KEYS:
        raise _invalid("jc_source", f"must be an object of type {', '.join(_JC_SOURCE_KEYS)}",
                       source)
    _section(source, "jc_source", _JC_SOURCE_KEYS[kind])
    times = None
    j_c_explicit = None
    if kind == "times":
        times = RelaxationTimes(t1=_number(source, "jc_source.t1_s"),
                                t2=_number(source, "jc_source.t2_s"))
    elif kind == "explicit":
        j_c_explicit = float(_number(source, "jc_source.jc_w_m2"))

    config = RunConfig(
        material=_material_from_doc(doc["material"]),
        ensemble=_ensemble_from_doc(doc["ensemble"]),
        times=times,
        j_c_explicit=j_c_explicit,
        seed=int(seed),
        raw=doc,
    )
    config.forward_model()
    if "synth" in doc:
        config.sweep_plan()
    return config


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_config(doc)


def canonical_json(doc: dict) -> str:
    """Key-sorted, whitespace-free JSON; the hashing and on-disk form."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_sha256(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
