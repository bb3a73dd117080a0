"""Run configuration: key and type checks, presets, and deterministic hashing.

A run is fully described by one JSON document -- material, ensemble, the
critical-intensity source, the sweep plan, and the base seed. Here alone the
source becomes the ensemble's J_c law a T^b (a constant J_c is (J_c, 0)).
No state comes from the environment or the wall clock, so identical configs
produce identical outputs. Frequencies in config files and all emitted files are
ordinary Hz and angular inside; each file boundary converts its own: this
module the config's, :mod:`tlsphonon.dataset` a trace's detuning axis and
pump frequency, and the ``fit`` and ``model`` writers their results. Each
range is checked once, by the value type the number goes into; only the
seed and the ``fit`` numbers, which go into none, are checked here.

The plan types a config resolves into, :class:`ForwardModel` and
:class:`SweepPlan`, live here too. This module and everything it imports
are plain ``math``, so parsing a config, and the commands that only parse
one (``report``, and any command given a bad config), load no numpy; the
forward model imports its physics when it is evaluated.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .constants import C_LIGHT, EV, TWO_PI
from .sbs import OpticalDrive, brillouin_frequency
from .tls_core import (MaterialParams, PhononMode, RelaxationTimes, TLSEnsemble,
                       _require_positive, get_preset, jc_t1t2, preset_names)

RUNG_STEP_K = 0.1          # the acquisition protocol is phrased per 100 mK
MAX_RUNGS = 10_000
MAX_TRACES = 1_000_000     # rungs x settings x repeats
MAX_SAMPLES = 100_000_000  # traces x detuning points
DEFAULT_POINTS = 401
DEFAULT_SPAN_FWHM = 10.0   # grid reaches +-10 expected linewidths

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
FIT_DEFAULTS = {"bin_width_k": RUNG_STEP_K, "shared_p_gamma2": True}
_FIT_KEYS = ((), (*FIT_DEFAULTS, "weighted", "t0_k"))


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
    """A JSON number that float() converts: no bool, no int beyond a double's range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and not (isinstance(value, int) and abs(value) > sys.float_info.max))


def _number(doc: dict, path: str, default=None):
    """The value of ``doc`` at the last part of dotted key ``path`` (``default``
    when absent), if it is a JSON number; ``_integer`` and ``_boolean`` read
    the same way."""
    value = doc.get(path.rpartition(".")[2], default)
    if not _is_number(value):
        raise _invalid(path, "must be a number", value)
    return value


def is_integer(value) -> bool:
    """A JSON integer; an integral float such as 2.0 counts, as in JSON Schema."""
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _integer(doc: dict, path: str, default=None):
    """An integer, as :func:`is_integer` reads one."""
    value = doc.get(path.rpartition(".")[2], default)
    if not is_integer(value):
        raise _invalid(path, "must be an integer", value)
    return value


def _boolean(doc: dict, path: str, default=None) -> bool:
    value = doc.get(path.rpartition(".")[2], default)
    if not isinstance(value, bool):
        raise _invalid(path, "must be true or false", value)
    return value


def require_key(doc, key: str, path: Path):
    """``doc[key]``, or a ValueError naming the file ``doc`` came from and the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{path}: missing key {key!r}")
    return doc[key]


@dataclass(frozen=True)
class ForwardModel:
    """Everything the synthesizer and ``model`` need to evaluate the physics.

    :meth:`j_c` evaluates the ensemble's critical-intensity law J_c = a T^b;
    :func:`parse_config` writes every J_c source of a run into that law.
    ``drift_reference_k`` turns on the resonant frequency drift of the line
    center relative to that temperature. Both methods import the closed
    forms of :mod:`tlsphonon.dissipation` when called.
    """

    material: MaterialParams
    ensemble: TLSEnsemble
    pump_wavelength: float = 1548.963e-9
    drift_reference_k: Optional[float] = None

    def __post_init__(self):
        _require_positive(pump_wavelength=self.pump_wavelength)
        if self.ensemble.jc_power_law is None:
            raise ValueError("no critical-intensity source configured: "
                             "the ensemble has no J_c power law")

    @property
    def pump_omega(self) -> float:
        return TWO_PI * C_LIGHT / self.pump_wavelength

    def j_c(self, temperature):
        """Critical intensity [W/m^2] of the longitudinal mode at ``temperature``
        (a scalar or an array)."""
        from .dissipation import critical_intensity

        return critical_intensity(self.material, temperature, ensemble=self.ensemble)

    def line_center(self, temperature: float) -> float:
        """Acoustic resonance frequency at this temperature [rad/s]."""
        omega0 = brillouin_frequency(self.material, self.pump_omega)
        if self.drift_reference_k is None:
            return omega0
        from .dissipation import freq_shift_res

        mode = PhononMode.in_material(self.material, omega0, "L")
        return omega0 + freq_shift_res(mode, temperature, self.drift_reference_k,
                                       self.material, self.ensemble)


@dataclass(frozen=True)
class SweepPlan:
    """A warm-up campaign: temperature ladder x power settings x repeats.

    ``drives`` holds one :class:`~tlsphonon.sbs.OpticalDrive` per power
    setting, in the order of ``power_settings``; every acquisition at a
    setting shares its drive. :func:`tlsphonon.synth.plan_acquisitions`
    expands the plan into its traces.
    """

    t_start: float
    t_end: float
    traces_per_100mk: int
    power_settings: Sequence[Tuple[float, float]]
    noise_sigma: float
    model: ForwardModel
    base_seed: int = 0
    detuning_points: int = DEFAULT_POINTS
    detuning_span: float = DEFAULT_SPAN_FWHM
    drives: Tuple[OpticalDrive, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError("need t_start < t_end")
        _require_positive(t_start=self.t_start, t_end=self.t_end,
                          detuning_span=self.detuning_span)
        rungs = (self.t_end - self.t_start) / RUNG_STEP_K
        if rungs > MAX_RUNGS:
            raise ValueError(f"the ladder has {rungs:.0f} rungs, more than {MAX_RUNGS}")
        if self.traces_per_100mk < 1:
            raise ValueError("traces_per_100mk must be positive")
        if not self.power_settings:
            raise ValueError("at least one power setting required")
        object.__setattr__(self, "drives", tuple(
            OpticalDrive(pump_power=pump, stokes_power=stokes,
                         pump_omega=self.model.pump_omega,
                         fiber_length=self.model.material.l_fut)
            for pump, stokes in self.power_settings))
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if self.detuning_points < 7:
            raise ValueError("detuning grid too coarse to resolve a line")
        # checked before plan_acquisitions lists a trace or allocates a grid
        traces = (len(self.rung_temperatures()) * len(self.power_settings)
                  * self.traces_per_100mk)
        if traces > MAX_TRACES:
            raise ValueError(f"the campaign has {traces} traces, more than {MAX_TRACES}")
        samples = traces * self.detuning_points
        if samples > MAX_SAMPLES:
            raise ValueError(f"the campaign has {samples} samples, more than {MAX_SAMPLES}")

    def rung_temperatures(self) -> List[float]:
        """Ladder rungs, one per 100 mK bin, sitting at the bin centers."""
        rungs = []
        k = 0
        while True:
            t = self.t_start + (k + 0.5) * RUNG_STEP_K
            if t >= self.t_end:
                break
            rungs.append(t)
            k += 1
        if not rungs:
            raise ValueError("temperature range shorter than one 100 mK step")
        return rungs


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with resolved physics objects; the run's J_c
    law is ``ensemble.jc_power_law`` whatever the ``jc_source``."""

    material: MaterialParams
    ensemble: TLSEnsemble
    times: Optional[RelaxationTimes]  # the T1, T2 of a ``times`` source, else None
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
    _boolean(fit, "fit.shared_p_gamma2")
    if not _boolean(fit, "fit.weighted", True):
        raise _invalid("fit.weighted", "must be true: every saturation fit is weighted", False)
    for key in ("bin_width_k", "t0_k"):
        if key in fit and not 0.0 < _number(fit, f"fit.{key}") < math.inf:
            raise _invalid(f"fit.{key}", "must be finite and > 0", fit[key])

    source = doc["jc_source"]
    kind = source.get("type") if isinstance(source, dict) else None
    if not isinstance(kind, str) or kind not in _JC_SOURCE_KEYS:
        raise _invalid("jc_source", f"must be an object of type {', '.join(_JC_SOURCE_KEYS)}",
                       source)
    _section(source, "jc_source", _JC_SOURCE_KEYS[kind])
    material = _material_from_doc(doc["material"])
    ensemble = _ensemble_from_doc(doc["ensemble"])
    times = None
    if kind == "times":
        times = RelaxationTimes(t1=_number(source, "jc_source.t1_s"),
                                t2=_number(source, "jc_source.t2_s"))
        ensemble = replace(ensemble, jc_power_law=(
            jc_t1t2(material, ensemble, "L") / (times.t1 * times.t2), 0.0))
    elif kind == "explicit":
        ensemble = replace(ensemble,
                           jc_power_law=(_number(source, "jc_source.jc_w_m2"), 0.0))

    config = RunConfig(material=material, ensemble=ensemble, times=times, seed=int(seed), raw=doc)
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
