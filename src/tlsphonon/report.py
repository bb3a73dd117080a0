"""The fitted-vs-reference parameter table of a fit report.

``fit`` writes it as ``report.txt`` and ``report`` prints it again from
``report.json``. It reads only the report and the parsed config, so the
``report`` command loads no numpy and none of the array physics.
"""

from __future__ import annotations

import math
from pathlib import Path

from .config import RunConfig, require_key
from .constants import EV, TWO_PI


def _fmt_value(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.4g}"
    return str(x)


def render_report_table(report: dict, config: RunConfig,
                        source: Path = Path("report.json")) -> str:
    """Text table comparing fitted parameters against the configured values.

    The J_c, a and b references are the config's J_c law. A first
    per-temperature row without a value the table shows is a
    ValueError naming ``source``, the file ``report`` came from, and the key.
    """
    ens = config.ensemble
    glob = report.get("global", {})
    per_t = report.get("per_temperature", [])

    ref_jc = None
    fit_jc = None
    t_low = None
    if per_t:
        t_low, fit_jc, t1_t2, t1, t2 = (
            require_key(per_t[0], key, source)
            for key in ("temperature_k", "j_c_w_m2", "t1_t2_s2", "t1_s", "t2_s"))
        ref_jc = ens.j_c_from_power_law(t_low)
    ref_a, ref_b = ens.jc_power_law

    rows = [
        ("P*gamma_L^2 [J/m^3]", glob.get("p_gamma2_j_m3"), ens.p * ens.gamma_l ** 2),
        (f"J_c({_fmt_value(t_low)} K) [W/m^2]", fit_jc, ref_jc),
        ("a [W/m^2 K^-b]", glob.get("a_w_m2"), ref_a),
        ("b", glob.get("b"), ref_b),
        ("gamma_L [eV]", glob.get("gamma_l_ev"), ens.gamma_l / EV),
        ("P [1/(J m^3)]", glob.get("p_per_j_m3"), ens.p),
        ("Gamma_BG/2pi [kHz]",
         glob.get("gamma_bg_hz", None) and glob["gamma_bg_hz"] / 1e3,
         ens.gamma_bg / TWO_PI / 1e3),
    ]
    if per_t:
        rows.append((f"sqrt(T1 T2)({_fmt_value(t_low)} K) [ns]",
                     math.sqrt(t1_t2) * 1e9, None))
        rows.append((f"T1({_fmt_value(t_low)} K) [ns]", t1 * 1e9, None))
        rows.append((f"T2({_fmt_value(t_low)} K) [ns]", t2 * 1e9, None))

    name_w = max(len(r[0]) for r in rows)
    lines = [
        f"{'parameter':<{name_w}}  {'fitted':>12}  {'reference':>12}",
        "-" * (name_w + 28),
    ]
    for name, fitted, ref in rows:
        lines.append(f"{name:<{name_w}}  {_fmt_value(fitted):>12}  {_fmt_value(ref):>12}")
    return "\n".join(lines)
