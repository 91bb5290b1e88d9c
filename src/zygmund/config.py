"""Experiment configuration: a flat key-value file with dotted keys.

The format is deliberately primitive so configs stay diffable and parseable
anywhere: one `key = value` pair per line, `#` comments, blank lines ignored.
Canonical keys (camelCase aliases are accepted):

    psi.family    power | power_log | power_inv_log | power_log_log
    psi.r         decay exponent (all families)
    psi.alpha     log exponent (log families only)
    psi.c         log shift (log families only)
    method.s      Zygmund multiplier exponent, s > 0
    method.q      target metric exponent, 1 < q < inf
    method.beta   kernel phase (default 0)
    n_grid        whitespace- or comma-separated polynomial orders; the
                  experiments take 5 or more, increasing, in [4, 1024],
                  or in [4, 16384] at q = 2
    band_limit    bounded-ratio verdict limit (default 4, or 6 for log families)
    output_dir    directory for CSV output (default "out")
    r_list        decay exponents for the three-case table command
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from .decay import MethodParams, Power, PowerInvLog, PowerLog, PowerLogLog, PsiFunction
from .errors import ConfigError, ParameterError

__all__ = ["ExperimentConfig", "parse_config", "build_psi"]

_ALIASES = {
    "ngrid": "n_grid",
    "bandlimit": "band_limit",
    "outputdir": "output_dir",
    "rlist": "r_list",
}

_KNOWN_KEYS = {
    "psi.family",
    "psi.r",
    "psi.alpha",
    "psi.c",
    "method.s",
    "method.q",
    "method.beta",
    "n_grid",
    "band_limit",
    "output_dir",
    "r_list",
}

_LOG_FAMILIES = {"power_log": PowerLog, "power_inv_log": PowerInvLog, "power_log_log": PowerLogLog}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters shared by the CLI commands."""

    psi: PsiFunction
    psi_family: str
    method: MethodParams
    n_grid: Optional[Tuple[int, ...]]
    band_limit: float
    output_dir: Path
    r_list: Optional[Tuple[float, ...]] = None

    def require_n_grid(self) -> Tuple[int, ...]:
        if self.n_grid is None:
            raise ConfigError("n_grid", "required by this command but missing")
        return self.n_grid

    def require_r_list(self) -> Tuple[float, ...]:
        if self.r_list is None:
            raise ConfigError("r_list", "required by this command but missing")
        return self.r_list


def build_psi(family: str, r: float, alpha: Optional[float], c: Optional[float]) -> PsiFunction:
    """Construct the decay profile named in a config record."""
    name = family.strip().lower().replace("-", "_")
    try:
        if name == "power":
            return Power(r=r)
        if name in _LOG_FAMILIES:
            if alpha is None:
                raise ConfigError("psi.alpha", f"required for family '{name}'")
            if c is None:
                raise ConfigError("psi.c", f"required for family '{name}'")
            return _LOG_FAMILIES[name](r=r, alpha=alpha, c=c)
    except ParameterError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("psi", str(exc)) from exc
    raise ConfigError("psi.family", f"unknown family '{family}'")


def _parse_float(raw: dict, key: str, default: Optional[float] = None) -> Optional[float]:
    if key not in raw:
        return default
    value, line = raw[key]
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(key, f"not a number: '{value}'", line) from exc


def _parse_number_list(raw: dict, key: str, cast) -> Optional[tuple]:
    if key not in raw:
        return None
    value, line = raw[key]
    tokens = value.replace(",", " ").split()
    if not tokens:
        raise ConfigError(key, "list is empty", line)
    try:
        return tuple(cast(tok) for tok in tokens)
    except ValueError as exc:
        raise ConfigError(key, f"bad list entry in '{value}'", line) from exc


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a config file; raises ConfigError naming the field."""
    raw: dict[str, tuple[str, int]] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, full_line in enumerate(text.splitlines(), start=1):
        line = full_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line.split()[0], "expected 'key = value'", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        key = _ALIASES.get(key.replace("_", "").lower(), key)
        if key not in _KNOWN_KEYS:
            raise ConfigError(key, "unknown key", lineno)
        if key in raw:
            raise ConfigError(key, "duplicate key", lineno)
        raw[key] = (value, lineno)

    if "psi.family" not in raw:
        raise ConfigError("psi.family", "missing required key")
    family = raw["psi.family"][0]
    r = _parse_float(raw, "psi.r")
    if r is None:
        raise ConfigError("psi.r", "missing required key")
    psi = build_psi(family, r, _parse_float(raw, "psi.alpha"), _parse_float(raw, "psi.c"))

    s = _parse_float(raw, "method.s")
    if s is None:
        raise ConfigError("method.s", "missing required key")
    q = _parse_float(raw, "method.q")
    if q is None:
        raise ConfigError("method.q", "missing required key")
    beta = _parse_float(raw, "method.beta", default=0.0)
    try:
        method = MethodParams(s=s, q=q, beta=beta)
    except ParameterError as exc:
        message = str(exc)
        if "q in" in message:
            field = "method.q"
        elif "beta" in message:
            field = "method.beta"
        else:
            field = "method.s"
        line = raw.get(field, (None, None))[1]
        raise ConfigError(field, message, line) from exc

    n_grid = _parse_number_list(raw, "n_grid", int)
    if n_grid is not None and any(n < 1 for n in n_grid):
        raise ConfigError("n_grid", "orders must be positive", raw["n_grid"][1])

    family_key = family.strip().lower().replace("-", "_")
    default_band = 6.0 if family_key in _LOG_FAMILIES else 4.0
    band_limit = _parse_float(raw, "band_limit", default=default_band)
    if not (band_limit > 1.0):
        raise ConfigError("band_limit", "must exceed 1", raw.get("band_limit", (None, None))[1])

    output_dir = Path(raw["output_dir"][0]) if "output_dir" in raw else Path("out")
    r_list = _parse_number_list(raw, "r_list", float)

    return ExperimentConfig(
        psi=psi,
        psi_family=family_key,
        method=method,
        n_grid=n_grid,
        band_limit=band_limit,
        output_dir=output_dir,
        r_list=r_list,
    )
