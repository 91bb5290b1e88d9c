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
    band_limit    bounded-ratio verdict limit > 1 (default 4, or 6 for log families)
    output_dir    directory for CSV output (default "out")
    r_list        decay exponents for the three-case table command

`_KEYS` declares each key once, with how its value reads: a number (float),
a list of numbers (a one-element tuple of the entry type) or text (str,
Path).  `_read` reads every value, and its `_REQUIRED` default marks the
keys without one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from .decay import MethodParams, Power, PowerInvLog, PowerLog, PowerLogLog, PsiFunction
from .errors import ConfigError, ParameterError

__all__ = ["ExperimentConfig", "parse_config", "build_psi"]

# camelCase aliases, by the key's lowercase form without underscores
_ALIASES = {"ngrid": "n_grid", "bandlimit": "band_limit", "outputdir": "output_dir", "rlist": "r_list"}

_KEYS = {
    "psi.family": str,
    "psi.r": float,
    "psi.alpha": float,
    "psi.c": float,
    "method.s": float,
    "method.q": float,
    "method.beta": float,
    "n_grid": (int,),
    "band_limit": float,
    "output_dir": Path,
    "r_list": (float,),
}

_REQUIRED = object()

_FAMILIES = {"power": Power, "power_log": PowerLog, "power_inv_log": PowerInvLog, "power_log_log": PowerLogLog}


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


def checked_band_limit(value: float, line: Optional[int] = None) -> float:
    """The band limit, which must exceed 1, from the config file's `line` or
    from the command line."""
    if not (value > 1.0):
        raise ConfigError("band_limit", "must exceed 1", line)
    return value


def build_psi(family: str, r: float, alpha: Optional[float], c: Optional[float]) -> PsiFunction:
    """Construct the decay profile named in a config record."""
    name = family.strip().lower().replace("-", "_")
    if name not in _FAMILIES:
        raise ConfigError("psi.family", f"unknown family '{family}'")
    logs = {} if name == "power" else {"alpha": alpha, "c": c}
    for key, value in logs.items():
        if value is None:
            raise ConfigError(f"psi.{key}", f"required for family '{name}'")
    try:
        return _FAMILIES[name](r=r, **logs)
    except ParameterError as exc:
        raise ConfigError("psi", str(exc)) from exc


def _read(raw: dict, key: str, default=None):
    """The value of `key` as `_KEYS` reads it, or `default` when the file
    has no such key; a `_REQUIRED` default makes the key required."""
    if key not in raw:
        if default is _REQUIRED:
            raise ConfigError(key, "missing required key")
        return default
    value, line = raw[key]
    kind = _KEYS[key]
    if not isinstance(kind, tuple):
        try:
            return kind(value)
        except ValueError as exc:
            raise ConfigError(key, f"not a number: '{value}'", line) from exc
    tokens = value.replace(",", " ").split()
    if not tokens:
        raise ConfigError(key, "list is empty", line)
    try:
        return tuple(map(kind[0], tokens))
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
        if key not in _KEYS:
            raise ConfigError(key, "unknown key", lineno)
        if key in raw:
            raise ConfigError(key, "duplicate key", lineno)
        raw[key] = (value, lineno)
    line_of = {key: line for key, (_, line) in raw.items()}

    family = _read(raw, "psi.family", _REQUIRED)
    r = _read(raw, "psi.r", _REQUIRED)
    psi = build_psi(family, r, _read(raw, "psi.alpha"), _read(raw, "psi.c"))
    psi_family = next(name for name, kind in _FAMILIES.items() if type(psi) is kind)

    s = _read(raw, "method.s", _REQUIRED)
    q = _read(raw, "method.q", _REQUIRED)
    beta = _read(raw, "method.beta", 0.0)
    try:
        method = MethodParams(s=s, q=q, beta=beta)
    except ParameterError as exc:
        message = str(exc)
        field = "method.q" if "q in" in message else "method.beta" if "beta" in message else "method.s"
        raise ConfigError(field, message, line_of.get(field)) from exc

    n_grid = _read(raw, "n_grid")
    if n_grid is not None and any(n < 1 for n in n_grid):
        raise ConfigError("n_grid", "orders must be positive", line_of["n_grid"])

    band_limit = _read(raw, "band_limit", 4.0 if psi_family == "power" else 6.0)

    return ExperimentConfig(
        psi=psi,
        psi_family=psi_family,
        method=method,
        n_grid=n_grid,
        band_limit=checked_band_limit(band_limit, line_of.get("band_limit")),
        output_dir=_read(raw, "output_dir", Path("out")),
        r_list=_read(raw, "r_list"),
    )
