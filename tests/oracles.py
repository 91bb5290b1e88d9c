"""Reference implementations that tests compare the library against.

None of these is part of the library: the Dirichlet kernel in coefficient
and closed form, the Vallée-Poussin kernel in its defining averaged form,
constant and zero polynomials, and the reader of the coefficient CSVs that
`zygmund witness` writes.
"""

from typing import Union

import numpy as np

from zygmund.errors import ParameterError
from zygmund.trig import TrigPoly


def constant(a0: float) -> TrigPoly:
    """The constant polynomial a0/2, of degree 0."""
    return TrigPoly(a0=a0, a=np.zeros(0), b=np.zeros(0))


def zero(degree: int = 0) -> TrigPoly:
    """The zero polynomial, carrying `degree` zero harmonics."""
    return TrigPoly(a0=0.0, a=np.zeros(degree), b=np.zeros(degree))


def dirichlet(k: int) -> TrigPoly:
    """Dirichlet kernel D_k(t) = 1/2 + sum_{v=1}^{k} cos(vt) in coefficient form."""
    if k < 1:
        raise ParameterError("dirichlet: requires k >= 1")
    return TrigPoly(a0=1.0, a=np.ones(k), b=np.zeros(k))


def dirichlet_closed(k: int, t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Closed form sin((k + 1/2) t) / (2 sin(t/2)).

    Near the removable singularities t in 2*pi*Z (|sin(t/2)| < 1e-8) the
    coefficient series is evaluated instead.
    """
    if k < 1:
        raise ParameterError("dirichlet_closed: requires k >= 1")
    arr = np.asarray(t, dtype=float)
    half_sin = np.sin(arr / 2.0)
    near = np.abs(half_sin) < 1.0e-8
    out = np.asarray(np.sin((k + 0.5) * arr) / (2.0 * np.where(near, 1.0, half_sin)))
    out[near] = dirichlet(k)(arr[near])
    return float(out) if arr.ndim == 0 else out


def vallee_poussin_by_averaging(m: int) -> TrigPoly:
    """Defining form (1/m) * sum_{k=m}^{2m-1} D_k(t); identical to
    vallee_poussin(m) up to rounding."""
    if m < 1:
        raise ParameterError("vallee_poussin_by_averaging: requires m >= 1")
    acc = zero(2 * m - 1)
    for k in range(m, 2 * m):
        acc = acc + dirichlet(k).padded(2 * m - 1)
    return (1.0 / m) * acc


def read_trig_poly_csv(text: str) -> TrigPoly:
    """Inverse of zygmund.cli.trig_poly_csv (round-trip exact)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    a0 = float(lines[0].split(",")[1])
    a, b = [], []
    for row in lines[2:]:
        _, ak, bk = row.split(",")
        a.append(float(ak))
        b.append(float(bk))
    return TrigPoly(a0, a, b)
