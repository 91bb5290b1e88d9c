"""Reference implementations that tests compare the library against.

None of these is part of the library: the Dirichlet kernel in coefficient
and closed form, the Vallée-Poussin kernel in its defining averaged form,
constant and zero polynomials, the reader of the coefficient CSVs that
`zygmund witness` writes, an L_q norm by QUADPACK's algebraic-weight rule
between sign changes, and those sign changes by brentq on a direct cosine
sum.
"""

import math
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


def qaws_lq(p: TrigPoly, q: float) -> float:
    """||p||_q from the sign changes of p, by QUADPACK's QAWS rule for the
    weight ((t - a)(b - t))^q on each panel [a, b] between consecutive ones,
    the last panel wrapping across 2 pi.

    p and p' are summed directly from the coefficients, and the sign changes
    are those of `brentq_zeros`, so nothing here goes through the library's
    evaluator or zero finder.  Assumes every zero of p is a simple sign
    change.  Needs scipy.
    """
    from scipy.integrate import quad

    k = np.arange(1, p.degree + 1, dtype=float)
    value = direct_value(p)

    def slope(t):
        return np.cos(k * t) @ (k * p.b) - np.sin(k * t) @ (k * p.a)

    zeros = brentq_zeros(p)
    ends = zeros + [zeros[0] + 2.0 * math.pi]
    total = 0.0
    for a, b in zip(ends[:-1], ends[1:]):

        def smooth(t, a=a, b=b):
            # |p|^q / ((t - a)(b - t))^q, continued by p' at the ends.
            if a < t < b:
                return abs(value(t) / ((t - a) * (b - t))) ** q
            return abs(slope(t) / (b - a)) ** q

        part, _ = quad(smooth, a, b, weight="alg", wvar=(q, q), epsabs=0.0, epsrel=1e-13, limit=200)
        total += part
    return total ** (1.0 / q)


def direct_value(p: TrigPoly):
    """t -> p(t), the cosine and sine sums taken directly from the
    coefficients."""
    k = np.arange(1, p.degree + 1, dtype=float)

    def value(t):
        return p.a0 / 2.0 + np.cos(np.multiply.outer(t, k)) @ p.a + np.sin(np.multiply.outer(t, k)) @ p.b

    return value


def brentq_zeros(p: TrigPoly) -> list:
    """Sign changes of p in [0, 2 pi): bracketed between consecutive nodes of
    64 (degree + 1) uniform cells of `direct_value`, and refined by brentq
    to 1e-15.  Needs scipy."""
    from scipy.optimize import brentq

    value = direct_value(p)
    grid = np.linspace(0.0, 2.0 * math.pi, 64 * (p.degree + 1) + 1)
    v = value(grid)
    cells = np.flatnonzero((v[:-1] < 0.0) != (v[1:] < 0.0))
    return [brentq(value, grid[i], grid[i + 1], xtol=1e-15) for i in cells]
