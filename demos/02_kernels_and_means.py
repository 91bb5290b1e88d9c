"""Kernels, convolution, and the Zygmund/Fejér means.

Builds a convolution kernel from a decay profile, pushes a source polynomial
through it, applies the summation operators, and shows the exact coefficient
structure of the deviation f - Z(f): harmonics below the order n are damped
by (k/n)**s, everything above passes through.
"""

import numpy as np

from zygmund import (
    Power,
    TrigPoly,
    convolve,
    fejer_sum,
    psi_beta_derivative,
    zygmund_sum,
)
from zygmund.trig import deviation, phased_poly

psi, beta = Power(2.0), 0.0
poly = phased_poly(psi(np.arange(1.0, 6.0)), beta)
print("kernel Psi_beta with psi(k) = k**-2 and beta = 0:")
print(f"  first coefficients: {np.round(poly.a[:5], 5)}\n")

rng = np.random.default_rng(42)
phi = TrigPoly(0.0, rng.standard_normal(8), rng.standard_normal(8))
f = convolve(psi, beta, phi)
print("convolution maps the k-th harmonic to itself, scaled and rotated:")
print(f"  phi harmonic 3: ({phi.a[2]:+.5f}, {phi.b[2]:+.5f})")
print(f"  f   harmonic 3: ({f.a[2]:+.5f}, {f.b[2]:+.5f})   (factor psi(3) = {1/9:.5f})\n")

back = psi_beta_derivative(f, psi, beta)
print(f"the derivative map inverts it: max coefficient error "
      f"{max(np.max(np.abs(back.a - phi.a)), np.max(np.abs(back.b - phi.b))):.2e}\n")

n, s = 4, 2.0
zf = zygmund_sum(f, n, s)
print(f"Zygmund multipliers 1 - (k/{n})**{s} on the first {n - 1} harmonics:")
k = np.arange(1, n)
print(f"  expected: {1 - (k / n) ** s}")
print(f"  applied : {np.round(zf.a[: n - 1] / f.a[: n - 1], 10)}\n")

print("Fejér is the s = 1 case:")
print(f"  max |fejer - zygmund(s=1)| coefficient gap: "
      f"{np.max(np.abs(fejer_sum(f, n).a - zygmund_sum(f, n, 1.0).a)):.1e}\n")

dev = deviation(f, n, s)
direct = f - zf
t = 2.0 * np.pi * np.arange(8) / 8
print("deviation representation: coefficient form vs direct f - Z(f) on a grid")
print(f"  max pointwise gap: {np.max(np.abs(dev(t) - direct(t))):.2e}")
print(f"  head harmonics carry (k/n)**s * psi(k): {np.round(dev.a[: n - 1] / phi.a[: n - 1], 6)}")
print(f"  expected                              : {np.round((k / n) ** s / k**2, 6)}")
