"""Integral-metric norms and best trigonometric approximation.

Shows the quadrature norm with its grid-doubling convergence, the Parseval
cross-check, and best approximation by polynomials of a fixed degree: exact
truncation at q = 2, iteratively reweighted least squares elsewhere, always
dominated by any concrete summation method.
"""

import math

import numpy as np

from zygmund import (
    NormRequest,
    Power,
    TrigPoly,
    best_approx,
    l1_norm,
    l2_norm_coeffs,
    lq_norm,
    zygmund_sum,
)

cos_t = TrigPoly(0.0, [1.0], [0.0])
print("closed-form checks on cos t over the full period:")
print(f"  ||cos||_1 = {l1_norm(cos_t):.10f}   (exactly 4)")
print(f"  ||cos||_2 = {lq_norm(cos_t, NormRequest(q=2.0)):.10f}   (sqrt(pi) = {math.sqrt(math.pi):.10f})")
print(f"  ||cos||_4 = {lq_norm(cos_t, NormRequest(q=4.0)):.10f}   ((3pi/4)**0.25 = {(0.75 * math.pi) ** 0.25:.10f})\n")

rng = np.random.default_rng(7)
p = TrigPoly(rng.standard_normal(), rng.standard_normal(20), rng.standard_normal(20))
print("Parseval agreement on a random degree-20 polynomial:")
print(f"  quadrature: {lq_norm(p, NormRequest(q=2.0)):.12f}")
print(f"  coefficients: {l2_norm_coeffs(p):.12f}\n")

f = TrigPoly(0.0, rng.standard_normal(10), rng.standard_normal(10))
n = 4
print(f"best approximation of a degree-10 polynomial by degree <= {n - 1}:")
for q in (1.5, 2.0, 3.0):
    req = NormRequest(q=q)
    res = best_approx(f, n, req)
    fejer_dev = lq_norm(f - zygmund_sum(f, n, 1.0), req)
    print(
        f"  q={q}: best = {res.value:.6f} ({res.iterations} IRLS iterations), "
        f"Fejér deviation = {fejer_dev:.6f}, dominated: {res.value <= fejer_dev}"
    )

print("\nat q = 2 the minimizer is the truncated sum, so the value matches the")
print("Parseval tail:")
res = best_approx(f, n, NormRequest(q=2.0))
tail = math.sqrt(math.pi * float(np.sum(f.a[n - 1:] ** 2 + f.b[n - 1:] ** 2)))
print(f"  best = {res.value:.12f}, tail formula = {tail:.12f}")

print("\nthe witness function of the growing regime, approximated at its own order:")
from zygmund import MethodParams, build_witness

res16 = build_witness(Power(1.0), MethodParams(s=1.0, q=2.0), 16)
best16 = best_approx(res16.f, 16, NormRequest(q=2.0))
print(f"  Zygmund deviation = {res16.deviation:.6f}, best = {best16.value:.6f}")
