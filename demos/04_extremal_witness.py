"""The extremal witness: calibration, pairing, and certified lower bounds.

The witness source is alpha0 * (V_n - 1/2), built from the Vallée-Poussin
kernel and calibrated to the unit ball of L_1.  Convolving it with the
kernel gives an explicit class member whose deviation under the Zygmund mean
can be bounded from below by pairing against a dual polynomial: the pairing
integral has a closed form by orthogonality, and Hölder's inequality turns
it into a certified lower bound.
"""

import math

from zygmund import (
    MethodParams,
    NormRequest,
    Power,
    WitnessConfig,
    build_witness,
    calibrate_alpha0,
    l1_norm,
    lq_norm,
    theoretical_rate,
)

n = 16
cfg = WitnessConfig(psi=Power(1.0), method=MethodParams(s=1.0, q=2.0), n=n)

alpha0 = calibrate_alpha0(n)
print(f"calibration: alpha0({n}) = 1 / ||V_{n} - 1/2||_1 = {alpha0:.8f}")

res = build_witness(cfg)
print(f"witness degree: {res.f.degree} (= 2n - 1)")
print(f"||phi||_1 recomputed: {l1_norm(res.phi):.10f}\n")

print("pairing integral I of (f - Z(f)) against the dual polynomial:")
print(f"  closed form (orthogonality): {res.pairing:.12f}")
print(f"  grid quadrature:             {res.pairing_quadrature:.12f}\n")

dual_norm = lq_norm(res.dual, NormRequest(q=cfg.method.q_prime))
print("the Hölder chain, numerically:")
print(f"  I / ||dual||_q'      = {res.pairing / dual_norm:.8f}   (certified lower bound)")
print(f"  measured ||f - Zf||_q = {res.deviation:.8f}")
print(f"  certified <= measured: {res.lower_bound <= res.deviation}\n")

rate = theoretical_rate(cfg.psi, cfg.method, n)
print("the certified lower bound vs the rate law:")
print(f"  I / ||dual||_q'        = {res.lower_bound:.8f}")
print(f"  rate psi(n)*n**(1-1/q) = {rate:.8f}")
print(f"  ratio                  = {res.lower_bound / rate:.4f}")

print("\nbeta only rotates phases; the pairing is invariant:")
for beta in (0.0, 0.5, 1.0):
    c = build_witness(
        WitnessConfig(psi=Power(1.0), method=MethodParams(s=1.0, q=2.0, beta=beta), n=n)
    ).pairing
    print(f"  beta={beta}: I = {c:.12f}")
assert math.isclose(res.pairing, c, rel_tol=1e-12)
