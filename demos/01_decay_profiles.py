"""Decay profiles and their structural classification.

Walks through the four analytic coefficient families, evaluates them, and
shows how the composite growth function g(t) = psi(t) * t**(s + 1/q')
decides which rate law applies: power growth, slow oscillation, or power
decay.  Also prints the membership certificates used as preconditions by
the experiments (weighted almost-decreasing test, doubling regularity,
reciprocal convexity).
"""

import numpy as np

from zygmund import (
    MethodParams,
    Power,
    PowerInvLog,
    PowerLog,
    PowerLogLog,
    check_almost_decreasing,
    check_doubling,
    classify_regime,
    growth_function,
    reciprocal_convexity,
)

method = MethodParams(s=1.0, q=2.0)
print(f"method: s={method.s}, q={method.q}, conjugate q'={method.q_prime}")
print(f"growth exponent s + 1/q' = {method.growth_exponent}\n")

profiles = {
    "power r=1.0      ": Power(1.0),
    "power r=1.5      ": Power(1.5),
    "power r=2.5      ": Power(2.5),
    "power_log        ": PowerLog(r=1.0, alpha=1.0, c=60.0),
    "power_inv_log    ": PowerInvLog(r=1.0, alpha=1.0, c=1.0),
    "power_log_log    ": PowerLogLog(r=1.0, alpha=1.0, c=60.0),
}

print("profile             psi(2)      psi(16)     g(16)       regime")
for name, psi in profiles.items():
    res = classify_regime(psi, method)
    eps = f" (eps={res.epsilon:g})" if res.epsilon is not None else ""
    print(
        f"{name} {psi(2.0):10.5f}  {psi(16.0):10.5f}  "
        f"{growth_function(psi, method, 16.0):10.5f}  {res.regime.value}{eps}"
    )

print("\nMembership certificates for psi(t) = 1/t:")
psi = Power(1.0)
theta = check_almost_decreasing(psi, method.q_prime)
print(f"  weighted almost-decreasing (rho = q' = 2): member={theta.member}, "
      f"alpha={theta.alpha}, K={theta.bound:.6f}")
print(f"  doubling regularity psi(t)/psi(2t):        K={check_doubling(psi):.6f}")
print(f"  convexity of 1/psi on [1, 65]:             {reciprocal_convexity(psi).value}")

print("\nThe regime boundary for s=1, q=2 sits at r = s + 1 - 1/q = 1.5:")
for r in np.array([1.49, 1.5, 1.51]):
    print(f"  r={r}: {classify_regime(Power(float(r)), method).regime.value}")
