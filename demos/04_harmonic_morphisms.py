"""Manufacturing harmonic morphisms from eigenfamilies.

A quotient P/Q of two independent equal-degree homogeneous polynomials in
the members of one eigenfamily satisfies tau(P/Q) = 0 and
kappa(P/Q, P/Q) = 0 away from Q = 0: it is a harmonic morphism there.  The
constants of the degree-k polynomials follow the power-family law
lambda_k = k lambda + k(k-1) mu, mu_k = k^2 mu.
"""

import numpy as np

from lgh import families as fa
from lgh import matrices as M
from lgh import morphisms as mo
from lgh.jets import frame_operators
from lgh.sampling import SplitMix64, compact_sampler, sample_compact


def e(n, k=0):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


print("=== the Hopf map: z/w on SU(2) ===")
fam = fa.su_family(2, e(2))
hopf = mo.quotient_morphism(fam, {(1, 0): 1.0}, {(0, 1): 1.0}, floor=0.1)
basis = M.compact_basis(fam.group)
sampler = compact_sampler(fam.group, 0.5, 42)
rep = mo.verify_harmonic_morphism(
    hopf, basis, sampler.take(100), tol=1e-9, min_samples=100,
    sampler=lambda k: sampler.take(k).points,
)
print(f"tau residual {rep.residuals['tau']:.2e}, kappa residual {rep.residuals['kappa']:.2e}")
print(f"{rep.samples_used} in-domain samples, {rep.samples_discarded} below |w| = 0.1")

print("\n=== random degree-2 quotients over the SO(4) family ===")
so4 = fa.so_family_V(4, e(4), fa.maximal_isotropic_basis(4))
rng = SplitMix64(11)
basis4 = M.compact_basis(so4.group)
sampler4 = compact_sampler(so4.group, 0.5, 42)
for trial in range(3):
    m = mo.random_morphism(so4, 2, rng, floor=0.05)
    rep = mo.verify_harmonic_morphism(
        m, basis4, sampler4.take(50), tol=1e-7, min_samples=50,
        sampler=lambda k: sampler4.take(k).points,
    )
    print(f"instance {trial}: tau {rep.residuals['tau']:.2e}  kappa {rep.residuals['kappa']:.2e}  pass={rep.passed}")

print("\n=== Moebius stability: post-composition keeps the property ===")
moved = mo.mobius_transform(hopf, 1 + 0.5j, -2.0, 0.25j, 3 - 1j)
rep = mo.verify_harmonic_morphism(
    moved, basis, sampler.take(60), tol=1e-7, min_samples=60,
    sampler=lambda k: sampler.take(k).points,
)
print(f"(aP+bQ)/(cP+dQ): tau {rep.residuals['tau']:.2e}  kappa {rep.residuals['kappa']:.2e}")

print("\n=== power families carry the degree-k constants ===")
u2 = fa.u_family(2, e(2))
basis_u2 = M.compact_basis(u2.group)
samples = sample_compact(u2.group, 60, 0.5, 42)
for k in (2, 3):
    pf = mo.power_family(u2, k)
    meas = fa.measure_constants_residual(pf, basis_u2, samples)
    print(
        f"k={k}: lambda_k={pf.lam.real:+.1f} mu_k={pf.mu.real:+.1f}  "
        f"measured deviation {max(meas.values()):.2e}"
    )

print("\n=== the quotient condition Q^2 k(P,P) = PQ k(P,Q) = P^2 k(Q,Q) ===")
p = mo.random_hompoly(u2.members, 2, rng)
q = mo.random_hompoly(u2.members, 2, rng)
rep = mo.verify_quotient_condition(u2, p, q, basis_u2, samples, tol=1e-7)
print({k2: f"{v:.2e}" for k2, v in rep.residuals.items()})

print("\n=== negative control: z_11 alone is not harmonic on U(2) ===")
ops = frame_operators(u2.members[:1], samples, basis_u2)
tau_res = float(np.max(np.abs(ops.tau)))
peak = float(np.max(np.abs(ops.values)))
print(f"tau residual {tau_res:.4f} = 2 max|z_11| = {2 * peak:.4f}; pass={tau_res < 1e-8}")
