"""Eigenfamilies on the compact classical groups.

A set of functions phi with tau(phi) = lambda phi and kappa(phi, psi) =
mu phi psi for fixed (lambda, mu) is an eigenfamily.  Linear families in
the matrix entries exist on SO(n) (from isotropic data), on U(n)/SU(n),
and on Sp(n); each is verified here on seeded group samples.
"""

import numpy as np

from lgh import families as fa
from lgh import matrices as M
from lgh.jets import frame_operators
from lgh.sampling import SplitMix64, sample_compact


def run(fam, count=100, seed=42):
    basis = M.compact_basis(fam.group)
    samples = sample_compact(fam.group, count, 0.5, seed)
    rep = fa.verify_eigenfamily(fam, basis, samples, tol=1e-8)
    print(
        f"{str(fam.group):6s} {fam.provenance:22s} members={len(fam.members)} "
        f"lambda={fam.lam.real:+.3f} mu={fam.mu.real:+.3f}  "
        f"tau={rep.residuals['tau']:.1e} kappa={rep.residuals['kappa']:.1e}  pass={rep.passed}"
    )
    return rep


def e(n, k=0):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


print("=== linear eigenfamilies, verified on 100 seeded samples each ===")
for n in (4, 5, 6):
    run(fa.so_family_V(n, e(n), fa.maximal_isotropic_basis(n)))
for n in (2, 3):
    run(fa.u_family(n, e(n)))
    run(fa.su_family(n, e(n)))
for n in (1, 2):
    run(fa.sp_family(n, e(n)))

print("\nSp(1) and SU(2) agree on (-3/2, -1/2): two independent code paths,")
print("one underlying group.")

print("\n=== the two-parameter isotropic deformation on SO(4) ===")
rng = SplitMix64(7)
for _ in range(5):
    z = rng.complex_uniform()
    w = rng.complex_uniform()
    p = fa.so4_deformation(z, w)
    fam = fa.so_family_special(4, p)
    rep = run(fam, count=50)
    assert rep.passed

print("\n=== negative control: a wrong constant is caught, linearly ===")
fam = fa.u_family(2, e(2))
broken = fa.Eigenfamily(fam.group, fam.members, fam.lam + 0.1, fam.mu, "control")
basis = M.compact_basis(fam.group)
samples = sample_compact(fam.group, 100, 0.5, 42)
rep = fa.verify_eigenfamily(broken, basis, samples, tol=1e-8)
peak = np.abs(frame_operators(fam.members, samples, basis).values).max()
print(f"shift lambda by +0.1: tau residual {rep.residuals['tau']:.4f}")
print(f"predicted 0.1 * max|phi| = {0.1 * peak:.4f}; pass={rep.passed} (as it should not)")
