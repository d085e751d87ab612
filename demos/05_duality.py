"""The compact/non-compact duality.

Each non-compact classical group is realized as the aligned real form
k + i m inside the ambient matrices of its compact partner, where the
Cartan involution theta fixes k and negates m.  Frames of k enter the
semi-Riemannian tau/kappa sums with sign -1, frames of i m with +1, and a
polynomial eigenfamily continues across with both constants negated.
"""

import numpy as np

from lgh import duality as du
from lgh import families as fa
from lgh import matrices as M
from lgh.sampling import sample_compact

print("=== SL(2,R) from SU(2), step by step ===")
pair = du.dual_pair(M.sl_r(2))
print(f"compact partner: {pair.compact}; involution: entrywise conjugation")
print(f"k = fix(theta):  {len(pair.k_basis)} vector(s), sign -1 (here: so(2))")
print(f"p = i*antifix:   {len(pair.p_basis)} vector(s), sign +1 (traceless real symmetric)")
fam = du.default_compact_family(pair)
print(f"compact family on {fam.group}: lambda={fam.lam.real:+.2f}, mu={fam.mu.real:+.2f}")
samples = du.sample_noncompact(pair, 100, 0.5, 42)
print(f"100 aligned samples: real, det 1; max structural defect {samples.max_defect:.1e}")
rep = du.verify_dual_eigenfamily(pair, fam, samples)
print(f"dual constants {-fam.lam.real:+.2f}, {-fam.mu.real:+.2f}: "
      f"tau residual {rep.residuals['tau']:.2e}, kappa residual {rep.residuals['kappa']:.2e}")

print("\n=== all seven dual families ===")
targets = [
    M.sl_r(3), M.su_star(4), M.sp_r(2), M.so_star(4),
    M.so_pq(2, 2), M.su_pq(1, 2), M.sp_pq(1, 1),
]
print(f"{'group':10s} {'compact':6s} {'dim k':>5s} {'dim p':>5s} {'frame dev':>10s} {'tau':>9s} {'kappa':>9s}")
for gid in targets:
    pair = du.dual_pair(gid)
    fam = du.default_compact_family(pair)
    samples = du.sample_noncompact(pair, 60, 0.5, 42)
    rep = du.verify_dual_eigenfamily(pair, fam, samples)
    print(
        f"{str(gid):10s} {str(pair.compact):6s} {len(pair.k_basis):5d} {len(pair.p_basis):5d} "
        f"{max(pair.residuals.values()):10.1e} {rep.residuals['tau']:9.1e} {rep.residuals['kappa']:9.1e}"
    )

print("\n=== the isotropic-point family continues too ===")
pair = du.dual_pair(M.so_pq(2, 2))
special = fa.so_family_special(4, fa.so4_deformation(0, 0))
print("its defining argument uses x x^t = I, which holds on all of SO(4,C):")
print("SO(4) is Zariski-dense there, and SO(2,2) lies inside it")
rep = du.verify_dual_eigenfamily(pair, special, du.sample_noncompact(pair, 60, 0.5, 42))
print(f"passed={rep.passed}: tau residual {rep.residuals['tau']:.2e}, kappa residual {rep.residuals['kappa']:.2e}")

print("\n=== sanity: the degenerate identity involution ===")
pair_id = du.identity_pair(M.U(2))
fam = fa.u_family(2, np.eye(2, dtype=complex)[0])
rep = du.verify_dual_eigenfamily(pair_id, fam, du.sample_noncompact(pair_id, 40, 0.5, 42))
print(f"k = whole algebra, p empty: reproduces the compact verification "
      f"with negated constants (tau residual {rep.residuals['tau']:.2e})")
