"""Second-order jets along one-parameter subgroups, cross-checked against
central finite differences.

A jet carries (value, first, second derivative) of s -> f(x exp(sZ)) at
s = 0.  An entry's jet is read off x, xZ and xZ^2, and for polynomial f
the jet arithmetic is exact up to rounding, while finite differences carry
O(h^2) truncation error; the comparison shows the gap of roughly nine
orders of magnitude.  lgh itself measures only linear members such as the
entries, all of them in one contraction, and gets a polynomial in them
from their tau and kappa by the chain rule; the last section shows both
agree.
"""

import numpy as np

from lgh import matrices as M
from lgh.exprs import Entry, HomPoly
from lgh.jets import Jet2, frame_operators
from lgh.sampling import expm, sample_compact

gid = M.U(3)
basis = M.compact_basis(gid)
x = sample_compact(gid, 1, 0.5, seed=5).points[0]


def entry_jet(i, j, zs):
    """Jet of the entry x_ij along x exp(sZ_b) for each Z_b of the stack zs:
    (x_ij, (xZ_b)_ij, (xZ_b^2)_ij), 1-based."""
    xz = x @ zs
    return Jet2(x[i - 1, j - 1], xz[:, i - 1, j - 1], (xz @ zs)[:, i - 1, j - 1])


def f_jet(zs):
    """f = z_12^2 z_33 - (i/2) z_33^3 by Jet2 arithmetic on entry jets."""
    z12, z33 = entry_jet(1, 2, zs), entry_jet(3, 3, zs)
    return z12 * z12 * z33 - Jet2(0.5j, 0.0, 0.0) * z33 * z33 * z33


def f_value(y):
    return y[0, 1] ** 2 * y[2, 2] - 0.5j * y[2, 2] ** 3


print("=== jet vs central differences along one frame vector ===")
z = basis.matrices[4]
jet = f_jet(z[None])  # a one-vector frame
f1, f2 = complex(jet.f1[0]), complex(jet.f2[0])
h = 1e-4
vals = {s: f_value(x @ expm(s * z)) for s in (-h, 0.0, h)}
fd1 = (vals[h] - vals[-h]) / (2 * h)
fd2 = (vals[h] - 2 * vals[0.0] + vals[-h]) / h**2
print(f"first derivative   jet {f1:+.12f}")
print(f"                   fd  {fd1:+.12f}   |diff| = {abs(fd1 - f1):.2e}")
print(f"second derivative  jet {f2:+.12f}")
print(f"                   fd  {fd2:+.12f}   |diff| = {abs(fd2 - f2):.2e}")

print("\n=== tau and kappa as signed frame sums ===")
print("tau sums second derivatives over the orthonormal frame;")
print("kappa pairs first derivatives, complex-bilinearly, no conjugation.")
z11, z12 = entry_jet(1, 1, basis.matrices), entry_jet(1, 2, basis.matrices)
t = complex(np.sum(basis.signs * z11.f2))
print(f"tau(z_11)  = {t:+.12f}")
print(f"-3 * z_11  = {-3 * x[0, 0]:+.12f}   (closed form: tau(z_ij) = -n z_ij on U(n))")
k = complex(np.sum(basis.signs * z11.f1 * z12.f1))
print(f"kappa(z_11, z_12) = {k:+.12f}")
print(f"-z_12 z_11        = {-x[0, 1] * x[0, 0]:+.12f}   (closed form: -z_il z_kj)")
table = frame_operators([Entry(1, 1), Entry(1, 2)], [x], basis)
print(f"frame_operators, both members in one contraction: "
      f"tau {table.tau[0, 0]:+.6f}, kappa {table.kappa[0, 0, 1]:+.6f}")

print("\n=== one jet walk differentiates along the whole frame ===")
jet = f_jet(basis.matrices)
print(f"f1 along all {len(basis)} frame vectors in one pass: shape {np.shape(jet.f1)}")
print(f"tau(f) from the batch:      {complex(np.sum(basis.signs * jet.f2)):+.6f}")
poly = HomPoly({(2, 1): 1.0, (0, 3): -0.5j}, [Entry(1, 2), Entry(3, 3)])
chain = frame_operators([poly], [x], basis).tau[0, 0]
print(f"tau(f) by the chain rule:   {chain:+.6f}   (from the tau/kappa of z_12, z_33)")
