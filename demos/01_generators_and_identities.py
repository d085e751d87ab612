"""Generators of gl(n), the six summation identities, and indefinite
Gram-Schmidt.

The matrices E_ij, D_t, X_rs, Y_rs generate everything downstream: compact
bases are built from them, and the closed-form tau/kappa relations reduce
to six identities about sums of their squares and sandwich products.
"""

import numpy as np

from lgh import matrices as M

np.set_printoptions(precision=4, suppress=True, linewidth=120)

print("=== canonical generators (n = 3) ===")
print("E_12:\n", M.generator("E", (1, 2), 3).real)
print("X_12 = (E_12 + E_21)/sqrt(2):\n", M.generator("X", (1, 2), 3).real)
print("Y_12 = (E_12 - E_21)/sqrt(2):\n", M.generator("Y", (1, 2), 3).real)

print("\n=== the six summation identities, n = 2..10 ===")
for n in range(2, 11):
    rep = M.verify_matrix_identities(n)
    print(f"n={n:2d}  max residual {rep.max_residual:.3e}  pass={rep.passed}")

print("\n=== compact orthonormal bases ===")
for gid in (M.SO(4), M.U(3), M.SU(3), M.Sp(2)):
    basis = M.compact_basis(gid)
    mats = basis.matrices
    gram = np.einsum("aij,bij->ab", mats, mats.conj()).real
    dev = np.max(np.abs(gram - np.eye(len(basis))))
    print(f"{gid}: {len(basis)} vectors, orthonormality deviation {dev:.2e}")

print("\n=== Gram-Schmidt under the indefinite form Re trace(ZW) ===")
x12 = M.generator("X", (1, 2), 2)
y12 = M.generator("Y", (1, 2), 2)
print("input span: X_12 and X_12 + Y_12 (the second vector is isotropic)")
out = M.gram_schmidt_indefinite([x12, x12 + y12])
for z, sign in zip(out.matrices, out.signs):
    print(f"  sign {sign:+.0f}:\n{np.round(z.real, 4)}")
print("pivoting on max |B(v,v)| avoided the isotropic direction;")
print("the result is the signed frame {(X_12, +1), (Y_12, -1)}.")

print("\n=== the split of gl(n,C) under the same form ===")
plus, minus = M.glc_split_basis(2)
print(f"Hermitian part: {len(plus)} vectors with B(Z,Z) = +1")
print(f"skew-Hermitian part: {len(minus)} vectors with B(Z,Z) = -1")
