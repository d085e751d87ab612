"""Numerical verification of harmonic-morphism identities on the classical
matrix Lie groups.

The library computes the tension field tau and the conformality operator
kappa of linear functions of matrix entries through exact second-order jets
along one-parameter subgroups, and of polynomials and quotients in them by
the chain rule.  It constructs eigenfamilies on SO(n), U(n)/SU(n) and Sp(n)
together with their rational harmonic morphisms, and carries every family
across the compact/non-compact duality with sign-flipped constants.  All
checks run on seeded random group samples and emit machine-readable
residual reports.
"""

from .duality import (
    DualPair,
    default_compact_family,
    dual_pair,
    group_frame,
    identity_pair,
    sample_noncompact,
    verify_dual_eigenfamily,
)
from .errors import (
    ConfigError,
    ConstructionError,
    DegeneracyError,
    DomainError,
    InconclusiveError,
    ValidationError,
)
from .exprs import Entry, Expr, HomPoly, LinearTrace, compose
from .families import (
    Eigenfamily,
    default_family,
    eigen_constants,
    maximal_isotropic_basis,
    measure_constants_residual,
    so4_deformation,
    so_family_V,
    so_family_special,
    sp_family,
    su_family,
    u_family,
    verify_coordinate_lemmas,
    verify_eigenfamily,
)
from .harness import RunConfig, run_suite
from .jets import FrameOperators, frame_operators
from .matrices import (
    SO,
    SU,
    Sp,
    U,
    GroupId,
    SignedBasis,
    compact_basis,
    generator,
    glc_split_basis,
    gram_schmidt_indefinite,
    signature_matrix,
    sl_r,
    so_pq,
    so_star,
    sp_pq,
    sp_r,
    su_pq,
    su_star,
    symplectic_matrix,
    trace_form,
    verify_matrix_identities,
)
from .morphisms import (
    RationalMorphism,
    mobius_transform,
    orthogonal_family,
    power_constants,
    power_family,
    quotient_morphism,
    random_morphism,
    random_morphisms,
    verify_harmonic_morphism,
    verify_quotient_condition,
)
from .report import VerificationReport
from .sampling import SampleSet, SplitMix64, sample_compact

__version__ = "0.1.0"
