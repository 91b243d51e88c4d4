"""spinorlab: an exact-arithmetic verification laboratory for symplectic
spinor pairs.

Everything computes over the rationals (or polynomial/Laurent rings on top of
them); there is no floating point anywhere, so every verified identity holds
with zero residual.  The modules:

- ``rings``/``matrix``: the exact coefficient tower and linear algebra,
- ``lie``: symplectic representations and the multiplicity-freeness check,
- ``moment``: the quadratic moment map, its differential, the rank-one
  (Gaiotto) Higgs field and its characteristic invariants,
- ``petri``: the induced map on polynomial spinor sections and its kernel,
- ``cech``: two-term Cech models, hypercohomology, the diagram chase,
- ``hecke``: formal-disc pole modifications and gluing identities,
- ``cocycle``: symbolic reconstruction of symplectic transition matrices,
- ``bbflow``: graded scaling limits and fixed-point weight checks,
- ``rrdim``: dimension identities and the stability degree bookkeeping,
- ``suites``/``cli``: seeded, reproducible verification suites.
"""

from .rings import LaurentPoly, MultiPoly, UnsupportedRingError
from .matrix import (
    ExactMatrix,
    NotSymplecticError,
    ShapeError,
    char_poly,
    inverse,
    is_symplectic,
    mat_rank_kernel,
    rank,
    random_symplectic,
    random_symplectic_laurent,
    solve_linear,
    standard_omega,
    transvection,
)
from .lie import (
    InvariantFormError,
    MatrixLieAlgebra,
    RepFormatError,
    SaturationVerdict,
    Summand,
    SymplecticRep,
    almost_saturated_check,
    commutant,
    conjugate_rep,
    direct_sum,
    hom_space,
    rep_from_text,
    rep_to_text,
    sl2_algebra,
    sl2_standard,
    sl2_sym_cube,
    sl2_w_plus_wdual,
    sp_algebra,
    sp_standard,
    trivial_rep,
    verify_symplectic_rep,
)
from .moment import (
    InvalidContextError,
    MomentContext,
    equivariance_check,
    gaiotto_field,
    hitchin_invariants,
    is_nilpotent_cone_member,
    moment_differential,
    moment_map,
    moment_matrix,
)
from .petri import (
    PetriMatrix,
    SectionSpace,
    dual_pair_kernel_direction,
    in_petri_kernel,
    petri_kernel,
    petri_matrix,
    scalar_action_invariance,
)
from .cech import (
    ComplexMorphism,
    EulerCharError,
    InvalidModelError,
    TwoTermCechModel,
    euler_char,
    hypercohomology,
    j_injectivity_experiment,
    les_segment,
)
from .hecke import (
    HeckeFamily,
    HeckeIdentityError,
    PrimitivityError,
    TruncatedSeriesVector,
    glue_check,
    hecke_family,
    symplectic_complete,
    verify_symplectic_family,
)
from .cocycle import (
    BlockCocycle,
    InvalidCocycleError,
    ThetaDualError,
    assemble_transition,
    necessity_solve,
    standard_form,
    theta_dual,
    verify_form_preservation,
)
from .bbflow import (
    GradedHiggsModel,
    bb_limit,
    fixed_point_scale_check,
    graded_model,
    scaling_conjugate,
    strictly_filtered_phi,
)
from .rrdim import (
    BundleNumerics,
    InfeasibleCaseError,
    SubobjectCase,
    pair_euler_identity,
    rr_chi,
    stability_case_verdict,
    stability_scan,
    y_dimension_identity,
)
from .suites import ConfigError, SuiteConfig, SuiteReport, run_suite

__version__ = "0.1.0"
