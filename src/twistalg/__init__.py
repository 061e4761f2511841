"""Twisted convolution algebras of finite groupoids and their reconstruction
from Cartan semigroup data: restriction and domination relations,
ultrafilter groupoids, recovered twists, and MASA theorems, all at desk
scale with executable certificates."""

from .algebra import (
    AlgebraElement,
    MatrixImage,
    TwistedAlgebra,
    convolve,
    cstar_norm,
    diagonal,
    involution,
    is_diagonal,
    is_monomial,
    reduced_norm_formula,
    regular_representation,
    standard_contexts,
)
from .errors import ConsistencyError, InputError, NotCartanError
from .groupoid import (
    FiniteGroupoid,
    IsoResult,
    ValidationReport,
    all_bisections,
    groupoids_isomorphic,
    is_bisection,
    is_effective,
    standard_fixtures,
    validate_groupoid,
)
from .masa import (
    CommutantBasis,
    cartan_criterion,
    commutant_basis,
    is_masa,
    masa_implies_normalisers,
    normalisers_imply_masa_contrapositive,
)
from .reconstruction import (
    ReconstructionReport,
    TwistPoint,
    Ultrafilter,
    angle,
    check_filter_axioms,
    hat,
    magnitude,
    recover_cocycle,
    reconstruct,
    source_state,
    range_state,
    twist_point,
    ultrafilter_at,
    ultrafilter_product,
)
from .relations import (
    ApproximationResult,
    DominationWitness,
    ball_witness,
    certify_domination,
    dominated_approximation,
    dominates,
    interpolate,
    predomain_interpolant,
    restriction_le,
)
from .semigroups import (
    BisectionBasis,
    CartanReport,
    SemigroupSpec,
    check_cartan,
    compatible,
    csum_closure,
    membership,
)
from .twists import Cocycle, Phase, pauli_cocycle, twists_isomorphic

__version__ = "0.1.0"
