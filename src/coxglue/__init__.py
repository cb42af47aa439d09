"""Exact reconstruction and certification of the right-angled hyperbolic
polytope gluings in dimension six: polytopes, face lattices, side-pairing
codes, properness and torsion certificates, and integral homology.
"""

from .coxeter import (
    DECK_GENERATOR,
    ORDER8_SYMMETRY,
    GroupConstants,
    SimplexGroupData,
    bernoulli,
    constants,
    group_orbit,
    sigma_permutation,
    simplex_generators,
)
from .gf2 import Gf2Matrix, Gf2Solution, columns_independent, gf2_solve
from .homology import (
    HomologyGroups,
    QuotientCellComplex,
    boundary_components,
    build_quotient_complex,
    cusp_sections,
    homology_groups,
)
from .lorentz import (
    lorentz_inner,
    reflection_in,
)
from .pairing import (
    EightPPairing,
    KElement,
    PairingCode,
    QSidePairing,
    decode_digit,
    decode_q_code,
    develop,
    encode_digit,
    orientability_of_code,
    parse_8p_pairing,
    published_pairing,
    restrict_code,
)
from .polytope import (
    FaceLattice,
    QPolytope,
    RightAngledPolytope,
    build_polytope,
    build_q,
    face_lattice,
)
from .search import search_pairings
from .smith import SmithDecomposition, invariant_factors, smith_normal_form
from .tables import ManifoldRecord, manifold_record, manifold_records
from .verify import (
    CodeMatrix,
    ManifoldCertificate,
    PropernessCertificate,
    TorsionCertificate,
    build_code_matrix,
    certify_manifold,
    extension_torsion_certificate,
    face_cycles_proper,
    pair_space_action,
    torsion_free_H,
)

__version__ = "0.1.0"
