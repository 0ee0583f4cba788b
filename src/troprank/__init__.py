"""troprank: exact min-plus matrix ranks and their geometric certificates.

The toolkit computes the tropical rank (largest nonsingular submatrix),
Barvinok rank (min-plus factorization rank), and lift-based rank bounds of
exact rational min-plus matrices; builds the projective-plane incidence
matrices that separate those ranks; decides rank-3 realizability of (0,1)
incidence patterns over the rationals, small finite fields, or floats; and
compiles Boolean/polynomial systems into incidence patterns whose rank-3
realizability encodes their solvability.
"""

__version__ = "0.1.0"

from .assignment import (
    AssignmentCertificate,
    brute_force_determinant,
    is_nonsingular,
    tropical_determinant,
)
from .barvinok import BarvinokFactorization, BarvinokResult, barvinok_rank
from .galois import GaloisField, UnsupportedOrder, make_field
from .patterns import (
    Configuration,
    IncidencePattern,
    check_realization_exact,
    check_realization_float,
    format_configuration,
    parse_configuration,
)
from .plane import (
    PlaneAxiomError,
    ProjectivePlane,
    format_plane_sidecar,
    incidence_matrix,
    projective_plane,
)
from .rank import RankResult, sample_level_singular, tropical_rank
from .realize import (
    BoundsReport,
    ProvedInfeasible,
    Realized,
    RealizeBudget,
    Unknown,
    kapranov_bounds,
    realize_rank3,
)
from .reduction import (
    CompiledPattern,
    CompileError,
    GadgetProgram,
    HardenInfo,
    PolySystem,
    ReductionVerdict,
    cnf_to_polys,
    compile_system,
    format_poly_system,
    format_provenance,
    harden,
    parse_dimacs,
    parse_poly_system,
    verify_reduction,
)
from .series import (
    IndeterminateAtTruncation,
    LiftMatrix,
    LiftVerdict,
    SeriesRankResult,
    format_lift,
    lift_from_configuration,
    parse_lift,
    series_rank,
    verify_lift,
)
from .tropical import (
    INF,
    TropicalMatrix,
    format_matrix,
    format_value,
    min_plus_multiply,
    parse_matrix,
    tropical_scale,
)
