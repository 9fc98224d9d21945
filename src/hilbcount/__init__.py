"""Exact arithmetic over F_q and F_q[t], point counting in P^n(F_q(t)),
degree-2 point heights and counts, 0-cycle generating functions, Peyre
constants, and asymptotic lemma checks, with a CSV/JSON command-line front
end (`hilbcount`)."""

from .errors import (
    CharacteristicError,
    SizeError,
    UnstableCountError,
    WrongDegreeError,
)
from .fqarith import (
    FqField,
    Poly,
    all_polys,
    field_from_order,
    irreducibles_of_degree,
    quadratic_character,
    count_points_pn,
)
from .ratpoints import (
    ProjPointFqt,
    canonicalize,
    count_pairs_closed_subset,
    count_reducible_pairs,
    enumerate_exact_height,
    height_rational,
    point_count_exact_height,
    schanuel_constant,
)
from .quadfield import (
    DegreeTwoPoint,
    PlaceQ,
    QuadElem,
    QuadExt,
    INFINITE_PLACE,
    canonicalize_quadratic,
    enumerate_degree2,
    height_degree2,
    hilb2_split_counts,
    kt_main_term,
    splitting_type,
    valuation,
)
from .genfun import (
    TruncSeries,
    chen1_ratio,
    chen7_closed,
    chen8_closed,
    closed_point_counts,
    hilb_counts,
    sym_counts,
    zeta_p2_series,
)
from .peyre import (
    GlobalFieldParams,
    alpha_star_hilbm,
    cm_constant,
    euler_product_density,
    peyre_constant_hilb2,
    peyre_constant_hilbm,
    peyre_constant_pn,
    zeta_fqt,
)
from .asympt import (
    manin_main_term,
    product_main_term_check,
    symm_main_terms,
    technical2_check,
    technical_lemma_check,
    technical_sum,
)
from .cli import dispatch

__version__ = "0.1.0"
