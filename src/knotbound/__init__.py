"""knotbound: braid-closure knot invariants and braid-index bounds."""

from .braid import (
    BraidWord,
    QPFactorization,
    BraidError,
    PreconditionFailed,
    NotDestabilizable,
    EngineInconsistency,
    parse_braid_word,
    free_reduce,
    writhe,
    closure_components,
    garside_normal_form,
    canonical_closure_key,
    destabilize,
    expand_qp,
    g4_from_qp,
)
from .laurent import LaurentPoly1, LaurentPoly2, AQPolynomial, to_aq, a_degree_range
from .homfly import homfly
from .seifert import seifert_matrix, signature, determinant, alexander
from .khovanov import braid_to_pd, reduced_khovanov, poincare_polynomial
from .bounds import (
    BoundReport,
    TrigradedDims,
    QuadrantDatum,
    mfw_report,
    kr_report,
    thin_reconstruct,
    delta_range,
    skein_triangle,
    destabilization_deficit,
    grading_convert,
    bennequin,
    quadrant_check,
    slice_bennequin_check,
)

__version__ = "0.1.0"
