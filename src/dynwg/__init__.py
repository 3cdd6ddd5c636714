"""dynwg: exact dynamical Weyl group operators for semisimple Lie algebras,
with rank-1 geometric transition verification.  The public API is __all__,
listed with a reason for each name in the README's "Library API" section."""

from .dynweyl import (
    OperatorBlock,
    classical_limit,
    rank1_coefficient,
    simple_reflection_block,
    word_operator_block,
)
from .geomsatake import (
    costalk_weights,
    generic_transition,
    hyperbolic_transition,
    levi_restriction_check,
    verify_main_theorem_rank1,
)
from .ratfun import DegreeOneForm, Polynomial, RatFun
from .rep import (
    Irrep,
    build_irrep,
    freudenthal_multiplicity,
    sl2_strings,
    weyl_dimension,
)
from .rootdata import LieType, Weight, act, crossing_coroots, is_reduced

__version__ = "0.1.0"

__all__ = [
    "DegreeOneForm",
    "Irrep",
    "LieType",
    "OperatorBlock",
    "Polynomial",
    "RatFun",
    "Weight",
    "act",
    "build_irrep",
    "classical_limit",
    "costalk_weights",
    "crossing_coroots",
    "freudenthal_multiplicity",
    "generic_transition",
    "hyperbolic_transition",
    "is_reduced",
    "levi_restriction_check",
    "rank1_coefficient",
    "simple_reflection_block",
    "sl2_strings",
    "verify_main_theorem_rank1",
    "weyl_dimension",
    "word_operator_block",
]
