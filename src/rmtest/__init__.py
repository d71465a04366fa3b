"""rmtest: exact polynomial algebra over prime fields and
multiplication-based Reed-Muller membership tests, with enumeration
oracles and seeded Monte Carlo estimators."""

from .algebra import (
    EvalTable,
    Monomial,
    Polynomial,
    interpolate,
    mul_reduced,
    poly_from_text,
    poly_to_text,
    random_polynomial,
)
from .errors import (
    DegenerateFormError,
    InfeasibleInstanceError,
    ParamsMismatchError,
    StructureError,
    ZeroPolynomialError,
)
from .estimator import EstimateResult, estimate, get_budget
from .genbasis import FieldOrdering
from .rmcode import CodeParams, character_membership, distance, is_member
from .sztest import degree_drop_probability, tight_witness, verify_tightness

__version__ = "0.1.0"

__all__ = [
    "CodeParams",
    "DegenerateFormError",
    "EstimateResult",
    "EvalTable",
    "FieldOrdering",
    "InfeasibleInstanceError",
    "Monomial",
    "ParamsMismatchError",
    "Polynomial",
    "StructureError",
    "ZeroPolynomialError",
    "character_membership",
    "degree_drop_probability",
    "distance",
    "estimate",
    "get_budget",
    "interpolate",
    "is_member",
    "mul_reduced",
    "poly_from_text",
    "poly_to_text",
    "random_polynomial",
    "tight_witness",
    "verify_tightness",
]
