"""Exact splitting measures and pure braid group cohomology characters.

The package computes, in exact rational arithmetic:

* necklace and cycle polynomials, and the z-splitting measures they define
  on conjugacy classes of S_n;
* the characters h_n^k of S_n on pure braid group cohomology and the
  characters chi_n^k of the submodules A_n^k, with their closed forms;
* irreducible decompositions of all of these via the Murnaghan-Nakayama
  rule;
* a brute-force census of square-free polynomials over prime fields that
  confirms the counting interpretation of every formula.

The ``braidchar`` command line tool exposes the tables and a verification
suite; see the README for examples.
"""

from .partitions import (
    ClassData,
    Partition,
    class_data,
    format_partition,
    moebius,
    parse_partition,
    partitions,
    sign_character,
)
from .ratpoly import RatPoly, cycle_polynomial, necklace_polynomial, poly_binomial
from .measures import SplittingMeasure, measure_value, splitting_coefficients
from .characters import (
    ClassFunction,
    NoClosedFormError,
    a_character,
    b_character,
    b_character_signed,
    braid_character,
    closed_form_check,
    inner_product,
    sign_twisted_sum,
)
from .specht import (
    IrrepDecomposition,
    character_table,
    decompose,
    irreducible_character,
    irreducible_character_value,
    irrep_dimension,
)
from .fforacle import (
    BudgetError,
    CensusReport,
    FactorTypeTally,
    census_vs_theory,
    enumerate_irreducibles,
    factor_type,
    factor_type_census,
    is_squarefree,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CensusReport",
    "ClassData",
    "ClassFunction",
    "FactorTypeTally",
    "IrrepDecomposition",
    "NoClosedFormError",
    "Partition",
    "RatPoly",
    "SplittingMeasure",
    "a_character",
    "b_character",
    "b_character_signed",
    "braid_character",
    "census_vs_theory",
    "character_table",
    "class_data",
    "closed_form_check",
    "cycle_polynomial",
    "decompose",
    "enumerate_irreducibles",
    "factor_type",
    "factor_type_census",
    "format_partition",
    "inner_product",
    "irreducible_character",
    "irreducible_character_value",
    "irrep_dimension",
    "is_squarefree",
    "measure_value",
    "moebius",
    "necklace_polynomial",
    "parse_partition",
    "partitions",
    "poly_binomial",
    "sign_character",
    "sign_twisted_sum",
    "splitting_coefficients",
    "__version__",
]
