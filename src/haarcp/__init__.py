"""Exact commuting probability for finite groups and finite-by-torus compact groups."""

from .builders import (
    alternating,
    cyclic,
    dihedral,
    extraspecial27_exponent3,
    extraspecial27_exponent9,
    klein4,
    quaternion8,
    sl25,
    symmetric,
    trivial,
)
from .classify import (
    ClassificationResult,
    Verdict,
    check_theorem1,
    check_theorem2_part1,
    classify_high_cp,
    scan_corpus,
)
from .compact import (
    CompactModel,
    build_model,
    cp_monte_carlo,
    cp_semianalytic,
    cp_theorem1,
    fc_center,
    finite_shadow,
    standard_model_battery,
)
from .cp import (
    cp_class_count,
    cp_coset_formula,
    cp_pair_count,
    format_rational,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    center,
    close_generators,
    conjugacy_classes,
    derived_subgroup,
    direct_product,
    is_solvable,
    quotient,
)
from .isoclinism import (
    IsoclinismWitness,
    find_isoclinism,
    find_stem_group,
    verify_isoclinism,
)
from .isomorphism import find_isomorphism

__version__ = "0.1.0"
