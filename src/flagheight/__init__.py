"""Exact global heights of flag varieties from root-system data."""

from .rootsys import (
    CartanSpec,
    InvariantViolation,
    Root,
    RootSystem,
    build_root_system,
    parse_cartan_spec,
)
from .weyl import (
    DEFAULT_CAP,
    CosetList,
    GroupTooLarge,
    WeylElement,
    coset_representatives,
    dotted_act,
    enumerate_weyl,
    longest_element,
    to_dominant_dotted,
    w0_negates,
    weyl_order,
)
from .parabolic import (
    NotAmple,
    ParabolicData,
    PsiGrading,
    build_parabolic,
    check_ample,
    psi_grading,
)
from .charpoly import (
    BivariatePolynomial,
    dim_polynomial,
    dim_polynomial_parts,
    f_j,
    formal_character,
    graded_part,
    freudenthal,
    weyl_dim,
    weyl_product,
)
from .height import (
    HeightResult,
    MethodDisagreement,
    NotRegularY,
    default_y,
    denominator_check,
    height_all_methods,
    height_fixed_point,
    height_harmo_bott,
    height_substitution,
)
from .jantzen import (
    LogCharacterCombo,
    jantzen_rhs,
    jantzen_sizes,
    lambda0_component,
)

__version__ = "0.1.0"
