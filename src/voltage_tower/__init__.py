"""Constant Z_p-towers of graph coverings, exactly.

Build derived graphs of constant voltage assignments, compute the Iwasawa
invariants (mu, lambda, n0, nu) of the resulting towers from an exact
integer characteristic polynomial, and verify the p-adic spanning-tree
growth law against the spanning-tree counts of the tower.
"""

from .errors import (
    DocumentError,
    EmptyGraphError,
    InvalidPrimeError,
    InvalidSpecError,
    NonIntegralInterpolationError,
    NotAUnitError,
    NotConnectedError,
    NotSquareError,
    NoTowerError,
    StructureViolationError,
    TooLargeError,
    VoltageTowerError,
    ZeroPolynomialError,
)
from .graph import (
    CycleWeightProfile,
    DegreeProfile,
    DirectedMultigraph,
    adjacency_matrix,
    components,
    cycle_weight_profile,
    degree_profile,
    is_adjacency_normal,
    is_total_degree_constant,
    subgraph,
)
from .generators import (
    AugmentedVolcanoShape,
    CraterSpec,
    VolcanoShape,
    VolcanoSpec,
    bouquet,
    directed_cycle,
    doubled,
    is_augmented_volcano,
    is_double_crater,
    recognize_augmented_volcano,
    recognize_volcano,
    total_degree,
    volcano,
    volcano_total_degree,
)
from .iwasawa import (
    IwasawaInvariants,
    TheoremHypotheses,
    TowerLevel,
    TowerReport,
    char_poly,
    check_theorem_hypotheses,
    invariants,
    verify_growth,
    weierstrass,
)
from .linalg import (
    IntMatrix,
    brute_force_spanning_trees,
    cyclotomic_resultants,
    determinant,
    kirchhoff_count,
)
from .polynomial import IntPolynomial
from .tower import (
    ConstantVoltage,
    DerivedGraph,
    derive,
    predicted_component_count,
    stabilization_level,
    tower_component,
)

__version__ = "0.1.0"
