"""Growth, distortion, hyperbolicity, and concatenation-ambiguity toolkit.

Reduced words over free and product groups, Cayley-ball enumeration,
subgroup membership oracles with exact counting, subgroup distortion,
four-point hyperbolicity diagnostics, connected concatenation maps with
ambiguity measurement, and growth-rate bracketing from finite tables.
"""

__version__ = "0.1.0"

from .cayley import (
    Ball,
    DistortionTable,
    distortion,
    enumerate_ball,
    relative_ball,
    subgroup_word_length,
)
from .concat import (
    AmbiguityReport,
    ConnectorKit,
    build_connector_kit,
    concat_apply,
    fiber_size,
    have_common_power,
    measure_ambiguity,
    primitive_root,
    select_connector,
)
from .errors import (
    AmbiguityBudgetError,
    BallBudgetError,
    BudgetError,
    DependenceError,
    GroupMismatchError,
    GrowthlabError,
    HypothesisViolationError,
    InvariantViolationError,
    OracleBudgetError,
    ParseError,
    SearchBudgetError,
    TupleBudgetError,
    UnsupportedConfigurationError,
)
from .hyperbolic import (
    AcylindricityReport,
    DeltaEstimate,
    WordSample,
    acylindricity_witnesses,
    estimate_delta,
    gromov_product,
)
from .rate import (
    FuncSpec,
    RateEstimate,
    RateHypothesis,
    check_hypothesis,
    fekete_lower_bound,
    hypothesis_from_growth,
    parse_funcspec,
    root_sequence,
)
from .subgroups import (
    BudgetedEnumerationOracle,
    CyclicOracle,
    ProductOracle,
    StallingsOracle,
    SubgroupOracle,
    WholeGroupOracle,
    diagonal_oracle,
    parse_subgroup,
)
from .words import (
    Element,
    GroupDescriptor,
    distance,
    free_group,
    parse_element,
    parse_group,
    product_group,
)

__all__ = [name for name in dir() if not name.startswith("_")]
