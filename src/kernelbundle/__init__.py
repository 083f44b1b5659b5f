"""Kernel bundles of holomorphic matrix families.

Locates the singular set of a matrix family P(y, sigma) holomorphic in sigma,
reduces it near each singular point by a Schur complement with bases frozen at
a base point, builds canonical frames of the space of germs of meromorphic
P-kernel elements, pairs them against dual frames to obtain transition
coefficients, and maps germ Laurent data to trace expansions.
"""

from .errors import (
    ClusteredPolesError,
    ConfigurationError,
    DimensionJumpError,
    InputError,
    KernelBundleError,
    NondegeneracyError,
    NumericalError,
    RankGapError,
    ReductionInvalidError,
    RegionError,
    ResolutionError,
    SectionResidualError,
    SpecError,
    ValidationError,
    ZeroOnContourError,
)
from .contour import (
    Circle,
    Rectangle,
    SampledFunction,
    ZeroReport,
    cauchy_moment,
    count_zeros,
    locate_zeros,
    singular_part_at_nodes,
    singular_part_eval,
)
from .family import (
    FamilyChart,
    PolyTerm,
    SigmaRegion,
    SturmLiouvilleSpec,
    branching_chart,
    family_from_dict,
    indicial_chart,
    jordan_chart,
    matrix_polynomial_chart,
    sigma_strip,
    sl_assemble,
    sl_blocks,
    sl_chart,
    validate_chart,
)
from .reduction import (
    BasePointData,
    SchurEvaluator,
    base_point_data,
    kernel_cokernel,
    local_multiplicity,
    validate_neighborhood,
)
from .keldysh import (
    DualRootSystem,
    RootSystem,
    dual_root_functions,
    root_functions,
    taylor_coefficients,
)
from .frames import (
    FrameSet,
    Germ,
    frames_at,
    independence_check,
    laurent_coefficients,
    make_germ,
)
from .pairing import (
    CoefficientVector,
    PairingMatrix,
    coefficients,
    expected_base_pairing,
    pairing_matrix,
)
from .shell import (
    ParameterGrid,
    SweepReport,
    TraceExpansion,
    branching_diagram,
    canonical_systems,
    germ_from_trace,
    load_problem,
    load_problem_file,
    probe_from_spec,
    second_divided_differences,
    sweep,
    trace_from_germ,
)

__version__ = "0.1.0"
