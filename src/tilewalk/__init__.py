"""Tile graphs of expanding circle maps: level-increasing random walks,
exact Green and Martin kernels, harmonic measures and their dimension."""

__version__ = "0.1.0"

import os

# numpy's OpenBLAS starts a thread per core when numpy is imported, a cost
# every command pays at start-up, while the only BLAS call here is the small
# polyfit of dimension_report.  The variable must be set before the first
# numpy import; a value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .symbolic import (
    ROOT,
    CircleRealization,
    SftMatrix,
    TileInterval,
    Word,
    enumerate_level,
    parent,
    parse_word,
    shift,
    tile_of,
    tiles_intersect,
)
from .tile_graph import (
    BudgetExceededError,
    HyperbolicityReport,
    TileGraph,
    build_graph,
    floyd_distance,
    flower,
    graph_distance,
    gromov_product,
    hyperbolicity_delta,
)
from .kernels import (
    DoublingKernel,
    EquivariantTableKernel,
    KernelError,
    LevelOverflowError,
    LiftAmbiguityError,
    TableSpec,
    ValidationReport,
    doubling_kernel,
    doubling_table_spec,
    extend_by_equivariance,
    load_table_spec,
    save_table_spec,
    validate_assumptions,
)
from .green_martin import (
    BoundaryClassification,
    GreenTable,
    MartinTrace,
    NeighborSet,
    check_multiplicative,
    classify_doubling_boundary,
    green_table,
    green_value,
    hitting_vector,
    martin_kernel,
    martin_trace,
    martin_traces,
    shadow_and_neighbors,
)
from .ergodics import (
    DimensionReport,
    DriftReport,
    EmpiricalMeasure,
    PathSample,
    cylinder_invariance_check,
    dimension_report,
    drift_exact,
    empirical_harmonic_measure,
    green_drift_estimate,
    quasi_invariance_check,
    sample_paths,
)
