"""Quantum-dot NAND-tree evaluation simulator.

Recursive single-particle Green's functions through binary trees of
tunnel-coupled dots with disorder and dephasing, probe-dot transmission
and finite-temperature Landauer conductance, H-fractal layout
compilation and device feasibility estimates.
"""

from .model import (
    GAMMA_FLOOR,
    DisorderSpec,
    DotParameters,
    LogicalForm,
    StructureError,
    TreeSpec,
    build_tree,
    ideal_parameters,
    sample_disorder,
    sample_disorder_many,
)
from .greens import (
    classify,
    green_tree,
    green_tree_derivative,
    green_tree_many,
    worst_case_profile,
    worst_case_tree,
)
from .dense import HamiltonianMatrix, NumericalError, assemble, green_direct
from .transport import (
    ConductanceTrace,
    ProbeSpec,
    QuadratureError,
    ReadoutResult,
    conductance,
    probe_green,
    readout,
    sweep,
    transmission,
    transmission_curve,
)
from .layout import (
    ChainedTree,
    FeasibilityReport,
    LayoutGraph,
    build_hfractal,
    chain_below,
    expand_to_tree,
    feasibility,
    hybrid_time,
    ideal_chain_parameters,
    inverter_counts,
    inverter_map,
    worst_case_2d,
)
from .classical import QueryStats, eval_nand, eval_randomized, oracle_expectation
from .ensemble import EnsembleResult, run_ensemble, shift_scaling

__version__ = "0.1.0"
