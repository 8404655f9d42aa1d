"""burnkit: a toolkit for k-burning processes on graphs.

Simulation and certification of burning schedules, a certified factor-3
approximation of the k-burning number, exact solving and fixed-source
scheduling at desk scale, closed-form results for paths, and generators
for the vertex-cover and 3-SAT hardness gadgets with certificate
mappings in both directions.
"""

from .approx import ApproxResult, approx_schedule, lower_bound, mis_power
from .burning import (
    BurnReport,
    Schedule,
    ScheduleError,
    check_labels,
    completion_closed_form,
    ignition_list,
    pad_schedule,
    parse_schedule,
    serialize_schedule,
    simulate,
)
from .exact import (
    SchedulingInstance,
    UndeterminedError,
    exact_burning_number,
    ordering_feasible,
    schedule_sources,
)
from .graph import (
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    bfs_distances,
    complete_graph,
    connected_components,
    cycle_graph,
    graph_from_edges,
    grid_graph,
    parse_graph,
    path_graph,
    serialize_graph,
    star_graph,
)
from .paths import optimal_path_schedule, path_burning_number, segment_sources
from .reductions import (
    Cnf3,
    ReductionError,
    SatInstance,
    VcInstance,
    assignment_to_schedule,
    build_sat_instance,
    build_vc_instance,
    original_edges,
    parse_dimacs_cnf,
    satisfies,
    schedule_to_assignment,
    schedule_to_vc,
    vc_to_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxResult",
    "BurnReport",
    "Cnf3",
    "Graph",
    "GraphFormatError",
    "MAX_VERTICES",
    "ReductionError",
    "SatInstance",
    "Schedule",
    "ScheduleError",
    "SchedulingInstance",
    "UndeterminedError",
    "VcInstance",
    "approx_schedule",
    "assignment_to_schedule",
    "bfs_distances",
    "build_sat_instance",
    "build_vc_instance",
    "check_labels",
    "complete_graph",
    "completion_closed_form",
    "connected_components",
    "cycle_graph",
    "exact_burning_number",
    "graph_from_edges",
    "grid_graph",
    "ignition_list",
    "lower_bound",
    "mis_power",
    "optimal_path_schedule",
    "ordering_feasible",
    "original_edges",
    "pad_schedule",
    "parse_dimacs_cnf",
    "parse_graph",
    "parse_schedule",
    "path_burning_number",
    "path_graph",
    "satisfies",
    "schedule_sources",
    "schedule_to_assignment",
    "schedule_to_vc",
    "segment_sources",
    "serialize_graph",
    "serialize_schedule",
    "simulate",
    "star_graph",
    "vc_to_schedule",
]
