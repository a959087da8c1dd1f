"""Geometric bipartite matching over compact incidence representations.

Points and ranges are never joined into an explicit incidence graph; covers
of complete bipartite parts stand in for it, and the flow, matching, and
bottleneck machinery runs directly on those parts.
"""

from .bottleneck import (
    BottleneckResult,
    DecideResult,
    PersistenceDiagram,
    bottleneck_search,
    decide,
    pd_bottleneck,
)
from .cover import (
    BicliqueCover,
    CoverReport,
    box_cover,
    cover_from_text,
    cover_size,
    cover_to_text,
    trivial_cover,
    validate_cover,
)
from .flow import (
    Flow,
    FlowNetwork,
    Matching,
    SupplyDemand,
    build_network,
    flow_to_matching,
    matching_value,
    max_flow_dinitz,
    validate_matching,
)
from .geometry import Box, Disk, Metric, Point, distance, rotate45, squared_distance
from .implicit_dinitz import max_matching_implicit
from .numeric import InputError, InternalError, parse_scalar, scalar_to_json
from .rblct import RbForest, prune_to_forest

__version__ = "0.1.0"

__all__ = [
    "BicliqueCover",
    "BottleneckResult",
    "Box",
    "CoverReport",
    "DecideResult",
    "Disk",
    "Flow",
    "FlowNetwork",
    "InputError",
    "InternalError",
    "Matching",
    "Metric",
    "PersistenceDiagram",
    "Point",
    "RbForest",
    "SupplyDemand",
    "bottleneck_search",
    "box_cover",
    "build_network",
    "cover_from_text",
    "cover_size",
    "cover_to_text",
    "decide",
    "distance",
    "flow_to_matching",
    "matching_value",
    "max_flow_dinitz",
    "max_matching_implicit",
    "parse_scalar",
    "pd_bottleneck",
    "prune_to_forest",
    "rotate45",
    "scalar_to_json",
    "squared_distance",
    "trivial_cover",
    "validate_cover",
    "validate_matching",
    "__version__",
]
