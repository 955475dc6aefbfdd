"""MSDN — the Multiresolution Support Distance Network.

The paper's second core structure: a stack of *Support Distance
Networks* (SDNs) derived from plane-sweep **crossing lines** (terrain
∩ axis-aligned vertical planes).  Treating each (simplified) crossing
line segment as a node and weighting inter-plane links by the minimum
distance between segment MBRs yields Dijkstra distances that **lower
bound** the surface distance — tightening monotonically as more
planes / finer segments are used, because simplified-segment MBRs
always *enclose* the MBRs they replace.
"""

from repro.msdn.crossing import crossing_line, plane_positions
from repro.msdn.sdn import SdnFamily, build_sdn_families
from repro.msdn.msdn import MSDN, LowerBoundResult

__all__ = [
    "crossing_line",
    "plane_positions",
    "SdnFamily",
    "build_sdn_families",
    "MSDN",
    "LowerBoundResult",
]
