"""Simulated paged storage with buffer pool and I/O accounting.

The paper measures "number of disk pages accessed" against an Oracle
9.2 back end with the Spatial Option switched *off* ("in order to
have a better control and understanding of the query execution
performance. All spatial indexes used in our experiments are
implemented by us").  This package recreates that setup: records are
laid out on fixed-size pages, reads go through an LRU buffer pool,
and every buffer miss counts as one page access.  A page is an id
with a class and a byte length; no query decodes a page, so none
holds bytes.  A configurable per-page latency converts page counts
into the simulated I/O seconds that enter "total time" in Figures
10–11.

One record store, :class:`LocatorStore`, lays out every structure
the queries read, clustered on its pages, with each record's page
resolved at layout: DMTM nodes and faces in z-order, MSDN chunks by
plane and position along the plane.
"""

from repro.storage.stats import IOStatistics, DiskModel, ThreadLocalIOStatistics
from repro.storage.pages import (
    BufferPool,
    PageManager,
    SimulatedDisk,
)
from repro.storage.faults import (
    FaultEvent,
    FaultInjector,
    FaultStats,
    RetryPolicy,
)
from repro.storage.locator import LocatorStore

__all__ = [
    "IOStatistics",
    "DiskModel",
    "ThreadLocalIOStatistics",
    "BufferPool",
    "PageManager",
    "SimulatedDisk",
    "FaultEvent",
    "FaultInjector",
    "FaultStats",
    "RetryPolicy",
    "LocatorStore",
]
