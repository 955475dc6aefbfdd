"""Exception hierarchy for the surfknn library.

Every error raised by this package derives from :class:`SurfKnnError`
so that callers can catch library failures with a single handler while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class SurfKnnError(Exception):
    """Base class for all errors raised by the surfknn library."""


class GeometryError(SurfKnnError):
    """A geometric computation received degenerate or invalid input."""


class MeshError(SurfKnnError):
    """A mesh is malformed (non-manifold, empty, inconsistent indices)."""


class TerrainError(SurfKnnError):
    """A DEM or terrain model is malformed or out of range."""


class SpatialIndexError(SurfKnnError):
    """A spatial index was used incorrectly."""


class StorageError(SurfKnnError):
    """The paged storage layer detected an inconsistency."""


class PageReadError(StorageError):
    """A page read failed after exhausting the retry policy (the
    simulated disk kept returning transient faults)."""


class PageCorruptionError(StorageError):
    """A page read came back corrupt on every retry — a failed CRC
    check: the stored data no longer matches what was written."""


class QuarantinedPageError(StorageError):
    """A read was refused without touching the disk because the page
    is quarantined (a previous read exhausted the retry policy and the
    page has not yet been readmitted through probation)."""


class SimplificationError(SurfKnnError):
    """Mesh simplification could not make progress."""


class MultiresError(SurfKnnError):
    """A multiresolution structure (DM/DDM/DMTM) is inconsistent."""


class QueryError(SurfKnnError):
    """A query was malformed (bad k, query point off the terrain...)."""


class GeodesicError(SurfKnnError):
    """A shortest-path computation failed (disconnected, degenerate)."""
