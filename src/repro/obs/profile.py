"""Phase profiler: deterministic, low-overhead cost attribution.

PR 4's lesson was that a 43× kernel win moved the end-to-end needle
only 1.11× — the cost had migrated, and nothing could say *where*.
The profiler answers that question per query: a tree of named
**phases** (see :data:`PHASES`), each carrying wall time, invocation
count and counter deltas (settled nodes, relaxations, logical and
physical page reads by page class).

Design:

* A :class:`Profiler` keeps a *thread-local* stack of open
  :class:`PhaseNode` frames, exactly like the tracer's span stack.
  ``profiler.phase(name)`` opens a frame; frames with the same name
  under the same parent **aggregate** (flamegraph semantics: the tree
  is a call tree keyed by phase path, not one node per invocation).
* ``profiler.count(name, n)`` attributes a counter delta to the
  innermost open frame — the page manager and the graph kernels call
  it at the same points they feed the metrics registry, so the
  profile's counter totals reconcile with ``QueryMetrics`` exactly.
* A disabled profiler hands out a shared no-op phase and ``count``
  returns immediately, so un-profiled queries pay one attribute check
  per instrumented boundary (measured in CI: within 10 % of the
  fully uninstrumented latency, bit-identical results).

The finished tree is exposed as :class:`Profile` —
``QueryResult.profile()`` — with a flamegraph-style
:meth:`Profile.render_tree` and a ``repro.profile/v1`` JSON record
(:func:`profile_record` / :func:`profile_from_record`) that
``python -m repro.obs.diff`` consumes for regression attribution.
"""

from __future__ import annotations

import threading
import time

#: Schema tag of the JSON profile record.
PROFILE_SCHEMA = "repro.profile/v1"

#: The phase catalog (see docs/observability.md for the boundaries):
#: where each phase starts and ends in the MR3 stack.
PHASES = (
    "query",            # engine.query root
    "spatial-filter",   # MR3 steps 1 & 3: R-tree knn_2d / range_2d
    "interval-ranking", # one per DistanceRanker resolution level
    "bound-composition",# DMTM ub + MSDN lb updates within a level
    "graph-kernel",     # one per Dijkstra/A* kernel invocation
    "frontier-relaxation",  # one per frontier-batched kernel invocation
    "refinement",       # Kanai-Suzuki selective polish
    "landmark-bounds",  # landmark lower bounds and k-th ub seed per query
    "landmark-build",   # LandmarkIndex.build: selection + exact rows
    "shard-routing",    # ShardedEngine window choice and certification
    "page-io",          # physical page fetches (buffer-pool misses)
)


class PhaseNode:
    """One node of the aggregated phase tree.

    ``seconds``/``calls`` accumulate over every invocation of this
    phase at this tree position; ``counters`` holds the counter deltas
    attributed while this frame was innermost.  ``children`` is keyed
    by phase name (aggregation by path).
    """

    __slots__ = ("name", "seconds", "calls", "counters", "children", "_open")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.calls = 0
        self.counters: dict[str, float] = {}
        self.children: dict[str, "PhaseNode"] = {}
        self._open = 0  # re-entrancy guard: no double-counted seconds

    @property
    def child_seconds(self) -> float:
        return sum(c.seconds for c in self.children.values())

    @property
    def self_seconds(self) -> float:
        """Wall time spent in this phase excluding child phases."""
        return max(0.0, self.seconds - self.child_seconds)

    def walk(self):
        """Yield this node and every descendant, depth-first."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def to_dict(self) -> dict:
        """JSON-ready representation (``repro.profile/v1`` ``root``)."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "calls": self.calls,
            "counters": dict(self.counters),
            "children": [c.to_dict() for c in self.children.values()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseNode":
        node = cls(data["name"])
        node.seconds = float(data.get("seconds", 0.0))
        node.calls = int(data.get("calls", 0))
        node.counters = dict(data.get("counters", {}))
        for child in data.get("children", []):
            node.children[child["name"]] = cls.from_dict(child)
        return node


class _NoopPhase:
    """Shared do-nothing phase handed out by disabled profilers."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_PHASE = _NoopPhase()


class _PhaseContext:
    """Context manager binding one phase entry to a profiler stack."""

    __slots__ = ("_profiler", "_name", "_node", "_t0")

    def __init__(self, profiler: "Profiler", name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> PhaseNode:
        stack = self._profiler._stack()
        if stack:
            parent = stack[-1]
            node = parent.children.get(self._name)
            if node is None:
                node = PhaseNode(self._name)
                parent.children[self._name] = node
        else:
            node = PhaseNode(self._name)
        node._open += 1
        stack.append(node)
        self._node = node
        self._t0 = time.perf_counter()
        return node

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._t0
        node = self._node
        stack = self._profiler._stack()
        # Exception safety: the frame is always popped, like spans.
        if stack and stack[-1] is node:
            stack.pop()
        node._open -= 1
        if node._open == 0:
            # Re-entrant phases (a kernel phase inside a kernel phase)
            # only bill the outermost entry, so seconds never exceed
            # real wall time.
            node.seconds += elapsed
        node.calls += 1
        if not stack:
            self._profiler._record_root(node)
        return False  # never swallow the exception


class Profiler:
    """Collects per-query phase trees; disabled profilers are no-ops.

    One profiler per :class:`~repro.obs.context.ObsContext`.  The
    engine opens the ``"query"`` root phase around each query; nested
    instrumented sections (ranker levels, kernels, the page manager)
    open child phases through the *active* context, so the tree
    composes without plumbing a handle through every call.
    """

    def __init__(self, enabled: bool = True, max_profiles: int = 4096):
        self.enabled = enabled
        self.max_profiles = max_profiles
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: list[Profile] = []

    def _stack(self) -> list[PhaseNode]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def phase(self, name: str):
        """Open a (possibly aggregated) phase; use as a context manager."""
        if not self.enabled:
            return NOOP_PHASE
        return _PhaseContext(self, name)

    def leaf(self, name: str) -> PhaseNode | None:
        """The aggregated node of phase ``name`` under the innermost
        open phase, created on first use, or None when the profiler
        is disabled or no phase is open.

        For a hot leaf phase inside which nothing opens a phase or
        counts: the caller adds its seconds, calls and counters to the
        node itself, which records what opening the phase per call
        records without pushing a frame each time."""
        if not self.enabled:
            return None
        stack = self._stack()
        if not stack:
            return None
        children = stack[-1].children
        node = children.get(name)
        if node is None:
            node = children[name] = PhaseNode(name)
        return node

    def count(self, name: str, amount: float = 1) -> None:
        """Attribute a counter delta to the innermost open phase."""
        if not self.enabled:
            return
        stack = self._stack()
        if stack:
            counters = stack[-1].counters
            counters[name] = counters.get(name, 0) + amount

    def current(self) -> PhaseNode | None:
        """The innermost open phase on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _record_root(self, node: PhaseNode) -> None:
        with self._lock:
            self._finished.append(Profile(node))
            if len(self._finished) > self.max_profiles:
                del self._finished[: -self.max_profiles]

    def finished(self) -> list["Profile"]:
        """Finished root profiles, oldest first."""
        with self._lock:
            return list(self._finished)

    def take(self) -> list["Profile"]:
        """Return finished root profiles and clear the buffer."""
        with self._lock:
            profiles, self._finished = self._finished, []
        return profiles

    def adopt(self, profiles) -> None:
        """Absorb finished profiles from a child context's profiler."""
        with self._lock:
            self._finished.extend(profiles)
            if len(self._finished) > self.max_profiles:
                del self._finished[: -self.max_profiles]

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()
        self._stack().clear()


#: Shared disabled profiler — the default everywhere profiling is
#: optional.  ``phase()`` on it costs one ``if``.
NULL_PROFILER = Profiler(enabled=False)


class Profile:
    """A finished phase tree with aggregation and rendering helpers."""

    def __init__(self, root: PhaseNode, label: str | None = None):
        self.root = root
        self.label = label

    @property
    def total_seconds(self) -> float:
        return self.root.seconds

    def self_seconds_by_phase(self) -> dict[str, float]:
        """Exclusive (self) wall seconds aggregated by phase name.

        Sums to ``total_seconds`` exactly — the invariant obs.diff
        relies on to make phase attributions add up.
        """
        out: dict[str, float] = {}
        for node in self.root.walk():
            out[node.name] = out.get(node.name, 0.0) + node.self_seconds
        return out

    def counters_by_phase(self) -> dict[str, dict]:
        """Counter deltas aggregated by phase name."""
        out: dict[str, dict] = {}
        for node in self.root.walk():
            bucket = out.setdefault(node.name, {})
            for key, value in node.counters.items():
                bucket[key] = bucket.get(key, 0) + value
        return out

    def total_counters(self) -> dict:
        """Counter deltas aggregated over the whole tree — these equal
        the query's ``QueryMetrics`` totals (tested invariant)."""
        out: dict = {}
        for node in self.root.walk():
            for key, value in node.counters.items():
                out[key] = out.get(key, 0) + value
        return out

    def counter(self, name: str):
        return self.total_counters().get(name, 0)

    def render_tree(self, bar_width: int = 24) -> str:
        """Flamegraph-style text rendering of the phase tree."""
        total = self.root.seconds
        lines = []
        if self.label:
            lines.append(f"profile: {self.label}")

        def visit(node: PhaseNode, depth: int) -> None:
            share = node.seconds / total if total > 0 else 0.0
            bar = "#" * max(1 if node.seconds > 0 else 0,
                            round(share * bar_width))
            name = "  " * depth + node.name
            lines.append(
                f"{name:<28} {node.calls:>6}x {node.seconds * 1000:>10.3f} ms"
                f" {share:>7.1%}  {bar}"
            )
            interesting = {
                k: v for k, v in node.counters.items() if v
            }
            if interesting:
                detail = ", ".join(
                    f"{k}={v:g}" for k, v in sorted(interesting.items())
                )
                lines.append(f"{'  ' * (depth + 1)}[{detail}]")
            for child in node.children.values():
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)

    def to_record(self, label: str | None = None) -> dict:
        """One JSONL-ready ``repro.profile/v1`` record."""
        record = {
            "schema": PROFILE_SCHEMA,
            "total_seconds": self.total_seconds,
            "root": self.root.to_dict(),
        }
        tag = label if label is not None else self.label
        if tag is not None:
            record["label"] = tag
        return record

    @classmethod
    def from_record(cls, record: dict) -> "Profile":
        if record.get("schema") != PROFILE_SCHEMA:
            raise ValueError(
                f"not a {PROFILE_SCHEMA} record: {record.get('schema')!r}"
            )
        return cls(PhaseNode.from_dict(record["root"]),
                   label=record.get("label"))


def profile_record(profile: Profile, label: str | None = None) -> dict:
    """Module-level alias of :meth:`Profile.to_record`."""
    return profile.to_record(label=label)


def profile_from_record(record: dict) -> Profile:
    """Module-level alias of :meth:`Profile.from_record`."""
    return Profile.from_record(record)


def kernel_phase_named(phase: str):
    """Decorator factory wrapping a graph-search kernel in ``phase``
    on the *active* context's profiler.

    Kernels are free functions without an engine handle, so they find
    the profiler through :func:`repro.obs.context.active_profiler`;
    with profiling disabled (the default) the wrapper costs one
    context lookup and one attribute check per kernel call — the
    kernels themselves batch counters once per call, so the hot loops
    stay untouched.
    """
    import functools

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            from repro.obs.context import active_profiler

            profiler = active_profiler()
            if not profiler.enabled:
                return fn(*args, **kwargs)
            with profiler.phase(phase):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


#: The heap/dict kernels bill to ``graph-kernel``; the frontier-batched
#: kernels bill to ``frontier-relaxation`` via the same factory.
kernel_phase = kernel_phase_named("graph-kernel")
