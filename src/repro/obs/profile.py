"""Phase profiles: deterministic, low-overhead cost attribution.

PR 4's lesson was that a 43× kernel win moved the end-to-end needle
only 1.11× — the cost had migrated, and nothing could say *where*.
A profile answers that question per query: a tree of named
**phases** (see :data:`PHASES`), each carrying wall time, invocation
count and counter deltas (settled nodes, relaxations, logical and
physical page reads by page class).

Design:

* The frames come from the one instrumentation seam,
  :meth:`repro.obs.context.ObsContext.phase`: under a profiling
  context each frame bills the :class:`PhaseNode` at its path, and
  frames with the same name under the same parent **aggregate**
  (flamegraph semantics: the tree is a call tree keyed by phase path,
  not one node per invocation).
* ``ObsContext.count(name, n)`` adds a counter delta to the registry
  and to the innermost open frame under the same name — the page
  manager and the graph kernels call it where they count, so the
  profile's counter totals reconcile with ``QueryMetrics`` and with
  the registry exactly.
* Without profiling no node is built, so un-profiled queries pay one
  attribute check per instrumented boundary (measured in CI: within
  10 % of the fully uninstrumented latency, bit-identical results).

The finished tree is exposed as :class:`Profile` —
``QueryResult.profile()`` — with a flamegraph-style
:meth:`Profile.render_tree` and a ``repro.profile/v1`` JSON record
(:func:`profile_record` / :func:`profile_from_record`) that
``python -m repro.obs.diff`` consumes for regression attribution.
"""

from __future__ import annotations

#: Schema tag of the JSON profile record.
PROFILE_SCHEMA = "repro.profile/v1"

#: The phase catalog (see docs/observability.md for the boundaries):
#: where each phase starts and ends in the MR3 stack, and whether a
#: tracing context records it as a span.  The leaves (``False``) run
#: once per kernel call or page miss, so they are profiled but never
#: traced: a span per call would bloat every trace, and the dict
#: kernels of the testkit's reference leg would give it a different
#: span tree from the production kernels.
PHASES = {
    "query": True,                 # every engine entry point's root
    "spatial-filter": True,        # MR3 steps 1 & 3: R-tree knn_2d / range_2d
    "interval-ranking": True,      # one per DistanceRanker resolution level
    "bound-composition": True,     # DMTM ub + MSDN lb updates within a level
    "graph-kernel": False,         # one per Dijkstra/A* kernel invocation
    "frontier-relaxation": False,  # one per frontier-batched kernel invocation
    "refinement": True,            # Kanai-Suzuki selective polish
    "landmark-bounds": True,       # landmark lower bounds and k-th ub seed per query
    "landmark-build": True,        # LandmarkIndex.build: selection + exact rows
    "shard-query": True,           # ShardedEngine.query root
    "shard-routing": True,         # ShardedEngine window choice and certification
    "shard-build": True,           # one tile-span window engine build
    "page-io": False,              # physical page fetches (buffer-pool misses)
}

#: The leaf phases: profiled, never traced.
UNTRACED_PHASES = frozenset(
    name for name, traced in PHASES.items() if not traced
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
    """Decorator factory wrapping a graph-search kernel in the leaf
    frame ``phase`` of the *active* context.

    Kernels are free functions without an engine handle, so they find
    the context through :func:`repro.obs.context.current`; without
    profiling (the default) the wrapper costs one context lookup and
    one attribute check per kernel call.  The frame only profiles —
    kernel phases are leaves, never traced — and the kernels count
    once per call into it, so the hot loops stay untouched.
    """
    import functools

    def decorate(fn):
        from repro.obs.context import current

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = current()
            if not ctx.profiling:
                return fn(*args, **kwargs)
            with ctx.phase(phase):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


#: The heap/dict kernels bill to ``graph-kernel``; the frontier-batched
#: kernels bill to ``frontier-relaxation`` via the same factory.
kernel_phase = kernel_phase_named("graph-kernel")
