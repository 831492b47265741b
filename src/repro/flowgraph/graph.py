"""FlowGraph wiring and the deterministic single-threaded scheduler."""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Set

from repro.errors import FlowGraphError, SchedulerError
from repro.flowgraph.block import Block, SourceBlock


class FlowGraph:
    """A DAG of blocks streaming items from sources to sinks.

    Mirrors the GNU Radio model the paper's prototype used: connect blocks,
    then :meth:`run`.  The scheduler is single-threaded and deterministic —
    items propagate depth-first in connection order — which matches the
    paper's measurement setup (GNU Radio had no multithreading in 2009).

    With ``obs`` (a :class:`repro.obs.Observability`) attached, the
    scheduler counts every item each block consumes — and, for items
    that look like sample buffers, the samples — under
    ``flowgraph_items_total{block=...}`` / ``flowgraph_samples_total``,
    the per-block load numbers Table 1 reasons about.
    """

    def __init__(self, obs=None):
        self._edges: Dict[Block, List[Block]] = {}
        self._blocks: List[Block] = []
        self.obs = obs
        #: cached outcome of :meth:`check`; invalidated by any wiring change
        self._validated = False

    def _count(self, block: Block, item: Any) -> None:
        if not self.obs:
            return
        self.obs.counter(
            "flowgraph_items_total",
            help="items processed per flowgraph block",
            block=block.name,
        ).inc()
        if hasattr(item, "samples") and hasattr(item, "__len__"):
            self.obs.counter(
                "flowgraph_samples_total",
                help="samples processed per flowgraph block",
                block=block.name,
            ).inc(len(item))

    def add(self, block: Block) -> Block:
        if block not in self._blocks:
            self._blocks.append(block)
            self._edges.setdefault(block, [])
            self._validated = False
        return block

    def connect(self, src: Block, dst: Block) -> "FlowGraph":
        """Add an edge src -> dst; both blocks are registered implicitly."""
        self.add(src)
        self.add(dst)
        if isinstance(dst, SourceBlock):
            raise FlowGraphError(
                f"cannot connect {src.name!r} into source block {dst.name!r}: "
                "sources have no input port"
            )
        self._edges[src].append(dst)
        self._validated = False
        self._check_acyclic()
        return self

    def chain(self, *blocks: Block) -> "FlowGraph":
        """Connect blocks in sequence: a -> b -> c ..."""
        for src, dst in zip(blocks, blocks[1:]):
            self.connect(src, dst)
        return self

    @property
    def blocks(self) -> List[Block]:
        return list(self._blocks)

    def successors(self, block: Block) -> List[Block]:
        return list(self._edges.get(block, []))

    def _check_acyclic(self) -> None:
        seen: Set[Block] = set()
        stack: List[Block] = []
        on_stack: Set[Block] = set()

        def visit(node: Block):
            if node in on_stack:
                cycle = stack[stack.index(node):] + [node]
                path = " -> ".join(repr(b.name) for b in cycle)
                raise FlowGraphError(f"flowgraph contains a cycle: {path}")
            if node in seen:
                return
            stack.append(node)
            on_stack.add(node)
            for nxt in self._edges.get(node, []):
                visit(nxt)
            stack.pop()
            on_stack.discard(node)
            seen.add(node)

        for block in self._blocks:
            visit(block)

    # -- static validation ---------------------------------------------------

    def check(self) -> "FlowGraph":
        """Validate the wiring before any sample flows.

        The static analogue of GNU Radio's ``io_signature`` validation:
        every edge must connect an output port to a compatible input port,
        every registered block must actually be wired into the stream, the
        graph must be acyclic, and there must be something to stream from.
        Raises :class:`FlowGraphError` (or its :class:`SchedulerError`
        subclass for the no-source case) with a message naming the
        offending blocks.  Called by :meth:`run` before execution, so a
        mis-wired graph fails at build time, not mid-stream.

        The verdict is cached: once a wiring has validated, subsequent
        calls (every :meth:`run`, e.g. once per streaming window) return
        immediately, and any :meth:`connect`/:meth:`add` invalidates the
        cache — streaming callers no longer pay O(V+E) per window.
        """
        if self._validated:
            return self
        if not any(isinstance(b, SourceBlock) for b in self._blocks):
            raise SchedulerError("flowgraph has no source block")
        self._check_acyclic()

        predecessors: Dict[Block, List[Block]] = {b: [] for b in self._blocks}
        for src, dsts in self._edges.items():
            for dst in dsts:
                predecessors[dst].append(src)
                if isinstance(dst, SourceBlock) or dst.in_sig is None:
                    raise FlowGraphError(
                        f"cannot connect {src.name!r} into {dst.name!r}: "
                        f"{dst.name!r} has no input port"
                    )
                if src.out_sig is None:
                    raise FlowGraphError(
                        f"cannot connect {src.name!r} into {dst.name!r}: "
                        f"sink block {src.name!r} has no output port"
                    )
                if not dst.in_sig.accepts(src.out_sig):
                    raise FlowGraphError(
                        f"signature mismatch on edge {src.name!r} -> "
                        f"{dst.name!r}: upstream produces {src.out_sig} but "
                        f"downstream accepts {dst.in_sig}"
                    )

        for block in self._blocks:
            if not isinstance(block, SourceBlock) and not predecessors[block]:
                raise FlowGraphError(
                    f"input port of block {block.name!r} is unconnected: "
                    "no upstream feeds it"
                )
            if block.out_sig is not None and not self._edges.get(block):
                raise FlowGraphError(
                    f"output port of block {block.name!r} is unconnected: "
                    "its items would be silently dropped"
                )
        self._validated = True
        return self

    def _topological(self) -> List[Block]:
        order: List[Block] = []
        indegree = {b: 0 for b in self._blocks}
        for src, dsts in self._edges.items():
            for dst in dsts:
                indegree[dst] += 1
        ready = deque(b for b in self._blocks if indegree[b] == 0)
        while ready:
            node = ready.popleft()
            order.append(node)
            for nxt in self._edges.get(node, []):
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self._blocks):
            raise FlowGraphError("flowgraph contains a cycle")
        return order

    # -- execution -----------------------------------------------------------

    def _propagate(self, block: Block, item: Any) -> None:
        self._count(block, item)
        outputs = block.work(item)
        if outputs is None:
            return
        for out in outputs:
            for nxt in self._edges.get(block, []):
                self._propagate(nxt, out)

    def run(self) -> None:
        """Stream every source to exhaustion, then flush all blocks.

        :meth:`check` runs first: a mis-wired graph (type mismatch,
        dangling port, cycle) fails here, before any sample flows.
        """
        self.check()
        sources = [b for b in self._blocks if isinstance(b, SourceBlock)]
        order = self._topological()
        for block in order:
            block.start()
        for source in sources:
            for item in source.items():
                self._count(source, item)
                for nxt in self._edges.get(source, []):
                    self._propagate(nxt, item)
        # flush in topological order so downstream blocks see upstream tails
        for block in order:
            if isinstance(block, SourceBlock):
                continue
            for out in block.finish():
                for nxt in self._edges.get(block, []):
                    self._propagate(nxt, out)
