"""A small GNU-Radio-like flowgraph framework.

The paper's prototype is a GNU Radio flowgraph: signal-processing blocks
connected in a DAG, scheduled single-threaded over an (effectively)
infinite sample stream.  This package reproduces the plumbing at chunk
granularity: blocks consume and produce *items* (chunks of samples,
metadata records, packets), a :class:`FlowGraph` wires them together, and
a deterministic scheduler streams a finite source through the graph.

Ports carry :class:`IOSignature` declarations (the analogue of GNU
Radio's ``io_signature``) and :meth:`FlowGraph.check` validates the
wiring statically before any sample flows.
"""

from repro.flowgraph.block import (
    ITEM_ANY,
    ITEM_CHUNK,
    ITEM_CLASSIFICATION,
    ITEM_DETECTION,
    ITEM_DISPATCH,
    ITEM_PACKET,
    SIG_ANY,
    Block,
    FunctionBlock,
    IOSignature,
    SinkBlock,
    SourceBlock,
)
from repro.flowgraph.graph import FlowGraph
from repro.flowgraph.blocks import (
    BufferChunkSource,
    CallbackSink,
    CollectSink,
    EnergyFilterBlock,
)
from repro.flowgraph.rfdump_graph import build_rfdump_graph

__all__ = [
    "ITEM_ANY",
    "ITEM_CHUNK",
    "ITEM_CLASSIFICATION",
    "ITEM_DETECTION",
    "ITEM_DISPATCH",
    "ITEM_PACKET",
    "SIG_ANY",
    "Block",
    "FunctionBlock",
    "IOSignature",
    "SinkBlock",
    "SourceBlock",
    "FlowGraph",
    "BufferChunkSource",
    "CallbackSink",
    "CollectSink",
    "EnergyFilterBlock",
    "build_rfdump_graph",
]
