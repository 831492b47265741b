"""Block base classes and port signatures for the flowgraph framework."""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

# -- item kinds ---------------------------------------------------------------
#
# Every item that travels a flowgraph edge has a *kind*, the coarse type
# tag the static checker reasons about (GNU Radio's ``io_signature`` uses
# item size; our items are Python objects, so we tag them by shape):

#: wildcard — the port accepts / produces any item
ITEM_ANY = "any"
#: ``(start_sample, ndarray)`` chunk of IQ samples
ITEM_CHUNK = "chunk"
#: a window (:class:`repro.core.pipeline.WindowState`) whose peaks are
#: detected — the kinds below that carry a window name how far it has come
ITEM_DETECTION = "detection"
#: a :class:`repro.core.detectors.base.Classification`
ITEM_CLASSIFICATION = "classification"
#: a window whose classified ranges are dispatched
ITEM_DISPATCH = "dispatch"
#: a window whose dispatched ranges are demodulated into packets
ITEM_PACKET = "packet"


class IOSignature:
    """A GNU-Radio-``io_signature``-style port declaration.

    A signature names the item *kinds* a port carries and, for
    sample-bearing kinds, the numpy dtype of the payload.  ``dtype=None``
    means "any dtype"; a port may accept several kinds (the dispatcher
    consumes both detections and classifications).

    Signatures are checked *before* any sample flows by
    :meth:`repro.flowgraph.graph.FlowGraph.check`.
    """

    __slots__ = ("kinds", "dtype")

    def __init__(self, *kinds: str, dtype: Any = None):
        if not kinds:
            kinds = (ITEM_ANY,)
        self.kinds: Tuple[str, ...] = tuple(kinds)
        self.dtype = dtype

    @property
    def is_any(self) -> bool:
        return ITEM_ANY in self.kinds

    def accepts(self, upstream: "IOSignature") -> bool:
        """Can items produced under ``upstream`` flow into this port?"""
        if not (self.is_any or upstream.is_any
                or set(self.kinds) & set(upstream.kinds)):
            return False
        if self.dtype is None or upstream.dtype is None:
            return True
        import numpy as np

        return np.dtype(self.dtype) == np.dtype(upstream.dtype)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IOSignature)
                and self.kinds == other.kinds and self.dtype == other.dtype)

    def __repr__(self) -> str:
        kinds = "|".join(self.kinds)
        if self.dtype is not None:
            import numpy as np

            return f"sig({kinds}, dtype={np.dtype(self.dtype).name})"
        return f"sig({kinds})"


#: the permissive default signature: any kind, any dtype
SIG_ANY = IOSignature(ITEM_ANY)


class Block:
    """A processing stage in a flowgraph.

    Subclasses implement :meth:`work`, which consumes one input item and
    returns an iterable of output items (possibly empty — blocks may
    buffer internally and emit later).  :meth:`finish` is called once when
    the upstream is exhausted, to flush buffered state.

    ``in_sig`` / ``out_sig`` declare what the block's ports carry; they
    default to the permissive :data:`SIG_ANY` so ad-hoc blocks keep
    working, but the standard blocks declare precise signatures and
    :meth:`FlowGraph.check` enforces edge compatibility statically.
    """

    #: what the input port accepts (``None`` = no input port, i.e. a source)
    in_sig: Optional[IOSignature] = SIG_ANY
    #: what the output port produces (``None`` = no output port, i.e. a sink)
    out_sig: Optional[IOSignature] = SIG_ANY

    def __init__(self, name: Optional[str] = None):
        self.name = name or type(self).__name__

    def start(self) -> None:
        """Reset per-run state before a stream begins."""

    def work(self, item: Any) -> Iterable[Any]:
        """Process one input item, yielding zero or more output items."""
        raise NotImplementedError

    def finish(self) -> Iterable[Any]:
        """Flush buffered state at end of stream."""
        return ()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class SourceBlock(Block):
    """A stream origin: produces items instead of consuming them."""

    in_sig = None

    def items(self) -> Iterable[Any]:
        """Yield the finite stream this source produces."""
        raise NotImplementedError

    def work(self, item: Any) -> Iterable[Any]:
        raise TypeError(f"source block {self.name!r} cannot consume items")


class SinkBlock(Block):
    """A stream terminus: consumes items and produces nothing."""

    out_sig = None

    def work(self, item: Any) -> Iterable[Any]:
        self.consume(item)
        return ()

    def consume(self, item: Any) -> None:
        raise NotImplementedError


class FunctionBlock(Block):
    """Wrap a plain function ``item -> item | list | None`` as a block."""

    def __init__(self, func: Callable[[Any], Any], name: Optional[str] = None):
        super().__init__(name or getattr(func, "__name__", "function"))
        self._func = func

    def work(self, item: Any) -> List[Any]:
        result = self._func(item)
        if result is None:
            return []
        if isinstance(result, list):
            return result
        return [result]
