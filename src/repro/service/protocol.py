"""Wire framing for the ``rfdumpd`` socket protocol.

Every frame is one newline-terminated JSON object (the header).  A
frame that carries binary data declares ``nbytes`` and the payload —
raw little-endian complex64 IQ samples, the on-disk trace format —
follows immediately after the newline.  JSON headers keep the protocol
inspectable with ``nc``; binary payloads keep a 2 Msps stream off the
base64 tax.

Frame vocabulary (``type`` field):

==============  ======  =====================================================
frame           dir     meaning
==============  ======  =====================================================
``hello``       c -> s  handshake; ``role`` is ``ingest`` or ``subscribe``
``welcome``     s -> c  handshake accepted
``error``       s -> c  handshake or stream rejected; connection closes
``window``      c -> s  one IQ window; ``seq``, ``start_sample``, payload
``end``         c -> s  ingest stream complete; daemon flushes the monitor
``done``        s -> c  flush finished; totals for the ingest session
``event``       s -> c  one :class:`repro.core.PacketEvent` as its dict form
``eos``         s -> c  event stream complete (monitor flushed)
``bye``         s -> c  subscriber disconnected by policy (slow consumer)
==============  ======  =====================================================

Sequence numbers appear at two layers on purpose: ``window.seq`` is the
*ingest* sequence (gap detection on the sample stream), while
``event.seq`` inside the event payload is the *monitor* sequence
assigned by ``Monitor.events()`` (gap detection between daemon and
subscriber).
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.dsp.samples import SampleBuffer
from repro.errors import ServiceProtocolError
from repro.util.timebase import Timebase

#: bumped on any incompatible change to the frame vocabulary
PROTOCOL_VERSION = 1

#: cap on a single JSON header line; a longer line is a corrupt or
#: hostile stream, not a bigger frame
MAX_HEADER_BYTES = 1 << 20

#: cap on a binary payload (64 Mi samples); windows are milliseconds of
#: IQ, so anything near this is a corrupt length field
MAX_PAYLOAD_BYTES = 1 << 29

_WINDOW_DTYPE = np.complex64


def send_frame(wfile, header: Dict, payload: bytes = b"") -> None:
    """Write one frame: JSON header line, then the optional payload."""
    if payload:
        header = dict(header, nbytes=len(payload))
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    wfile.write(line.encode("utf-8") + b"\n")
    if payload:
        wfile.write(payload)
    wfile.flush()


class ReceiveBuffer:
    """One ingest session's payload buffer, reused for every frame.

    It is allocated as complex64, so a window wrapped in place is
    aligned, and grows to the largest payload the session has received.
    A payload read into it is valid until the next frame is read into
    it: the monitor keeps nothing of a window once ``process()`` returns,
    which is what makes one buffer per session safe.
    """

    def __init__(self):
        self._samples = np.empty(0, dtype=_WINDOW_DTYPE)

    def take(self, nbytes: int) -> memoryview:
        """The buffer's first ``nbytes`` bytes, writable."""
        if nbytes > self._samples.nbytes:
            itemsize = self._samples.itemsize
            self._samples = np.empty(-(-nbytes // itemsize),
                                     dtype=_WINDOW_DTYPE)
        return memoryview(self._samples.view(np.uint8))[:nbytes]


def recv_frame(rfile, into: Optional[ReceiveBuffer] = None
               ) -> Optional[Tuple[Dict, Union[bytes, memoryview]]]:
    """Read one frame; ``None`` on a clean EOF before any header byte.

    The payload is read into ``into`` (a fresh buffer when omitted) and
    returned as a view of it; a frame without one returns ``b""``.
    Raises :class:`~repro.errors.ServiceProtocolError` on a malformed
    header or a payload truncated mid-frame.
    """
    line = rfile.readline(MAX_HEADER_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_HEADER_BYTES:
        raise ServiceProtocolError(
            f"frame header exceeds {MAX_HEADER_BYTES} bytes"
        )
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise ServiceProtocolError(f"malformed frame header: {exc}") from exc
    if not isinstance(header, dict) or "type" not in header:
        raise ServiceProtocolError("frame header must be an object with 'type'")
    nbytes = int(header.get("nbytes", 0))
    if nbytes < 0 or nbytes > MAX_PAYLOAD_BYTES:
        raise ServiceProtocolError(f"implausible frame payload size {nbytes}")
    if not nbytes:
        return header, b""
    payload = (ReceiveBuffer() if into is None else into).take(nbytes)
    got = 0
    while got < nbytes:
        n = rfile.readinto(payload[got:])
        if not n:
            raise ServiceProtocolError(
                f"stream ended {nbytes - got} bytes short of a "
                f"{nbytes}-byte payload"
            )
        got += n
    return header, payload


# -- window frames -------------------------------------------------------------


def window_frame(buffer: SampleBuffer) -> Tuple[Dict, bytes]:
    """Header fields + payload for one IQ window (``seq`` added by caller)."""
    payload = np.ascontiguousarray(
        buffer.samples, dtype=_WINDOW_DTYPE
    ).tobytes()
    header = {
        "type": "window",
        "start_sample": int(buffer.start_sample),
        "nsamples": len(buffer),
    }
    return header, payload


def decode_window(header: Dict, payload: Union[bytes, memoryview],
                  sample_rate: float) -> SampleBuffer:
    """The :class:`SampleBuffer` a ``window`` frame carries, wrapping
    ``payload`` (bytes, or a :class:`ReceiveBuffer` view) uncopied."""
    itemsize = np.dtype(_WINDOW_DTYPE).itemsize
    if len(payload) % itemsize:
        raise ServiceProtocolError(
            f"window payload of {len(payload)} bytes ends mid-sample"
        )
    samples = np.frombuffer(payload, dtype=_WINDOW_DTYPE)
    declared = header.get("nsamples")
    if declared is not None and int(declared) != len(samples):
        raise ServiceProtocolError(
            f"window declares {declared} samples but carries {len(samples)}"
        )
    return SampleBuffer(
        samples,
        Timebase(sample_rate),
        start_sample=int(header.get("start_sample", 0)),
    )


def check_version(header: Dict) -> None:
    """Reject a handshake speaking an incompatible protocol version."""
    version = header.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ServiceProtocolError(
            f"peer speaks protocol v{version}, this build speaks "
            f"v{PROTOCOL_VERSION}"
        )
