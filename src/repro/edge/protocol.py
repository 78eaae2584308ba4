"""Wire protocol between the edge device and the cloud service.

Two frame families share a length-prefixed binary style (header, raw tensor
bytes, CRC32):

* **Single-request frames** (``SHRD``): one request id and one tensor — the
  original Figure 2 deployment, retained as the sequential reference path.
* **Batched frames** (``SHRB``): the serving runtime's unit of transfer.
  One header carries N request ids and per-request row counts, followed by
  one contiguous stacked tensor payload — replacing N per-request
  encode/transmit round trips with a single frame whose header cost is
  amortised across the micro-batch.  Batched activation frames may carry an
  8/16-bit affine quantisation code (scale, zero point, bits) so the
  stacked payload is quantised once on the edge and dequantised once in the
  cloud (:mod:`repro.edge.quantization`).

The batched codec does O(1) Python work per frame: the encoder packs the
whole header, request table included, with one precompiled ``struct`` per
(request count, quantised, rank) geometry and joins the payload into the
frame straight from the tensor's memory; the decoder unpacks the request
table with one ``struct`` call, and a decoded payload is
a read-only zero-copy view of the received ``bytes`` object (other
bytes-like inputs are copied once first, so a decoded tensor never views a
buffer the caller may reuse).  Every ``ChannelError`` check and the CRC32
are kept, and the frames are byte-identical to the struct-per-field
encoder's (pinned by ``tests/edge/test_protocol_golden.py``).

The point is not the format itself but that the *only* thing crossing the
wire is the (noisy, possibly quantised) activation — exactly the privacy
surface the paper analyses.  Decoders reject malformed frames with
:class:`~repro.errors.ChannelError`; robustness is fuzz-tested.
"""

from __future__ import annotations

import struct
import zlib
from math import prod as _product
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.edge.quantization import QuantizationParams
from repro.errors import ChannelError

_MAGIC = b"SHRD"
_BATCH_MAGIC = b"SHRB"
_DTYPES = {
    0: np.float32,
    1: np.float64,
    2: np.int64,
    3: np.uint8,
    4: np.uint16,
}
_DTYPE_CODES = {np.dtype(dtype): code for code, dtype in _DTYPES.items()}
_DTYPE_OBJECTS = {code: np.dtype(dtype) for code, dtype in _DTYPES.items()}

_KIND_ACTIVATION = 0
_KIND_PREDICTION = 1

# Batched frame layout (little endian):
#   4s  magic "SHRB"
#   B   kind (0 activation, 1 prediction)
#   B   flags (bit 0: quantised payload)
#   I   n_requests
#   n_requests * Q   request ids
#   n_requests * I   per-request row counts
#   [d H B  quantisation scale / zero point / bits, when flag bit 0]
#   B   dtype code
#   B   ndim
#   ndim * I  shape (shape[0] == sum of row counts)
#   payload bytes
#   I   CRC32 of the payload
_BATCH_FIXED = struct.Struct("<4sBBI")
_QUANT_STRUCT = struct.Struct("<dHB")
_TENSOR_HEAD = struct.Struct("<BB")
_CRC = struct.Struct("<I")
_SHAPES = {ndim: struct.Struct(f"<{ndim}I") for ndim in range(1, 9)}
_HEADER_CACHE: dict[tuple[int, bool, int], struct.Struct] = {}
_TABLE_CACHE: dict[int, struct.Struct] = {}


def _batch_header(n_requests: int, quantized: bool, ndim: int) -> struct.Struct:
    """The whole batched-frame header as one compiled struct.

    Keyed by (request count, quantised, rank): a serving deployment sees a
    handful of geometries, so packing a frame header is a single C call
    with no per-request Python.
    """
    key = (n_requests, quantized, ndim)
    cached = _HEADER_CACHE.get(key)
    if cached is None:
        cached = _HEADER_CACHE[key] = struct.Struct(
            f"<4sBBI{n_requests}Q{n_requests}I{'dHB' if quantized else ''}"
            f"BB{ndim}I"
        )
    return cached


def _request_table(n_requests: int) -> struct.Struct:
    """The ids-then-row-counts request table of ``n_requests`` entries."""
    cached = _TABLE_CACHE.get(n_requests)
    if cached is None:
        cached = _TABLE_CACHE[n_requests] = struct.Struct(
            f"<{n_requests}Q{n_requests}I"
        )
    return cached


@dataclass(frozen=True)
class ActivationMessage:
    """Edge -> cloud: the (noisy) activation for one request."""

    request_id: int
    tensor: np.ndarray


@dataclass(frozen=True)
class PredictionMessage:
    """Cloud -> edge: logits for one request."""

    request_id: int
    logits: np.ndarray


@dataclass(frozen=True)
class BatchActivationMessage:
    """Edge -> cloud: one micro-batch of stacked (noisy) activations.

    Attributes:
        request_ids: One id per request in the micro-batch.
        splits: Rows of ``tensor`` owned by each request, in order.
        tensor: ``(sum(splits), *activation_shape)`` stacked payload; when
            ``quantization`` is set these are integer codes.
        quantization: Affine code parameters when the payload is quantised.
    """

    request_ids: tuple[int, ...]
    splits: tuple[int, ...]
    tensor: np.ndarray
    quantization: QuantizationParams | None = None

    def __len__(self) -> int:
        return len(self.request_ids)


@dataclass(frozen=True)
class BatchPredictionMessage:
    """Cloud -> edge: stacked logits for one micro-batch."""

    request_ids: tuple[int, ...]
    splits: tuple[int, ...]
    logits: np.ndarray

    def __len__(self) -> int:
        return len(self.request_ids)

    def split_logits(self) -> list[np.ndarray]:
        """Demultiplex the stacked logits back to per-request arrays."""
        return split_rows(self.logits, self.splits)


def split_rows(stacked: np.ndarray, splits: Sequence[int]) -> list[np.ndarray]:
    """Views of ``stacked`` holding each request's ``splits`` rows, in order.

    When every request owns one row (the common serving case) the views
    come from one C-level iteration instead of a slice per request.
    """
    if len(stacked) == len(splits) == splits.count(1):
        return list(stacked[:, None])
    views: list[np.ndarray] = []
    start = 0
    for rows in splits:
        views.append(stacked[start : start + rows])
        start += rows
    return views


def _dtype_code(tensor: np.ndarray) -> int:
    code = _DTYPE_CODES.get(tensor.dtype)
    if code is None:
        raise ChannelError(f"unsupported wire dtype {tensor.dtype}")
    return code


def encode_tensor(request_id: int, tensor: np.ndarray) -> bytes:
    """Serialise a single-request tensor message (header + payload + CRC32)."""
    tensor = np.ascontiguousarray(tensor)
    dtype_code = _dtype_code(tensor)
    if tensor.ndim > 8:
        raise ChannelError(f"too many dimensions for the wire format: {tensor.ndim}")
    payload = tensor.tobytes()
    header = struct.pack(
        f"<4sQBB{tensor.ndim}I",
        _MAGIC,
        request_id,
        dtype_code,
        tensor.ndim,
        *tensor.shape,
    )
    checksum = struct.pack("<I", zlib.crc32(payload))
    return header + payload + checksum


def decode_tensor(blob: bytes) -> tuple[int, np.ndarray]:
    """Parse bytes produced by :func:`encode_tensor`.

    Raises:
        ChannelError: On bad magic, truncation, or checksum mismatch.
    """
    fixed = struct.calcsize("<4sQBB")
    if len(blob) < fixed:
        raise ChannelError("message truncated before header end")
    magic, request_id, dtype_code, ndim = struct.unpack("<4sQBB", blob[:fixed])
    if magic != _MAGIC:
        raise ChannelError(f"bad magic {magic!r}")
    if dtype_code not in _DTYPES:
        raise ChannelError(f"unknown dtype code {dtype_code}")
    if ndim > 8:
        raise ChannelError(f"too many dimensions in header: {ndim}")
    shape_size = struct.calcsize(f"<{ndim}I")
    if len(blob) < fixed + shape_size:
        raise ChannelError("message truncated inside the shape header")
    shape = struct.unpack(f"<{ndim}I", blob[fixed : fixed + shape_size])
    dtype = np.dtype(_DTYPES[dtype_code])
    count = _product(shape) if ndim else 1
    payload_size = count * dtype.itemsize
    start = fixed + shape_size
    payload = blob[start : start + payload_size]
    if len(payload) != payload_size:
        raise ChannelError("message truncated inside payload")
    crc_bytes = blob[start + payload_size : start + payload_size + 4]
    if len(crc_bytes) != 4:
        raise ChannelError("message truncated inside the checksum")
    (expected_crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(payload) != expected_crc:
        raise ChannelError("checksum mismatch — payload corrupted in transit")
    tensor = np.frombuffer(payload, dtype=dtype).reshape(shape)
    return request_id, tensor.copy()


def encode_activation(message: ActivationMessage) -> bytes:
    """Serialise an activation message."""
    return encode_tensor(message.request_id, message.tensor)


def decode_activation(blob: bytes) -> ActivationMessage:
    """Deserialise an activation message."""
    request_id, tensor = decode_tensor(blob)
    return ActivationMessage(request_id=request_id, tensor=tensor)


def encode_prediction(message: PredictionMessage) -> bytes:
    """Serialise a prediction message."""
    return encode_tensor(message.request_id, message.logits)


def decode_prediction(blob: bytes) -> PredictionMessage:
    """Deserialise a prediction message."""
    request_id, tensor = decode_tensor(blob)
    return PredictionMessage(request_id=request_id, logits=tensor)


# ----------------------------------------------------------------------
# Batched frames (serving runtime)
# ----------------------------------------------------------------------
def batch_frame_overhead(
    n_requests: int, ndim: int = 4, quantized: bool = False
) -> int:
    """Wire bytes of a batched frame beyond the raw tensor payload.

    The cost model uses this to amortise the per-frame header across a
    micro-batch (``overhead / batch_size`` per request).
    """
    if n_requests < 1:
        raise ChannelError(f"a batched frame needs >= 1 request, got {n_requests}")
    overhead = _BATCH_FIXED.size + n_requests * (8 + 4)
    if quantized:
        overhead += _QUANT_STRUCT.size
    return overhead + _TENSOR_HEAD.size + ndim * 4 + 4  # dtype/ndim, shape, CRC


def _encode_batch(
    kind: int,
    request_ids: tuple[int, ...],
    splits: tuple[int, ...],
    tensor: np.ndarray,
    quantization: QuantizationParams | None,
) -> bytes:
    n_requests = len(request_ids)
    if n_requests == 0:
        raise ChannelError("cannot encode an empty micro-batch")
    if n_requests != len(splits):
        raise ChannelError(
            f"request ids ({n_requests}) and splits ({len(splits)}) "
            "must pair up"
        )
    if min(splits) < 1:
        raise ChannelError(f"every request needs >= 1 row, got splits {splits}")
    tensor = np.ascontiguousarray(tensor)
    ndim = tensor.ndim
    if ndim < 1 or ndim > 8:
        raise ChannelError(
            f"batched payloads must be 1..8-dimensional, got ndim {ndim}"
        )
    rows = int(sum(splits))
    if rows != tensor.shape[0]:
        raise ChannelError(
            f"splits sum to {rows} rows but the stacked payload "
            f"has {tensor.shape[0]}"
        )
    dtype_code = _dtype_code(tensor)
    header = _batch_header(n_requests, quantization is not None, ndim)
    if quantization is None:
        head = header.pack(
            _BATCH_MAGIC, kind, 0, n_requests, *request_ids, *splits,
            dtype_code, ndim, *tensor.shape,
        )
    else:
        head = header.pack(
            _BATCH_MAGIC, kind, 1, n_requests, *request_ids, *splits,
            quantization.scale, quantization.zero_point, quantization.bits,
            dtype_code, ndim, *tensor.shape,
        )
    # The payload goes from the tensor's own (C-contiguous) memory into the
    # frame through the buffer protocol: one copy, by the join.
    return b"".join((head, tensor, _CRC.pack(zlib.crc32(tensor))))


def _decode_batch(
    blob: bytes, expected_kind: int
) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray, QuantizationParams | None]:
    if type(blob) is not bytes:
        # Never view a mutable buffer the caller may reuse.
        blob = bytes(blob)
    size = len(blob)
    if size < _BATCH_FIXED.size:
        raise ChannelError("batched frame truncated before header end")
    magic, kind, flags, n_requests = _BATCH_FIXED.unpack_from(blob)
    if magic != _BATCH_MAGIC:
        raise ChannelError(f"bad batch magic {magic!r}")
    if kind != expected_kind:
        raise ChannelError(
            f"unexpected batched frame kind {kind} (expected {expected_kind})"
        )
    if flags > 1:
        raise ChannelError(f"unknown batch flags {flags:#x}")
    if n_requests < 1:
        raise ChannelError("batched frame declares zero requests")
    offset = _BATCH_FIXED.size
    table_size = n_requests * 12
    if size < offset + table_size:
        raise ChannelError("batched frame truncated inside the request table")
    table = _request_table(n_requests).unpack_from(blob, offset)
    request_ids = table[:n_requests]
    splits = table[n_requests:]
    offset += table_size
    if 0 in splits:  # unsigned on the wire: 0 is the only value < 1
        raise ChannelError("batched frame declares an empty request slot")
    quantization: QuantizationParams | None = None
    if flags & 1:
        if size < offset + _QUANT_STRUCT.size:
            raise ChannelError("batched frame truncated inside quantisation params")
        scale, zero_point, bits = _QUANT_STRUCT.unpack_from(blob, offset)
        offset += _QUANT_STRUCT.size
        try:
            quantization = QuantizationParams(
                scale=scale, zero_point=zero_point, bits=bits
            )
        except Exception as exc:  # invalid params are a malformed frame
            raise ChannelError(f"invalid quantisation params on the wire: {exc}")
    if size < offset + _TENSOR_HEAD.size:
        raise ChannelError("batched frame truncated before the tensor header")
    dtype_code, ndim = _TENSOR_HEAD.unpack_from(blob, offset)
    offset += _TENSOR_HEAD.size
    if dtype_code not in _DTYPES:
        raise ChannelError(f"unknown dtype code {dtype_code}")
    if ndim < 1 or ndim > 8:
        raise ChannelError(f"bad payload rank in batched header: {ndim}")
    shape_size = ndim * 4
    if size < offset + shape_size:
        raise ChannelError("batched frame truncated inside the shape header")
    shape = _SHAPES[ndim].unpack_from(blob, offset)
    offset += shape_size
    rows = int(sum(splits))
    if rows != shape[0]:
        raise ChannelError(
            f"batched frame splits sum to {rows} rows but the "
            f"payload shape declares {shape[0]}"
        )
    dtype = _DTYPE_OBJECTS[dtype_code]
    count = _product(shape)
    end = offset + count * dtype.itemsize
    if size < end:
        raise ChannelError("batched frame truncated inside payload")
    if size < end + 4:
        raise ChannelError("batched frame truncated inside the checksum")
    (expected_crc,) = _CRC.unpack_from(blob, end)
    if zlib.crc32(memoryview(blob)[offset:end]) != expected_crc:
        raise ChannelError("checksum mismatch — batched payload corrupted in transit")
    # Zero-copy, read-only view of the (immutable) frame bytes; the
    # serving hot path only ever reads the stacked payload.
    return request_ids, splits, np.ndarray(shape, dtype, blob, offset), quantization


def encode_activation_batch(message: BatchActivationMessage) -> bytes:
    """Serialise a micro-batch of activations as one frame."""
    return _encode_batch(
        _KIND_ACTIVATION,
        tuple(message.request_ids),
        tuple(message.splits),
        message.tensor,
        message.quantization,
    )


def decode_activation_batch(blob: bytes) -> BatchActivationMessage:
    """Deserialise a batched activation frame."""
    request_ids, splits, tensor, quantization = _decode_batch(blob, _KIND_ACTIVATION)
    return BatchActivationMessage(
        request_ids=request_ids,
        splits=splits,
        tensor=tensor,
        quantization=quantization,
    )


def encode_prediction_batch(message: BatchPredictionMessage) -> bytes:
    """Serialise a micro-batch of predictions as one frame."""
    return _encode_batch(
        _KIND_PREDICTION,
        tuple(message.request_ids),
        tuple(message.splits),
        message.logits,
        None,
    )


def decode_prediction_batch(blob: bytes) -> BatchPredictionMessage:
    """Deserialise a batched prediction frame."""
    request_ids, splits, logits, _ = _decode_batch(blob, _KIND_PREDICTION)
    return BatchPredictionMessage(request_ids=request_ids, splits=splits, logits=logits)
