"""Golden SHRB frames: the batched wire format, pinned byte for byte.

The codec may be rewritten for speed, but the frames it emits must not
move: a peer running an older build (a shard subprocess, a recorded
trace) has to keep parsing them.  Each frame below was produced by the
struct-per-field encoder for one fixed message and is compared whole,
header, request table, payload and CRC32 alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.edge import (
    BatchActivationMessage,
    BatchPredictionMessage,
    QuantizationParams,
    decode_activation_batch,
    decode_prediction_batch,
    encode_activation_batch,
    encode_prediction_batch,
)

REQUEST_IDS = (7, 8, 1000)
SPLITS = (1, 2, 1)
ACTIVATION = np.arange(12, dtype=np.float32).reshape(4, 3, 1, 1) * 0.5 - 1.0
CODES = np.arange(12, dtype=np.uint8).reshape(4, 3, 1, 1) + 100
QUANTIZATION = QuantizationParams(scale=0.05, zero_point=128, bits=8)
LOGITS = np.arange(8, dtype=np.float32).reshape(4, 2) * -0.25

GOLDEN_ACTIVATION_F32 = bytes.fromhex(
    "5348524200000300000007000000000000000800000000000000e803000000000000"
    "010000000200000001000000000404000000030000000100000001000000000080bf"
    "000000bf000000000000003f0000803f0000c03f0000004000002040000040400000"
    "60400000804000009040cc22660b"
)
GOLDEN_ACTIVATION_Q8 = bytes.fromhex(
    "5348524200010300000007000000000000000800000000000000e803000000000000"
    "0100000002000000010000009a9999999999a93f8000080304040000000300000001"
    "000000010000006465666768696a6b6c6d6e6f48c1d8d8"
)
GOLDEN_PREDICTION = bytes.fromhex(
    "5348524201000300000007000000000000000800000000000000e803000000000000"
    "0100000002000000010000000002040000000200000000000080000080be000000bf"
    "000040bf000080bf0000a0bf0000c0bf0000e0bf856adf42"
)


def activation_message(quantized: bool) -> BatchActivationMessage:
    if quantized:
        return BatchActivationMessage(REQUEST_IDS, SPLITS, CODES, QUANTIZATION)
    return BatchActivationMessage(REQUEST_IDS, SPLITS, ACTIVATION)


class TestGoldenFrames:
    def test_f32_activation_frame(self):
        assert encode_activation_batch(activation_message(False)) == GOLDEN_ACTIVATION_F32

    def test_quantized_activation_frame(self):
        assert encode_activation_batch(activation_message(True)) == GOLDEN_ACTIVATION_Q8

    def test_prediction_frame(self):
        message = BatchPredictionMessage(REQUEST_IDS, SPLITS, LOGITS)
        assert encode_prediction_batch(message) == GOLDEN_PREDICTION

    def test_non_contiguous_payload_encodes_the_same_bytes(self):
        strided = np.asfortranarray(LOGITS)
        assert not strided.flags.c_contiguous
        message = BatchPredictionMessage(REQUEST_IDS, SPLITS, strided)
        assert encode_prediction_batch(message) == GOLDEN_PREDICTION

    @pytest.mark.parametrize("quantized", [False, True])
    def test_activation_frames_decode_to_the_message(self, quantized):
        golden = GOLDEN_ACTIVATION_Q8 if quantized else GOLDEN_ACTIVATION_F32
        decoded = decode_activation_batch(golden)
        expected = activation_message(quantized)
        assert decoded.request_ids == REQUEST_IDS
        assert decoded.splits == SPLITS
        assert decoded.quantization == expected.quantization
        assert decoded.tensor.dtype == expected.tensor.dtype
        np.testing.assert_array_equal(decoded.tensor, expected.tensor)

    def test_prediction_frame_decodes_to_the_message(self):
        decoded = decode_prediction_batch(GOLDEN_PREDICTION)
        assert decoded.request_ids == REQUEST_IDS
        assert decoded.splits == SPLITS
        np.testing.assert_array_equal(decoded.logits, LOGITS)
        views = decoded.split_logits()
        assert [len(view) for view in views] == list(SPLITS)
        np.testing.assert_array_equal(np.concatenate(views), LOGITS)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_mutable_buffers_are_never_viewed(self, wrap):
        """A decoded payload must not alias a buffer the caller may reuse."""
        buffer = bytearray(GOLDEN_PREDICTION)
        decoded = decode_prediction_batch(buffer if wrap is bytearray else wrap(buffer))
        buffer[:] = bytes(len(buffer))
        np.testing.assert_array_equal(decoded.logits, LOGITS)

    def test_one_row_requests_split_into_single_row_views(self):
        splits = (1, 1, 1, 1)
        message = BatchPredictionMessage((1, 2, 3, 4), splits, LOGITS)
        views = message.split_logits()
        assert [view.shape for view in views] == [(1, 2)] * 4
        for index, view in enumerate(views):
            np.testing.assert_array_equal(view, LOGITS[index : index + 1])

    def test_zero_size_payload_round_trips(self):
        tensor = np.zeros((2, 0), dtype=np.float32)
        frame = encode_activation_batch(BatchActivationMessage((1, 2), (1, 1), tensor))
        decoded = decode_activation_batch(frame)
        assert decoded.tensor.shape == (2, 0)
        assert decoded.request_ids == (1, 2)
