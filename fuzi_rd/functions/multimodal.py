"""Multimodal column stages (image/audio/video as opaque binary + metadata).

The container has no image/audio libraries, so the *decode kernels* are
stubbed (clearly marked below); everything Ray-side is real and tested:
schema handling, task signatures, batch sizing for large binary payloads,
and the output layout.

Media rows use the layout:

    media_id: int64, kind: string ('image'|'audio'|'video'),
    payload: binary, meta: string (json: {format, width, height, ...})

Stages are callable classes whose constructor holds the setup; an instance
maps as Ray Data tasks (``ds.map_batches(DecodeImage(), ...)``), so the
setup runs once on the driver and ships with the task:

    DecodeImage      payload -> (width, height, format) metadata columns
    ExtractFeatures  payload -> fixed-dim float32 feature vector
    SampleFrames     video payload -> one row per sampled frame (flat_map
                     style: output rows > input rows)

Batch-size guidance at scale: payload-bearing batches should be SMALL
(batch_size 4-16) so one batch per worker process fits its heap; metadata-only
stages can batch thousands of rows.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pyarrow as pa

# STUB marker: real decoders are not available in this environment.
_REAL_DECODERS_AVAILABLE = False


def _fake_image_header(payload: bytes) -> dict:
    """Deterministic fake decode: derive dimensions from a stable hash of
    the payload.  Replaced by a real decoder (PIL/libvips) in production."""
    h = hashlib.blake2b(payload, digest_size=8).digest()
    w, hgt = struct.unpack("<HH", h[:4])
    return {
        "format": ("jpeg", "png", "webp")[h[4] % 3],
        "width": 64 + (w % 4032),
        "height": 64 + (hgt % 3024),
    }


class DecodeImage:
    """payload -> image metadata columns.  backend='stub' is deterministic;
    backend='real' raises until a decoder library is provisioned."""

    def __init__(self, backend: str = "stub"):
        if backend != "stub" and not _REAL_DECODERS_AVAILABLE:
            raise NotImplementedError(
                "real image decoding requires an image library not present "
                "in this environment; use backend='stub'"
            )
        self.backend = backend

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, formats, ok = [], [], [], []
        for payload in batch.column("payload").to_pylist():
            try:
                meta = _fake_image_header(payload or b"")
                widths.append(meta["width"])
                heights.append(meta["height"])
                formats.append(meta["format"])
                ok.append(True)
            except Exception:
                widths.append(0)
                heights.append(0)
                formats.append("")
                ok.append(False)
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                "format": pa.array(formats, pa.string()),
                "decode_ok": pa.array(ok, pa.bool_()),
            }
        )


class ExtractFeatures:
    """payload -> fixed-dim feature vector (stub: blake2b bytes -> floats).
    In production this is the batched-model-inference stage; the Arrow
    plumbing (list<float32> output, small batches) is identical."""

    def __init__(self, dim: int = 32):
        self.dim = dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = []
        for payload in batch.column("payload").to_pylist():
            h = hashlib.blake2b(payload or b"", digest_size=self.dim).digest()
            vecs.append((np.frombuffer(h, dtype=np.uint8) / 255.0).astype(np.float32))
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "features": pa.array(
                    [v.tolist() for v in vecs], pa.list_(pa.float32())
                ),
            }
        )


class ResizeImage:
    """payload -> resized payload + new dimensions, preserving aspect ratio
    within a bounding box.  The pixel resample itself is stubbed (no image
    library in this environment): output payload is a deterministic
    hash-derived stand-in sized proportionally to the target area, so batch
    memory behavior matches a real resize.  The Ray-side plumbing (binary
    in/binary out, small batches) is the production shape."""

    def __init__(self, max_w: int = 512, max_h: int = 512, backend: str = "stub"):
        if backend != "stub" and not _REAL_DECODERS_AVAILABLE:
            raise NotImplementedError(
                "real image resizing requires an image library not present "
                "in this environment; use backend='stub'"
            )
        self.max_w = max_w
        self.max_h = max_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, ws, hs, payloads = [], [], [], []
        for mid, payload in zip(
            batch.column("media_id").to_pylist(),
            batch.column("payload").to_pylist(),
        ):
            src = _fake_image_header(payload or b"")
            scale = min(self.max_w / src["width"], self.max_h / src["height"], 1.0)
            w, h = max(int(src["width"] * scale), 1), max(
                int(src["height"] * scale), 1
            )
            # stub resample: deterministic bytes proportional to target area
            out_len = max(w * h // 64, 16)
            seed = hashlib.blake2b(
                (payload or b"") + struct.pack("<II", w, h), digest_size=32
            ).digest()
            ids.append(mid)
            ws.append(w)
            hs.append(h)
            payloads.append((seed * (out_len // 32 + 1))[:out_len])
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "width": pa.array(ws, pa.int32()),
                "height": pa.array(hs, pa.int32()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )


class SampleFrames:
    """video payload -> one output row per sampled frame (row-expanding)."""

    def __init__(self, every_n: int = 10, max_frames: int = 4):
        self.every_n = every_n
        self.max_frames = max_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, frame_idx, frames = [], [], []
        for mid, payload in zip(
            batch.column("media_id").to_pylist(), batch.column("payload").to_pylist()
        ):
            payload = payload or b""
            # stub "frames": deterministic slices of the payload
            n = min(self.max_frames, max(len(payload) // (self.every_n * 16), 1))
            for f in range(n):
                ids.append(mid)
                frame_idx.append(f * self.every_n)
                frames.append(
                    hashlib.blake2b(
                        payload + f.to_bytes(4, "little"), digest_size=16
                    ).digest()
                )
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "frame_index": pa.array(frame_idx, pa.int32()),
                "frame": pa.array(frames, pa.binary()),
            }
        )


def synth_media_table(n_rows: int) -> pa.Table:
    """Deterministic fake media table for plumbing tests."""
    ids, kinds, payloads, metas = [], [], [], []
    for i in range(n_rows):
        kind = ("image", "audio", "video")[i % 3]
        payload = hashlib.blake2b(
            f"media-{i}".encode(), digest_size=32
        ).digest() * (4 + i % 13)
        ids.append(i)
        kinds.append(kind)
        payloads.append(payload)
        metas.append(json.dumps({"source": f"synthetic/{i}", "kind": kind}))
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "kind": pa.array(kinds, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta": pa.array(metas, pa.string()),
        }
    )
