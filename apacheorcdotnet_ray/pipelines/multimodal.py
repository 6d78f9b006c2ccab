"""Multimodal columns: image/audio/video as opaque ``binary`` payloads with
typed metadata, processed by task-pool ``map_batches`` stages.

Three REAL byte formats decode with pure NumPy (codecs/media.py): PPM (P6),
24-bit uncompressed BMP, and RIFF/WAV PCM16 — so the decode stages parse
actual on-disk formats, not only the synthetic stub. Compressed formats
(JPEG/PNG/MP4) would need PIL/pyav, which the package does not use: such a
payload raises ``ValueError``. The synthetic header format (FIMG/FVID +
seeded PRNG pixels) remains the multi-frame video stand-in.

Stage pattern: every stage is a plain function of its batch, holding no
state between batches, so it runs on Ray's task pool; payloads are large, so
``batch_size`` stays small and blocks stream with backpressure.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..codecs import media as mcodec

MAGIC_IMG = b"FIMG"
MAGIC_VID = b"FVID"
_HDR = np.dtype([("w", "<u2"), ("h", "<u2"), ("frames", "<u2")])


# ---------------------------------------------------------------------------
# deterministic synthetic media (the test/bench stand-in for real payloads)


def _payload(media_id: int, w: int, h: int, frames: int, fmt: str = "synthetic") -> bytes:
    rng = np.random.default_rng(media_id)
    if fmt == "ppm":
        return mcodec.encode_ppm(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
    if fmt == "bmp":
        return mcodec.encode_bmp(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
    pixels = rng.integers(0, 256, size=frames * w * h, dtype=np.uint8)
    hdr = np.array([(w, h, frames)], dtype=_HDR).tobytes()
    return (MAGIC_VID if frames > 1 else MAGIC_IMG) + hdr + pixels.tobytes()


def synthesize_media(
    ds: rd.Dataset, id_col: str = "doc_id", seed: int = 1234,
    fmt: str = "synthetic",
) -> rd.Dataset:
    """Derive a deterministic media table (media_id, media_type, width,
    height, n_frames, payload:binary) from any table with an integer id.

    ``fmt``: "synthetic" (header+raw stub), "ppm"/"bmp" (REAL byte formats,
    decoded by the pure-NumPy parsers in codecs/media.py), or "mixed"
    (per-id rotation across all three — exercises decoder dispatch)."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        rng = np.random.default_rng(seed)
        # per-id deterministic dims (independent of batch boundaries)
        w = 16 + (ids % 3) * 8
        h = 16 + (ids % 5) * 4
        frames = np.where(ids % 4 == 0, 6, 1)
        if fmt == "mixed":
            fmts = np.array(["synthetic", "ppm", "bmp"])[ids % 3]
        else:
            fmts = np.full(len(ids), fmt)
        frames = np.where(fmts == "synthetic", frames, 1)
        payloads = [
            _payload(int(i), int(wi), int(hi), int(fi), fmt=fm)
            for i, wi, hi, fi, fm in zip(ids, w, h, frames, fmts)
        ]
        return pa.table({
            "media_id": pa.array(ids),
            "media_type": pa.array(np.where(frames > 1, "video", "image")),
            "width": pa.array(w.astype(np.int32)),
            "height": pa.array(h.astype(np.int32)),
            "n_frames": pa.array(frames.astype(np.int32)),
            "payload": pa.array(payloads, type=pa.binary()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# decode


def decode_payload(buf: bytes) -> tuple[np.ndarray, int, int, int]:
    """One binary payload → (flat grayscale pixels uint8, w, h, frames),
    dispatching on magic bytes. PPM (P6) and 24-bit BMP decode for real via
    the pure-NumPy parsers in codecs/media.py; the synthetic header format
    remains the video stand-in."""
    magic = buf[:4]
    if magic[:2] == b"P6":
        img = mcodec.decode_ppm(buf)
        return mcodec.rgb_to_gray(img).ravel(), img.shape[1], img.shape[0], 1
    if magic[:2] == b"BM":
        img = mcodec.decode_bmp(buf)
        return mcodec.rgb_to_gray(img).ravel(), img.shape[1], img.shape[0], 1
    if magic in (MAGIC_IMG, MAGIC_VID):
        rest = buf[4:]
        hdr = np.frombuffer(rest[: _HDR.itemsize], dtype=_HDR)[0]
        w, h, frames = int(hdr["w"]), int(hdr["h"]), int(hdr["frames"])
        pixels = np.frombuffer(rest[_HDR.itemsize :], dtype=np.uint8)
        return pixels, w, h, frames
    raise ValueError(f"unknown media payload magic {magic!r}")


def decode_media_batch(batch: pa.Table) -> pa.Table:
    """``payload`` column → per-item grayscale ``pixels`` lists + dims."""
    pixel_lists, ws, hs, fs = [], [], [], []
    for buf in batch.column("payload"):
        px, w, h, fr = decode_payload(buf.as_py())
        pixel_lists.append(px)
        ws.append(w)
        hs.append(h)
        fs.append(fr)
    # int32 offsets bound one decoded block to <2 GiB of pixels — hold by
    # keeping batch_size small for large payloads
    offsets = np.concatenate([[0], np.cumsum([len(p) for p in pixel_lists])]).astype(np.int32)
    flat = np.concatenate(pixel_lists) if pixel_lists else np.empty(0, np.uint8)
    pixels = pa.ListArray.from_arrays(
        pa.array(offsets), pa.array(flat, type=pa.uint8())
    )
    return pa.table({
        "media_id": batch.column("media_id"),
        "width": pa.array(np.asarray(ws, dtype=np.int32)),
        "height": pa.array(np.asarray(hs, dtype=np.int32)),
        "n_frames": pa.array(np.asarray(fs, dtype=np.int32)),
        "pixels": pixels,
    })


def decode_media(ds: rd.Dataset, batch_size: int = 64) -> rd.Dataset:
    """Large binary payloads → small batches (the object store spills
    rather than worker heaps filling)."""
    return ds.map_batches(decode_media_batch, batch_format="pyarrow",
                          batch_size=batch_size)


# ---------------------------------------------------------------------------
# feature extraction / resize / frame sampling (vectorized over decoded pixels)

_BINS = 16  # histogram bins; divides 256, so a pixel's bin is one floor-divide


def pixel_features(batch: pa.Table) -> pa.Table:
    """16-bin byte histogram + mean/std per item — the deterministic
    stand-in for batched model inference. Fully vectorized over the flat
    pixel stream: one bincount over (item_index * bins + pixel_bin) builds
    every item's histogram, one add.reduceat pair gives mean/std — no
    per-item Python loop."""
    col = batch.column("pixels")
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    offs = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(arr)
    counts = np.diff(offs)
    safe = np.maximum(counts, 1).astype(np.float64)
    item_of = np.repeat(np.arange(n, dtype=np.int64), counts)
    hist = np.bincount(item_of * _BINS + flat // (256 // _BINS),
                       minlength=n * _BINS).reshape(n, _BINS)
    feats = (hist / safe[:, None]).astype(np.float32)
    # reduceat only over NONEMPTY segments: their starts are strictly
    # increasing and < len(flat), and the span from one nonempty start
    # to the next covers exactly that segment (empty segments in
    # between contribute zero length). Clamping starts instead would
    # corrupt the last nonempty segment when trailing items are empty.
    fl = flat.astype(np.float64)
    nonempty = counts > 0
    sums = np.zeros(n)
    sqs = np.zeros(n)
    if nonempty.any():
        starts_ne = offs[:-1][nonempty]
        sums[nonempty] = np.add.reduceat(fl, starts_ne)
        sqs[nonempty] = np.add.reduceat(fl * fl, starts_ne)
    means = sums / safe
    stds = np.sqrt(np.maximum(sqs / safe - means * means, 0.0))
    emb = pa.ListArray.from_arrays(
        pa.array(np.arange(n + 1, dtype=np.int32) * _BINS),
        pa.array(feats.ravel(), type=pa.float32()),
    )
    return pa.table({
        "media_id": batch.column("media_id"),
        "feature": emb,
        "mean_pixel": pa.array(means, type=pa.float64()),
        "std_pixel": pa.array(stds, type=pa.float64()),
    })


def extract_features(ds: rd.Dataset, batch_size: int = 64) -> rd.Dataset:
    return ds.map_batches(pixel_features, batch_format="pyarrow",
                          batch_size=batch_size)


def resize_images(ds: rd.Dataset, out_w: int = 8, out_h: int = 8) -> rd.Dataset:
    """Nearest-neighbor resize of decoded frames (vectorized index gather per
    item). A real pipeline would swap the kernel for PIL/cv2 inside the same
    stage shape."""

    def fn(batch: pa.Table) -> pa.Table:
        col = batch.column("pixels")
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        offs = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        ws = batch.column("width").to_numpy()
        hs = batch.column("height").to_numpy()
        fs = batch.column("n_frames").to_numpy()
        out = []
        for i in range(len(arr)):
            w, h, fr = int(ws[i]), int(hs[i]), int(fs[i])
            frames = flat[offs[i] : offs[i + 1]].reshape(fr, h, w)
            yi = (np.arange(out_h) * h) // out_h
            xi = (np.arange(out_w) * w) // out_w
            out.append(frames[:, yi][:, :, xi].ravel())
        offsets = np.concatenate([[0], np.cumsum([len(o) for o in out])]).astype(np.int32)
        resized = pa.ListArray.from_arrays(
            pa.array(offsets),
            pa.array(np.concatenate(out) if out else np.empty(0, np.uint8),
                     type=pa.uint8()),
        )
        return pa.table({
            "media_id": batch.column("media_id"),
            "n_frames": batch.column("n_frames"),
            "width": pa.array(np.full(len(arr), out_w, dtype=np.int32)),
            "height": pa.array(np.full(len(arr), out_h, dtype=np.int32)),
            "pixels": resized,
        })

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=64)


def sample_frames(ds: rd.Dataset, every_n: int = 2) -> rd.Dataset:
    """Keep every n-th frame of video items (images pass through)."""

    def fn(batch: pa.Table) -> pa.Table:
        col = batch.column("pixels")
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        offs = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        ws = batch.column("width").to_numpy()
        hs = batch.column("height").to_numpy()
        fs = batch.column("n_frames").to_numpy()
        out, kept = [], []
        for i in range(len(arr)):
            w, h, fr = int(ws[i]), int(hs[i]), int(fs[i])
            frames = flat[offs[i] : offs[i + 1]].reshape(fr, h * w)
            sel = frames[::every_n] if fr > 1 else frames
            out.append(sel.ravel())
            kept.append(len(sel))
        offsets = np.concatenate([[0], np.cumsum([len(o) for o in out])]).astype(np.int32)
        pixels = pa.ListArray.from_arrays(
            pa.array(offsets),
            pa.array(np.concatenate(out) if out else np.empty(0, np.uint8),
                     type=pa.uint8()),
        )
        return pa.table({
            "media_id": batch.column("media_id"),
            "n_frames": pa.array(np.asarray(kept, dtype=np.int32)),
            "width": batch.column("width"),
            "height": batch.column("height"),
            "pixels": pixels,
        })

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=64)


# ---------------------------------------------------------------------------
# audio: RIFF/WAV PCM16 payloads (real format, pure-NumPy codec)


def synthesize_audio(
    ds: rd.Dataset, id_col: str = "doc_id", rate: int = 16_000,
) -> rd.Dataset:
    """Deterministic WAV corpus: per-id sine + noise PCM16 payloads (valid
    RIFF files decodable by any WAV reader)."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        payloads = []
        for i in ids:
            rng = np.random.default_rng(int(i))
            n = int(rate // 10 + (i % 7) * rate // 100)  # 0.1s-0.16s
            t = np.arange(n) / rate
            freq = 220.0 + float(i % 24) * 55.0
            wave = 0.6 * np.sin(2 * np.pi * freq * t) + 0.1 * rng.normal(size=n)
            payloads.append(mcodec.encode_wav(
                np.clip(wave * 32767, -32768, 32767).astype(np.int16), rate))
        return pa.table({
            "media_id": pa.array(ids),
            "payload": pa.array(payloads, type=pa.binary()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def decode_audio_batch(batch: pa.Table) -> pa.Table:
    """RIFF/WAV PCM16 ``payload`` → flat int16 ``samples`` lists + rate."""
    samples, rates, chans = [], [], []
    for buf in batch.column("payload"):
        s, rate = mcodec.decode_wav(buf.as_py())
        samples.append(s.mean(axis=1).astype(np.int16) if s.shape[1] > 1
                       else s[:, 0])
        rates.append(rate)
        chans.append(s.shape[1])
    offsets = np.concatenate([[0], np.cumsum([len(s) for s in samples])]).astype(np.int32)
    flat = np.concatenate(samples) if samples else np.empty(0, np.int16)
    return pa.table({
        "media_id": batch.column("media_id"),
        "sample_rate": pa.array(np.asarray(rates, dtype=np.int32)),
        "n_channels": pa.array(np.asarray(chans, dtype=np.int32)),
        "samples": pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(flat, type=pa.int16())),
    })


def decode_audio(ds: rd.Dataset, batch_size: int = 64) -> rd.Dataset:
    return ds.map_batches(decode_audio_batch, batch_format="pyarrow",
                          batch_size=batch_size)


def audio_features(ds: rd.Dataset, batch_size: int = 64) -> rd.Dataset:
    """Per-clip duration / RMS / zero-crossing rate, vectorized over the flat
    sample stream (reduceat per clip — no per-item Python loop)."""

    def fn(batch: pa.Table) -> pa.Table:
        col = batch.column("samples")
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        offs = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(arr)
        counts = np.diff(offs)
        safe = np.maximum(counts, 1).astype(np.float64)
        # reduceat only over nonempty clips (clamped starts would corrupt
        # the last nonempty clip when trailing clips are empty)
        nonempty = counts > 0
        sqs = np.zeros(n)
        if nonempty.any():
            sqs[nonempty] = np.add.reduceat(flat * flat, offs[:-1][nonempty])
        sign_flip = (np.signbit(flat[1:]) != np.signbit(flat[:-1])).astype(np.float64) \
            if len(flat) > 1 else np.zeros(0)
        # crossings within a clip only: zero the flat positions that straddle
        # clip boundaries, then reduceat per clip (clips of >=2 samples —
        # shorter ones have zero crossings by definition)
        zc = np.zeros(n)
        if len(sign_flip):
            boundary = offs[1:-1] - 1
            boundary = boundary[(boundary >= 0) & (boundary < len(sign_flip))]
            sign_flip[boundary] = 0.0
            multi = counts >= 2
            if multi.any():
                zc[multi] = np.add.reduceat(sign_flip, offs[:-1][multi])
        rates = batch.column("sample_rate").to_numpy().astype(np.float64)
        return pa.table({
            "media_id": batch.column("media_id"),
            "duration_s": pa.array(counts / rates, type=pa.float64()),
            "rms": pa.array(np.sqrt(sqs / safe), type=pa.float64()),
            "zcr": pa.array(zc / safe, type=pa.float64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)
