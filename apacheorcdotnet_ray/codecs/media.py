"""Pure-NumPy media codecs for genuinely decodable formats.

No imaging/audio library ships in this container, but three real formats
are trivially codable with NumPy alone and make the multimodal pipeline
exercise an actual byte-format parse instead of only the synthetic stub:

- PPM (P6): ASCII header + raw RGB24 (netpbm spec).
- BMP: BITMAPFILEHEADER + BITMAPINFOHEADER, 24-bit uncompressed,
  bottom-up rows padded to 4 bytes (the classic Windows DIB layout).
- WAV: RIFF container, PCM16 mono/stereo.

Encoders exist so tests/benches can synthesize valid payloads; decoders
are the product path (`pipelines.multimodal.decode_payload` dispatches on
magic bytes).
"""

from __future__ import annotations

import struct

import numpy as np


# ---------------------------------------------------------------------------
# PPM (P6)


def encode_ppm(pixels: np.ndarray) -> bytes:
    """pixels: (h, w, 3) uint8 RGB."""
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    return f"P6\n{w} {h}\n255\n".encode() + pixels.tobytes()


def decode_ppm(buf: bytes) -> np.ndarray:
    """Returns (h, w, 3) uint8. Handles whitespace + '#' comments per spec."""
    if buf[:2] != b"P6":
        raise ValueError("not a P6 PPM payload")
    pos = 2
    vals = []
    while len(vals) < 3:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if buf[pos : pos + 1] == b"#":  # comment to end of line
            pos = buf.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        vals.append(int(buf[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = vals
    if maxval > 255:
        raise ValueError("16-bit PPM not supported")
    px = np.frombuffer(buf, dtype=np.uint8, count=h * w * 3, offset=pos)
    return px.reshape(h, w, 3)


# ---------------------------------------------------------------------------
# BMP (24-bit uncompressed)


def encode_bmp(pixels: np.ndarray) -> bytes:
    """pixels: (h, w, 3) uint8 RGB → 24-bit bottom-up BGR DIB."""
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    row_bytes = (w * 3 + 3) & ~3
    img_size = row_bytes * h
    # rows bottom-up, channels BGR, each row padded to 4 bytes
    rows = np.zeros((h, row_bytes), dtype=np.uint8)
    rows[:, : w * 3] = pixels[::-1, :, ::-1].reshape(h, w * 3)
    header = struct.pack("<2sIHHI", b"BM", 54 + img_size, 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, img_size, 2835, 2835, 0, 0)
    return header + info + rows.tobytes()


def decode_bmp(buf: bytes) -> np.ndarray:
    """Returns (h, w, 3) uint8 RGB from a 24-bit uncompressed BMP."""
    if buf[:2] != b"BM":
        raise ValueError("not a BMP payload")
    data_offset = struct.unpack_from("<I", buf, 10)[0]
    hdr_size, w, h = struct.unpack_from("<Iii", buf, 14)
    planes, bpp, compression = struct.unpack_from("<HHI", buf, 26)
    if bpp != 24 or compression != 0:
        raise ValueError(f"unsupported BMP: bpp={bpp} compression={compression}")
    bottom_up = h > 0
    h = abs(h)
    row_bytes = (w * 3 + 3) & ~3
    rows = np.frombuffer(buf, dtype=np.uint8, count=row_bytes * h,
                         offset=data_offset).reshape(h, row_bytes)
    img = rows[:, : w * 3].reshape(h, w, 3)[:, :, ::-1]  # BGR→RGB
    return img[::-1] if bottom_up else img


# ---------------------------------------------------------------------------
# WAV (PCM16)


def encode_wav(samples: np.ndarray, rate: int = 16_000) -> bytes:
    """samples: (n,) or (n, channels) int16."""
    s = np.asarray(samples, dtype="<i2")
    if s.ndim == 1:
        s = s[:, None]
    n, ch = s.shape
    data = s.tobytes()
    fmt = struct.pack("<HHIIHH", 1, ch, rate, rate * ch * 2, ch * 2, 16)
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def decode_wav(buf: bytes) -> tuple[np.ndarray, int]:
    """Returns ((n, channels) int16, sample_rate)."""
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos = 12
    rate, ch, bits = None, None, None
    while pos + 8 <= len(buf):
        cid = buf[pos : pos + 4]
        size = struct.unpack_from("<I", buf, pos + 4)[0]
        if cid == b"fmt ":
            audio_fmt, ch, rate = struct.unpack_from("<HHI", buf, pos + 8)
            bits = struct.unpack_from("<H", buf, pos + 22)[0]
            if audio_fmt != 1 or bits != 16:
                raise ValueError(f"unsupported WAV: fmt={audio_fmt} bits={bits}")
        elif cid == b"data":
            if rate is None:
                raise ValueError("WAV data chunk before fmt chunk")
            s = np.frombuffer(buf, dtype="<i2", count=size // 2, offset=pos + 8)
            return s.reshape(-1, ch), rate
        pos += 8 + size + (size & 1)  # chunks are 2-byte aligned
    raise ValueError("WAV payload has no data chunk")


# shared luma weights: RGB → grayscale uint8 (integer Rec.601 approximation)
def rgb_to_gray(img: np.ndarray) -> np.ndarray:
    r = img[..., 0].astype(np.uint32)
    g = img[..., 1].astype(np.uint32)
    b = img[..., 2].astype(np.uint32)
    return ((r * 299 + g * 587 + b * 114) // 1000).astype(np.uint8)
