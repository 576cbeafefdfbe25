"""Multimodal columns: opaque binary payloads + REAL decode kernels for
self-describing formats, task-pool feature extraction.

Design (driver brief): image/audio/video travel as opaque ``binary``
columns with typed metadata; decode / feature-extract / resize /
frame-sample are ``map_batches`` tasks with a per-process extractor
(``stages/ner.py:memo_stage``): an actor pool would reserve its CPUs up
front and stall the tasks around it on a small cluster.

The container has no external codec libraries (no Pillow/ffmpeg), so the
engine implements the formats that are pure byte layouts — and REALLY
decodes them:

* **image/x-portable-pixmap** — binary PPM (P6): header parse +
  ``np.frombuffer`` → (h, w, 3) uint8; nearest-neighbor resize; features
  = per-channel mean/std + an 8×8 difference-hash (dHash) fingerprint.
* **audio/x-raw-pcm16** — minimal RIFF/WAVE PCM16 mono: header parse →
  int16 samples; features = RMS, zero-crossing rate, spectral centroid
  (``np.fft``), peak.
* **video/x-raw-frames** — length-prefixed concatenated PPM frames:
  frame-sample every k-th frame → per-frame image features → mean-pool.

Foreign codecs (PNG/JPEG, MP3, MP4) remain honestly out of scope: rows
with those mimes flow to the ``status='unsupported'`` dead-letter path
(never a silent drop) and a production deploy adds the codec in
``MediaFeatureExtractor.__init__`` without touching the distributed
contract.

Memory note: binary payloads make WIDE rows — callers should size
``batch_size`` small (32-128) and/or raise ``target_max_block_size`` so a
batch × task concurrency fits worker heaps (SURVEY "memory-aware").
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("kind", pa.string()),          # image | audio | video
        ("mime", pa.string()),
        ("payload", pa.large_binary()),
        ("width", pa.int32()),           # -1 when unknown / n.a.
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),
    ]
)

N_FEATURES = 16


# -- codecs (pure byte layouts, numpy only) -----------------------------------

def ppm_encode(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 → binary PPM (P6)."""
    h, w, _ = img.shape
    return b"P6\n%d %d\n255\n" % (w, h) + img.astype(np.uint8).tobytes()


def ppm_decode(payload: bytes) -> np.ndarray:
    """Binary PPM (P6) → (h, w, 3) uint8.  Raises ValueError on malformed
    input (a real decoder's contract)."""
    if not payload.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    parts = payload.split(b"\n", 3)
    if len(parts) < 4:
        raise ValueError("truncated PPM header")
    w, h = (int(x) for x in parts[1].split())
    data = parts[3]
    if len(data) < h * w * 3:
        raise ValueError("truncated PPM data")
    return np.frombuffer(data[: h * w * 3], dtype=np.uint8).reshape(h, w, 3)


def wav_encode(samples: np.ndarray, rate: int = 8000) -> bytes:
    """int16 mono samples → minimal RIFF/WAVE PCM."""
    data = samples.astype("<i2").tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE", b"fmt ", 16, 1, 1,
        rate, rate * 2, 2, 16, b"data", len(data),
    )
    return hdr + data


def wav_decode(payload: bytes) -> tuple[np.ndarray, int]:
    """Minimal RIFF/WAVE PCM16 mono → (samples int16, rate)."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    rate = struct.unpack_from("<I", payload, 24)[0]
    n = struct.unpack_from("<I", payload, 40)[0]
    return np.frombuffer(payload[44 : 44 + n], dtype="<i2"), rate


def rawvideo_encode(frames: list[np.ndarray]) -> bytes:
    """Frames → length-prefixed concatenated PPMs."""
    out = [struct.pack("<I", len(frames))]
    for f in frames:
        p = ppm_encode(f)
        out.append(struct.pack("<I", len(p)))
        out.append(p)
    return b"".join(out)


def rawvideo_decode(payload: bytes, *, every: int = 1) -> list[np.ndarray]:
    """Length-prefixed PPM container → every ``every``-th frame (the
    frame-sampling knob — sampled frames are never even sliced out of
    the buffer for skipped ones)."""
    (n,) = struct.unpack_from("<I", payload, 0)
    off = 4
    frames = []
    for i in range(n):
        (ln,) = struct.unpack_from("<I", payload, off)
        off += 4
        if i % every == 0:
            frames.append(ppm_decode(payload[off : off + ln]))
        off += ln
    return frames


# -- kernels ------------------------------------------------------------------

def resize_nearest(img: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resize to (th, tw) via index sampling."""
    th, tw = size
    h, w = img.shape[:2]
    ri = (np.arange(th) * h // th).clip(0, h - 1)
    ci = (np.arange(tw) * w // tw).clip(0, w - 1)
    return img[ri][:, ci]


def dhash64(img: np.ndarray) -> int:
    """8×8 difference hash over the grayscale image → 64-bit fingerprint
    (the perceptual near-dup key for images)."""
    g = resize_nearest(img, (8, 9)).astype(np.float64).mean(axis=2)
    bits = (g[:, 1:] > g[:, :-1]).reshape(-1)
    return int((bits.astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum(
        dtype=np.uint64
    ))


def image_features(img: np.ndarray, dim: int = N_FEATURES) -> np.ndarray:
    """Per-channel mean/std (6) + 10-bucket grayscale histogram."""
    f = np.empty(dim, dtype=np.float32)
    x = img.astype(np.float32) / 255.0
    f[0:3] = x.mean(axis=(0, 1))
    f[3:6] = x.std(axis=(0, 1))
    hist = np.histogram(x.mean(axis=2), bins=dim - 6, range=(0.0, 1.0))[0]
    f[6:] = hist / max(1, hist.sum())
    return f


def audio_features(samples: np.ndarray, rate: int, dim: int = N_FEATURES) -> np.ndarray:
    """RMS, zero-crossing rate, spectral centroid, peak + 12-bucket
    magnitude-spectrum profile."""
    f = np.zeros(dim, dtype=np.float32)
    if not len(samples):
        return f
    x = samples.astype(np.float64) / 32768.0
    f[0] = np.sqrt((x ** 2).mean())
    f[1] = float((np.signbit(x[1:]) != np.signbit(x[:-1])).mean())
    mag = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(len(x), d=1.0 / rate)
    f[2] = float((freqs * mag).sum() / max(mag.sum(), 1e-12) / (rate / 2))
    f[3] = float(np.abs(x).max())
    buckets = np.array_split(mag, dim - 4)
    prof = np.array([b.mean() if len(b) else 0.0 for b in buckets])
    f[4:] = prof / max(prof.sum(), 1e-12)
    return f


# -- synthetic corpus ---------------------------------------------------------

def _synth_image(i: int, w: int, h: int) -> np.ndarray:
    """Deterministic gradient + seeded noise pattern."""
    seed = int.from_bytes(hashlib.md5(f"img|{i}".encode()).digest()[:4], "big")
    rng = np.random.RandomState(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    base = np.stack(
        [(xx * 255 // max(1, w - 1)), (yy * 255 // max(1, h - 1)),
         ((xx + yy) * 255 // max(1, w + h - 2))], axis=2
    )
    noise = rng.randint(0, 32, size=(h, w, 3))
    return np.clip(base + noise, 0, 255).astype(np.uint8)


def _synth_audio(i: int, n: int, rate: int = 8000) -> np.ndarray:
    seed = int.from_bytes(hashlib.md5(f"aud|{i}".encode()).digest()[:4], "big")
    rng = np.random.RandomState(seed)
    t = np.arange(n) / rate
    freq = 200 + (i % 20) * 40
    x = 0.6 * np.sin(2 * np.pi * freq * t) + 0.1 * rng.standard_normal(n)
    return (x * 20000).clip(-32768, 32767).astype(np.int16)


def synth_media_batch(batch: dict) -> pa.Table:
    """Deterministic media table from a ``ray.data.range`` batch: REAL
    PPM / WAV / raw-frame payloads (decodable end-to-end) plus a slice of
    foreign-codec mimes exercising the unsupported dead-letter path."""
    ids = np.asarray(batch["id"], dtype=np.int64)
    rows = {k: [] for k in MEDIA_SCHEMA.names}
    for i in ids.tolist():
        kind = ("image", "audio", "video", "image")[i % 4]
        if i % 11 == 10:  # foreign codec → unsupported path
            seed = hashlib.md5(f"media|{i}".encode()).digest()
            payload = (seed * 20)[: 256 + (i % 128)]
            mime = {"image": "image/png", "audio": "audio/mpeg",
                    "video": "video/mp4"}[kind]
            w = h = -1
            dur = -1
        elif kind == "image":
            w, h = 64 + (i % 8) * 16, 64 + (i % 4) * 16
            payload = ppm_encode(_synth_image(i, w, h))
            mime, dur = "image/x-portable-pixmap", -1
        elif kind == "audio":
            n = 4000 + (i % 16) * 500
            payload = wav_encode(_synth_audio(i, n))
            mime, w, h, dur = "audio/x-raw-pcm16", -1, -1, n * 1000 // 8000
        else:
            w, h = 32, 24
            frames = [_synth_image(i * 100 + f, w, h) for f in range(6)]
            payload = rawvideo_encode(frames)
            mime, dur = "video/x-raw-frames", 6 * 40
        rows["media_id"].append(f"m{i:08d}")
        rows["kind"].append(kind)
        rows["mime"].append(mime)
        rows["payload"].append(payload)
        rows["width"].append(w)
        rows["height"].append(h)
        rows["duration_ms"].append(dur)
    return pa.table(rows, schema=MEDIA_SCHEMA)


class MediaFeatureExtractor:
    """Feature stage: binary payload → fixed-width feature vector +
    perceptual hash + explicit status (decoded/unsupported/error — no
    silent drops, matching the engine's dead-letter policy).

    ``__init__`` is where a real deployment loads foreign codecs/models
    ONCE per process; the self-describing formats decode with numpy right
    here.  ``frame_stride`` is the video frame-sampling knob."""

    def __init__(self, feature_dim: int = N_FEATURES, frame_stride: int = 2,
                 resize_to: tuple[int, int] | None = (32, 32)):
        self.dim = feature_dim
        self.frame_stride = frame_stride
        self.resize_to = resize_to

    def _extract(self, mime: str, payload: bytes) -> tuple[str, np.ndarray, int]:
        if mime == "image/x-portable-pixmap":
            img = ppm_decode(payload)
            if self.resize_to:
                img = resize_nearest(img, self.resize_to)
            return "decoded", image_features(img, self.dim), dhash64(img)
        if mime == "audio/x-raw-pcm16":
            samples, rate = wav_decode(payload)
            return "decoded", audio_features(samples, rate, self.dim), 0
        if mime == "video/x-raw-frames":
            frames = rawvideo_decode(payload, every=self.frame_stride)
            feats = np.stack([image_features(f, self.dim) for f in frames])
            return "decoded", feats.mean(axis=0), dhash64(frames[0])
        return "unsupported", np.zeros(self.dim, dtype=np.float32), 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        statuses, feats, hashes = [], [], []
        for mime, payload in zip(
            batch.column("mime").to_pylist(), batch.column("payload").to_pylist()
        ):
            try:
                st, f, ph = self._extract(mime, payload)
            except (ValueError, struct.error) as exc:  # malformed payload
                st, f, ph = f"error:{type(exc).__name__}", np.zeros(
                    self.dim, dtype=np.float32
                ), 0
            statuses.append(st)
            feats.append(f.tolist())
            hashes.append(ph)
        out = batch.drop_columns(["payload"])  # features replace the bytes
        out = out.append_column("status", pa.array(statuses, pa.string()))
        out = out.append_column("features", pa.array(feats, pa.list_(pa.float32())))
        out = out.append_column("phash", pa.array(hashes, pa.uint64()))
        return out


def media_features_batch(batch: pa.Table) -> pa.Table:
    """The default ``MediaFeatureExtractor`` as a ``map_batches`` task
    function, built once per worker process."""
    from .ner import memo_stage

    return memo_stage("media_features", MediaFeatureExtractor)(batch)


def media_features(n_media: int = 256, *, batch_size: int = 64):
    """Synthetic media table → feature table (the full plumbing path)."""
    import ray.data as rd

    media = rd.range(n_media).map_batches(synth_media_batch, batch_format="pyarrow")
    return media.map_batches(
        media_features_batch,
        batch_format="pyarrow",
        batch_size=batch_size,     # small: payload rows are wide
    )


# -- perceptual-hash near-dup (image/video dedup over the phash column) -------

def phash_neardup_pairs(features, max_hamming: int = 3):
    """Media near-dup pairs by dHash Hamming distance — the shared
    banded-Hamming machinery (``stages/dedup.py:banded_hamming_pairs``,
    EXACT for radius ≤ 3 by pigeonhole) over decoded image/video rows.
    Filter is kind-based: phash==0 is a LEGAL dHash (uniform images),
    not an absent-value sentinel — only audio genuinely has none."""
    import pandas as pd

    from ..functions.arrow import arrow_out
    from .dedup import banded_hamming_pairs

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        out = b.loc[
            (b["status"] == "decoded") & (b["kind"] != "audio"),
            ["media_id", "phash"],
        ]
        out["phash"] = out["phash"].astype("uint64")
        return out

    hashed = features.map_batches(arrow_out(keep), batch_format="pandas")
    return banded_hamming_pairs(
        hashed, id_col="media_id", hash_col="phash",
        out_a="media_a", out_b="media_b", max_hamming=max_hamming,
    )


def media_neardup(n_media: int = 256, *, max_hamming: int = 3):
    """Synthetic media corpus → decoded features → phash near-dup pairs."""
    return phash_neardup_pairs(media_features(n_media), max_hamming)
