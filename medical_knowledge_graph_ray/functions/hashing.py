"""Stable, content-derived hashing primitives.

The reference assigns ids by enumeration order (global sentence counter
``ind``, ``generation.py:293-294``; ``entity_ind = range(len(df))``,
``clean_and_save.py:1079-1080``; ``head_id`` by group enumeration,
``clean_and_save.py:1174-1180``).  Enumeration ids are order-dependent and
break under parallel / streaming execution, so this engine derives every id
from content via md5 (stable across processes, platforms, and parallelism
levels — unlike Python's salted ``hash()``).
"""

from __future__ import annotations

import hashlib

__all__ = [
    "md5_int",
    "md5_hex",
    "stable_id",
    "stable_unit",
    "stable_bucket",
    "md5_int_vec",
    "stable_bucket_vec",
    "block_digest",
]


def md5_hex(s: str) -> str:
    """Full 32-char md5 hex digest of a UTF-8 string."""
    return hashlib.md5(s.encode("utf-8")).hexdigest()


def md5_int(s: str, bits: int = 64) -> int:
    """First ``bits`` bits of md5(s) as a non-negative int."""
    return int(hashlib.md5(s.encode("utf-8")).hexdigest()[: bits // 4], 16)


def stable_id(*parts: object, prefix: str = "") -> str:
    """Deterministic 16-hex-char id from the given key parts.

    Replacement for the reference's enumeration ids: two runs at different
    parallelism produce identical ids for identical content.
    """
    key = "\x1f".join(str(p) for p in parts)
    h = hashlib.md5(key.encode("utf-8")).hexdigest()[:16]
    return f"{prefix}{h}" if prefix else h


def stable_unit(*parts: object) -> float:
    """Deterministic float in [0, 1) from the key parts (seeded 'randomness'
    for synthetic model scorers; never ``random`` in distributed stages)."""
    return md5_int("\x1f".join(str(p) for p in parts), bits=52) / float(1 << 52)


def block_digest(table) -> str:
    """16-hex-char md5 over a block's Arrow IPC bytes — the sinks' slice
    name and retry key.  It reads the bytes in row order, so a retried
    block (same rows, same order) matches, while a block holding the same
    rows in another order, or strings that differ only after a NUL, does
    not.  Schema metadata and chunking do not enter the digest."""
    import pyarrow as pa

    t = table.replace_schema_metadata(None).combine_chunks()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as writer:
        writer.write_table(t)
    return hashlib.md5(sink.getvalue()).hexdigest()[:16]


def stable_bucket(s: str, n: int) -> int:
    """Deterministic bucket assignment in [0, n) — used for hash partitioning
    and salting hot keys."""
    return md5_int(s, bits=32) % n


# ---------------------------------------------------------------------------
# Vectorized MD5 (numpy, message-parallel)
#
# A per-row ``hashlib.md5`` loop on the engine's widest streams (shard
# routing and split assignment over every sentence) is the same trap the
# build notes record for the old shard_write filename loop (~15 s at 5.6 M
# rows).  MD5 cannot be parallelized WITHIN one message, but it is trivially
# parallel ACROSS messages: all 64 round operations are uint32
# add/and/or/xor/rotate, applied here to length-N numpy lanes (one lane per
# message, multi-block messages handled with an active-row mask per block).
# Bit-exact vs hashlib — property-tested across lengths spanning 1..3
# blocks in tests/test_properties.py.
# ---------------------------------------------------------------------------

_MD5_S = (
    [7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4
    + [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4
)
_MD5_G = (
    list(range(16))
    + [(5 * i + 1) % 16 for i in range(16, 32)]
    + [(3 * i + 5) % 16 for i in range(32, 48)]
    + [(7 * i) % 16 for i in range(48, 64)]
)


def _md5_tables():
    import numpy as np

    k = np.floor(np.abs(np.sin(np.arange(1, 65, dtype=np.float64))) * 2.0**32)
    return (
        k.astype(np.uint64).astype(np.uint32),
        np.array(_MD5_S, dtype=np.uint8),
        np.array(_MD5_G, dtype=np.uint8),
    )


_MD5_TABLES = None


def _md5_digest_words(data, offsets):
    """First two little-endian digest words (A, B) of md5 over N messages.

    ``data``: uint8 array holding the messages back-to-back;
    ``offsets``: int64 array of N+1 byte offsets into ``data``.
    Returns ``(a, b)`` uint32 arrays of length N.
    """
    import numpy as np

    global _MD5_TABLES
    if _MD5_TABLES is None:
        _MD5_TABLES = _md5_tables()
    K, S, G = _MD5_TABLES

    n = len(offsets) - 1
    lens = np.diff(offsets)
    nb = (lens + 9 + 63) // 64  # 512-bit blocks per padded message
    max_nb = int(nb.max()) if n else 1

    # padded message matrix: scatter the concatenated bytes row-wise, then
    # the 0x80 terminator and the 64-bit little-endian bit length at the
    # end of each message's own last block
    buf = np.zeros((n, max_nb * 64), dtype=np.uint8)
    row = np.repeat(np.arange(n), lens)
    # offsets may not start at 0 (sliced Arrow arrays carry absolute byte
    # offsets into the parent buffer)
    col = np.arange(int(offsets[0]), int(offsets[-1]), dtype=np.int64) - np.repeat(
        offsets[:-1], lens
    )
    buf[row, col] = data[offsets[0]: offsets[-1]]
    rows_idx = np.arange(n)
    buf[rows_idx, lens] = 0x80
    bitlen = (lens * 8).astype(np.uint64)
    pos = (nb * 64 - 8).astype(np.int64)
    for k in range(8):
        buf[rows_idx, pos + k] = (
            (bitlen >> np.uint64(8 * k)) & np.uint64(0xFF)
        ).astype(np.uint8)
    words = buf.reshape(n, max_nb, 16, 4).view("<u4")[..., 0]  # (n, nb, 16)

    a0 = np.full(n, 0x67452301, dtype=np.uint32)
    b0 = np.full(n, 0xEFCDAB89, dtype=np.uint32)
    c0 = np.full(n, 0x98BADCFE, dtype=np.uint32)
    d0 = np.full(n, 0x10325476, dtype=np.uint32)
    for bi in range(max_nb):
        m = words[:, bi, :]
        a, b, c, d = a0, b0, c0, d0
        for i in range(64):
            if i < 16:
                f = (b & c) | (~b & d)
            elif i < 32:
                f = (d & b) | (~d & c)
            elif i < 48:
                f = b ^ c ^ d
            else:
                f = c ^ (b | ~d)
            t = f + a + K[i] + m[:, int(G[i])]
            s = np.uint32(int(S[i]))
            a, b, c, d = d, b + ((t << s) | (t >> (np.uint32(32) - s))), b, c
        if bi == 0:
            a0, b0, c0, d0 = a0 + a, b0 + b, c0 + c, d0 + d
        else:
            active = nb > bi  # rows whose message extends into this block
            a0 = np.where(active, a0 + a, a0)
            b0 = np.where(active, b0 + b, b0)
            c0 = np.where(active, c0 + c, c0)
            d0 = np.where(active, d0 + d, d0)
    return a0, b0


def _as_bytes_offsets(strings):
    """(uint8 data, int64 offsets) view of a string column — zero-copy for
    pyarrow string arrays (the UTF-8 bytes are read straight out of the
    Arrow buffers); lists / numpy object arrays are encoded once."""
    import numpy as np
    import pyarrow as pa

    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    if isinstance(strings, pa.Array):
        if pa.types.is_large_string(strings.type) or pa.types.is_large_binary(
            strings.type
        ):
            off_dtype = np.int64
        else:
            off_dtype = np.int32
        bufs = strings.buffers()
        offsets = np.frombuffer(bufs[1], dtype=off_dtype)[
            strings.offset: strings.offset + len(strings) + 1
        ].astype(np.int64)
        data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else (
            np.empty(0, dtype=np.uint8)
        )
        return data, offsets
    enc = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(enc) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in enc], out=offsets[1:])
    return np.frombuffer(b"".join(enc), dtype=np.uint8), offsets


# Lane-chunk size: 8192 messages keeps every round's operand arrays
# (~32 KiB) cache-resident — measured 2.4× over one full-width pass at
# 200 k messages (the round loop is memory-traffic-bound at full width).
_MD5_CHUNK = 8192


def md5_int_vec(strings, bits: int = 32):
    """Vectorized ``md5_int``: ``uint64`` array of the first ``bits`` bits
    of md5 per string (bit-exact vs the scalar form).  ``strings`` may be a
    pyarrow (Chunked)Array — zero-copy — or any sequence of ``str``."""
    import numpy as np

    if bits not in (32, 64):
        raise ValueError("md5_int_vec supports bits in (32, 64)")
    data, offsets = _as_bytes_offsets(strings)
    n = len(offsets) - 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    outs = []
    for s in range(0, n, _MD5_CHUNK):
        e = min(s + _MD5_CHUNK, n)
        a, b = _md5_digest_words(data, offsets[s: e + 1])
        # hexdigest reads the digest bytes in order; each state word is
        # stored little-endian, so the leading hex chars are the
        # byteswapped words
        hi = a.byteswap().astype(np.uint64)
        outs.append(
            hi if bits == 32 else (hi << np.uint64(32)) | b.byteswap().astype(np.uint64)
        )
    return outs[0] if len(outs) == 1 else np.concatenate(outs)


def stable_bucket_vec(strings, n: int):
    """Vectorized ``stable_bucket``: int64 bucket per string in [0, n)."""
    return (md5_int_vec(strings, bits=32) % n).astype("int64")


def md5_int_vec_prefixed(prefix: str, values, bits: int = 32):
    """Vectorized ``md5_int(f"{prefix}|{v}")`` over a column of values —
    the message strings build ARROW-side (``binary_join_element_wise``,
    the split_heldout_mask idiom), so no per-row Python f-string touches
    a corpus-scale stream.  Bit-exact vs the scalar form for any value
    whose ``str()`` equals its Arrow string cast (ints, strings)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if not isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = pa.array(np.asarray(values))
    msg = pc.binary_join_element_wise(
        pa.scalar(prefix), pc.cast(values, pa.string()), pa.scalar("|")
    )
    return md5_int_vec(msg, bits=bits)
