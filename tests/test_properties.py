"""Property-based tests (hypothesis) for the invariants SURVEY §7.4 calls
out: offsets always partition the sentence, span/BIO round-trips, boundary
strip idempotence, run-length decode/encode inverses, split determinism."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medical_knowledge_graph_ray.functions.spans import fill_spans, runs
from medical_knowledge_graph_ray.stages.bio import bio_decode, bio_encode
from medical_knowledge_graph_ray.stages.ner import EnsembleNER
from medical_knowledge_graph_ray.stages.tokenize import Tokenizer
from medical_knowledge_graph_ray.stages.triples import strip_boundaries

_ZH = st.sampled_from(list("患者出现发热咳嗽心脏手术、。，：检查012ab "))
_SENT = st.text(alphabet=_ZH, min_size=0, max_size=40)

_TOK = Tokenizer()
_NER = EnsembleNER()


@given(_SENT)
@settings(max_examples=200, deadline=None)
def test_tokenizer_partitions_any_sentence(sent):
    seg = _TOK.tokenize(sent)
    pos = 0
    for word, _tag, s, e in seg:
        assert s == pos and e > s and sent[s:e] == word
        pos = e
    assert pos == len(sent)


@given(_SENT)
@settings(max_examples=200, deadline=None)
def test_ner_mentions_are_substrings(sent):
    for (model, ent, _ety, s, e, *_rest) in _NER._sentence_mentions(sent):
        assert 0 <= s < e <= len(sent)
        # jittered member spans keep ent == sentence slice
        assert sent[s:e] == ent


@given(_SENT)
@settings(max_examples=100, deadline=None)
def test_vote_spans_well_formed(sent):
    for surface, ety, s, e, prob in _NER.vote_spans(sent):
        assert sent[s:e] == surface and 0 < prob <= 1.0
        assert len(ety) == 3


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 5),
                          st.integers(1, 10), st.floats(0.1, 1.0)),
                max_size=6))
@settings(max_examples=200, deadline=None)
def test_runs_fill_roundtrip(raw_spans):
    # build non-overlapping spans
    spans, pos = [], 0
    for off, ln, tid, p in raw_spans:
        s = pos + off
        spans.append((s, s + ln, tid, round(p, 6)))
        pos = s + ln + 1  # gap guarantees no adjacency merge
    L = (spans[-1][1] + 2) if spans else 5
    tids, _probs = fill_spans(L, spans)
    assert runs(tids) == [(s, e, t) for s, e, t, _ in spans]


@given(_SENT, st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_strip_boundaries_idempotent(sent, start):
    out1 = strip_boundaries(sent, start, start + len(sent))
    out2 = strip_boundaries(*out1)
    assert out1 == out2
    surface, s, e = out1
    assert e - s == len(surface)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4),
                          st.sampled_from(["DIS", "SYM", "DRU"])), max_size=4))
@settings(max_examples=200, deadline=None)
def test_bio_roundtrip_property(raw):
    spans, pos = [], 0
    for off, ln, ety in raw:
        s = pos + off + 1  # gap ≥1 so decode can't merge adjacents... B- restarts anyway
        spans.append((s, s + ln, ety))
        pos = s + ln
    L = (spans[-1][1] + 1) if spans else 4
    sentence = "字" * L
    block = bio_encode(sentence, spans)
    got_sentence, got_spans = bio_decode(block)
    assert got_sentence == sentence and got_spans == spans


@given(
    st.lists(
        st.text(
            alphabet=st.characters(
                codec="utf-8", blacklist_categories=("Cs",)
            ),
            max_size=200,
        ),
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_md5_int_vec_matches_hashlib(strs):
    """The numpy-vectorized MD5 is bit-exact vs hashlib across arbitrary
    UTF-8 strings and lengths spanning multiple 512-bit blocks."""
    import pyarrow as pa

    from medical_knowledge_graph_ray.functions.hashing import md5_int, md5_int_vec

    for bits in (32, 64):
        got = md5_int_vec(pa.array(strs, pa.string()), bits=bits)
        want = np.array([md5_int(s, bits) for s in strs], dtype=np.uint64)
        assert (got == want).all()


def test_block_digest_tells_nul_blocks_apart_and_matches_retries():
    """The sinks' slice digest reads the block's bytes in order: urls
    that differ only after a NUL, or the same rows reordered, give other
    digests; a retried block (same rows, other chunking or metadata)
    gives the same one."""
    import pyarrow as pa

    from medical_knowledge_graph_ray.functions.hashing import block_digest

    def block(urls, ords):
        return pa.table({"url": pa.array(urls, pa.string()),
                         "sent_ord": pa.array(ords, pa.int32())})

    a = block(["x\x00a", "x\x00b"], [0, 0])
    b = block(["x\x00a", "x\x00c"], [0, 0])
    assert block_digest(a) != block_digest(b)
    assert block_digest(a) != block_digest(block(["x\x00b", "x\x00a"], [0, 0]))
    retry = pa.concat_tables([a.slice(0, 1), a.slice(1)]).replace_schema_metadata(
        {"k": "v"})
    assert block_digest(retry) == block_digest(a)
    assert len(block_digest(a)) == 16


def test_md5_int_vec_block_boundaries_and_slices():
    """Deterministic edge lengths around the 1→2 and 2→3 block boundaries
    (55/56, 119/120 message bytes) plus sliced/chunked Arrow inputs."""
    import pyarrow as pa

    from medical_knowledge_graph_ray.functions.hashing import (
        md5_int,
        md5_int_vec,
        stable_bucket,
        stable_bucket_vec,
    )

    strs = ["x" * n for n in (0, 1, 54, 55, 56, 63, 64, 65, 118, 119, 120, 300)]
    strs += ["雪梨酱油汤圆" * n for n in range(6)]
    want = np.array([md5_int(s, 32) for s in strs], dtype=np.uint64)
    assert (md5_int_vec(strs) == want).all()
    arr = pa.chunked_array([pa.array(strs[:5]), pa.array(strs[5:])])
    assert (md5_int_vec(arr) == want).all()
    sliced = pa.array(strs).slice(3, 7)
    assert (md5_int_vec(sliced) == want[3:10]).all()
    assert (
        stable_bucket_vec(strs, 7) == np.array([stable_bucket(s, 7) for s in strs])
    ).all()


def test_split_heldout_mask_matches_scalar():
    import pyarrow as pa

    from medical_knowledge_graph_ray.stages.bio import split_heldout_mask, split_of

    urls = [f"https://medwiki.example.org/wiki/page_{i:05d}" for i in range(3000)]
    ords = [i % 37 for i in range(3000)]
    got = split_heldout_mask(pa.array(urls), pa.array(ords, pa.int64()))
    want = np.array([split_of(u, o) != "train" for u, o in zip(urls, ords)])
    assert (got == want).all()
    assert want.any()  # the corpus slice actually exercises both branches


# surfaces that exercise every normalizer branch: casefold specials (ß ẞ İ ς
# ﬁ), ASCII and full-width brackets, whitespace, NUL and the empty string
_SURF = st.text(
    alphabet=st.sampled_from(list("aB ß ẞ İ ς ﬁ ()[]（）【】 \t\n\u3000\x00")),
    max_size=6,
)
_TRIPLE = st.tuples(
    _SURF, _SURF, st.sampled_from(["rel", "rel\x00a", "rel\x00b", ""]),
    _SURF, _SURF, st.floats(0, 1),
)


@given(st.lists(_TRIPLE, max_size=40), st.integers(0, 40))
@example([], 0)
@example([("a", "T", "rel", "x", "T", 0.5)], 1)
@example([("", "T", "rel", "\x00", "T", 0.5)], 0)
@settings(max_examples=200, deadline=None)
def test_partial_graph_batch_matches_python_fold(rows, split):
    """The dictionary-encoded graph kernel equals a plain-Python fold over
    ``node_id``/``normalize_surface`` on any (chunked) batch: one node row
    (kind 0, c 0) per id with its normalized name, count and max prob, one
    edge row (kind 1) per (subj_id, pred, obj_id), and every edge endpoint
    a node; the uint64 ids spell ``node_id`` as ``n`` + 16 hex."""
    import pyarrow as pa

    from medical_knowledge_graph_ray.stages.canonicalize import (
        node_id,
        normalize_surface,
        partial_graph_batch,
    )
    from medical_knowledge_graph_ray.stages.triples import TRIPLE_SCHEMA

    cols = ["subj", "subj_type", "pred", "obj", "obj_type", "prob"]
    t = pa.table(
        {c: [r[i] for r in rows] for i, c in enumerate(cols)}
        | {"url": ["u"] * len(rows), "sent_ord": list(range(len(rows)))},
        schema=TRIPLE_SCHEMA,
    )
    split = min(split, len(rows))
    t = pa.concat_tables([t.slice(0, split), t.slice(split)])

    want_nodes: dict = {}
    want_edges: dict = {}
    for subj, stype, pred, obj, otype, p in rows:
        for surface, etype in ((subj, stype), (obj, otype)):
            nid = node_id(surface, etype)
            *_, n, pmax = want_nodes.get(nid, (None, None, 0, p))
            want_nodes[nid] = (normalize_surface(surface), etype, n + 1, max(pmax, p))
        key = (node_id(subj, stype), pred, node_id(obj, otype))
        n, pmax = want_edges.get(key, (0, p))
        want_edges[key] = (n + 1, max(pmax, p))

    got = partial_graph_batch(t).to_pylist()
    assert {r["kind"] for r in got} <= {0, 1}
    nodes = [r for r in got if r["kind"] == 0]
    edges = [r for r in got if r["kind"] == 1]
    got_nodes = {f"n{r['a']:016x}": (r["name"], r["b"], r["n"], r["p"]) for r in nodes}
    assert len(got_nodes) == len(nodes) and all(r["c"] == 0 for r in nodes)
    assert got_nodes == want_nodes
    got_edges = {
        (f"n{r['a']:016x}", r["b"], f"n{r['c']:016x}"): (r["n"], r["p"])
        for r in edges
    }
    assert len(got_edges) == len(edges) and all(r["name"] == "" for r in edges)
    assert got_edges == want_edges
    assert {k[0] for k in got_edges} | {k[2] for k in got_edges} <= set(got_nodes)


def test_id_formatter_and_bucket_match_the_hex_forms():
    """``format_ids`` spells each 64-bit digest as ``node_id`` does, and
    ``bucket_of`` equals the range bucket read off hex chars 1–2 of that
    string, at the extremes and on random digests."""
    from medical_knowledge_graph_ray.stages.canonicalize import bucket_of, format_ids

    rng = np.random.default_rng(7)
    digests = [0, 1, 2**63 - 1, 2**63, 2**64 - 1] + [
        int(x) for x in rng.integers(0, 2**64 - 1, 200, dtype=np.uint64, endpoint=True)
    ]
    h = np.array(digests, np.uint64)
    ids = [f"n{d:016x}" for d in digests]
    assert format_ids(h).to_pylist() == ids
    assert format_ids(h[:0]).to_pylist() == []
    for nb in (1, 3, 16, 32):
        assert bucket_of(h, nb).tolist() == [int(s[1:3], 16) * nb // 256 for s in ids]
