"""Hash join (J2), BIO round-trip (S4/S5/O10), split (R6), multimodal tests."""

import numpy as np
import pandas as pd
import pytest

from medical_knowledge_graph_ray.stages.bio import (
    bio_decode,
    bio_encode,
    split_of,
)


def test_bio_roundtrip():
    sentence = "患者出现发热和咳嗽"
    spans = [(4, 6, "SYM"), (7, 9, "SYM")]
    block = bio_encode(sentence, spans)
    lines = block.splitlines()
    assert lines[4] == "发\tB-SYM" and lines[5] == "热\tI-SYM"
    got_sentence, got_spans = bio_decode(block)
    assert got_sentence == sentence and got_spans == spans


def test_bio_decode_space_separated():
    block = "发 B-SYM\n热 I-SYM\n。 O"
    sent, spans = bio_decode(block)
    assert sent == "发热。" and spans == [(0, 2, "SYM")]


def test_bio_adjacent_entities_kept_separate():
    block = bio_encode("发热咳嗽", [(0, 2, "SYM"), (2, 4, "SYM")])
    _, spans = bio_decode(block)
    assert spans == [(0, 2, "SYM"), (2, 4, "SYM")]  # B- restarts the span


def test_split_deterministic_and_rates():
    splits = [split_of(f"u{i}", i % 7) for i in range(20_000)]
    assert splits == [split_of(f"u{i}", i % 7) for i in range(20_000)]
    rates = pd.Series(splits).value_counts(normalize=True)
    assert 0.9 < rates["train"] < 0.99
    assert 0.005 < rates["val"] < 0.025
    assert 0.004 < rates["test"] < 0.022


def test_hash_join_matches_pandas(ray_session):
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.joins import hash_join

    rng = np.random.RandomState(3)
    left = pd.DataFrame({"k": rng.randint(0, 50, 300), "a": np.arange(300)})
    right = pd.DataFrame({"k": rng.randint(0, 50, 200), "b": np.arange(200) * 2})
    got = (
        hash_join(rd.from_pandas(left), rd.from_pandas(right), on=["k"], num_buckets=8)
        .to_pandas()
        .sort_values(["k", "a", "b"])
        .reset_index(drop=True)
    )
    want = (
        left.merge(right, on=["k"], how="inner")
        .sort_values(["k", "a", "b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["k", "a", "b"]].astype("int64"), want[["k", "a", "b"]].astype("int64")
    )


def test_salted_join_matches_unsalted_under_extreme_skew(ray_session):
    """70 % of both sides on one key: the salted join must be
    row-identical to the unsalted join for every supported mode, and the
    hot key's left rows must actually spread across the salt shards."""
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.joins import (
        detect_hot_keys, hash_join,
    )

    rng = np.random.RandomState(7)
    lk = np.where(rng.rand(4000) < 0.7, 0, rng.randint(1, 40, 4000))
    rk = np.where(rng.rand(800) < 0.7, 0, rng.randint(1, 60, 800))
    left = pd.DataFrame({"k": lk.astype("int64"), "a": np.arange(4000)})
    right = pd.DataFrame({"k": rk.astype("int64"), "b": np.arange(800) * 3})

    hot = detect_hot_keys(rd.from_pandas(left).repartition(5), ["k"])
    assert 0 in hot

    for how, cols in (("inner", ["k", "a", "b"]), ("left", ["k", "a", "b"]),
                      ("semi", ["k", "a"]), ("anti", ["k", "a"])):
        plain = (
            hash_join(rd.from_pandas(left), rd.from_pandas(right),
                      on=["k"], how=how, num_buckets=8)
            .to_pandas()[cols]
            .sort_values(cols).reset_index(drop=True)
        )
        salted = (
            hash_join(rd.from_pandas(left).repartition(6),
                      rd.from_pandas(right).repartition(3),
                      on=["k"], how=how, num_buckets=8,
                      hot_keys=hot, salt=4)
            .to_pandas()[cols]
            .sort_values(cols).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            salted.astype("float64"), plain.astype("float64"), check_dtype=False
        )

    with pytest.raises(ValueError):
        hash_join(rd.from_pandas(left), rd.from_pandas(right),
                  on=["k"], how="full", hot_keys=hot, salt=4)


def test_salted_join_splits_the_hot_bucket(ray_session):
    """The point of salting: the hot key's merge work splits across salt
    shards instead of serializing in one bucket."""
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.joins import hash_join

    left = pd.DataFrame({"k": np.zeros(1000, "int64"), "a": np.arange(1000)})
    right = pd.DataFrame({"k": np.zeros(10, "int64"), "b": np.arange(10)})
    out = hash_join(
        rd.from_pandas(left), rd.from_pandas(right), on=["k"],
        num_buckets=4, hot_keys={0}, salt=4,
        bucket_post=lambda m: pd.DataFrame({"rows": [len(m)]}),
    ).to_pandas()
    # each populated salt shard merged a SLICE of the hot key's pairs
    shards = out[out["rows"] > 0]["rows"]
    assert len(shards) == 4
    assert shards.sum() == 1000 * 10
    assert shards.max() < 1000 * 10  # no single shard did all the work


def test_hash_join_left(ray_session):
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.joins import hash_join

    left = pd.DataFrame({"k": [1, 2, 3], "a": [10, 20, 30]})
    right = pd.DataFrame({"k": [1, 1], "b": [7, 8]})
    got = (
        hash_join(rd.from_pandas(left), rd.from_pandas(right), on=["k"], how="left")
        .to_pandas()
        .sort_values(["k", "b"])
        .reset_index(drop=True)
    )
    assert len(got) == 4  # k=1 twice, k=2/3 null-extended
    assert got[got["k"] == 2]["b"].isna().all()


def test_hash_join_left_sparse_right_bucket_post(ray_session):
    """Regression: r02 driver failure (docs_curation_neardup KeyError 'comp').

    A left join whose right side is empty or so sparse that many buckets
    receive ZERO right rows must still carry the right columns (null-filled)
    into every bucket's merge — a ``bucket_post`` touching a right column
    crashed before the ``reindex`` fix in ``joins._restore``.
    """
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.joins import hash_join

    left = pd.DataFrame({"k": np.arange(200), "a": np.arange(200) * 3})

    def post(m: pd.DataFrame) -> pd.DataFrame:
        # touches the right column 'b' — the r02 crash shape
        return m[m["b"].isna() | (m["b"] > 5)]

    # (a) fully empty right side
    empty_right = pd.DataFrame({"k": pd.array([], dtype="int64"),
                                "b": pd.array([], dtype="int64")})
    got = hash_join(
        rd.from_pandas(left), rd.from_pandas(empty_right), on=["k"],
        how="left", num_buckets=16, bucket_post=post,
    ).to_pandas()
    assert len(got) == 200 and got["b"].isna().all()
    assert list(got.columns) == ["k", "a", "b"]

    # (b) sparse right: 3 keys hash into few of the 32 buckets
    sparse_right = pd.DataFrame({"k": [0, 1, 2], "b": [1, 7, 9]})
    got = (
        hash_join(
            rd.from_pandas(left), rd.from_pandas(sparse_right), on=["k"],
            how="left", num_buckets=32, bucket_post=post,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = left.merge(sparse_right, on=["k"], how="left")
    want = post(want).sort_values("k").reset_index(drop=True)
    assert len(got) == len(want)
    pd.testing.assert_series_equal(
        got["b"].astype("Float64"), want["b"].astype("Float64"), check_names=False
    )


def test_hash_join_full_outer(ray_session):
    """FULL OUTER: unmatched rows from BOTH sides survive with the other
    side's columns null — including buckets that receive rows from only
    one side, and a bucket_post touching both sides' columns."""
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.joins import hash_join

    rng = np.random.RandomState(9)
    # key ranges overlap only in [30, 50): genuine two-sided asymmetry
    left = pd.DataFrame({"k": rng.randint(0, 50, 250), "a": np.arange(250)})
    right = pd.DataFrame({"k": rng.randint(30, 80, 180), "b": np.arange(180) * 2})
    got = (
        hash_join(rd.from_pandas(left), rd.from_pandas(right), on=["k"],
                  how="full", num_buckets=8)
        .to_pandas()
        .sort_values(["k", "a", "b"])
        .reset_index(drop=True)
    )
    want = (
        left.merge(right, on=["k"], how="outer")
        .sort_values(["k", "a", "b"])
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    for c in ("k", "a", "b"):
        pd.testing.assert_series_equal(
            got[c].astype("Float64"), want[c].astype("Float64"),
            check_names=False,
        )
    # both kinds of unmatched rows really exist in the fixture
    assert got["a"].isna().any() and got["b"].isna().any()

    # sparse right into many buckets + post touching both sides
    def post(m: pd.DataFrame) -> pd.DataFrame:
        return m[m["a"].isna() | m["b"].isna() | (m["a"] < m["b"])]

    sparse_right = pd.DataFrame({"k": [0, 1, 99], "b": [5, 7, 9]})
    got2 = (
        hash_join(rd.from_pandas(left), rd.from_pandas(sparse_right),
                  on=["k"], how="full", num_buckets=32, bucket_post=post)
        .to_pandas()
        .sort_values(["k", "a", "b"])
        .reset_index(drop=True)
    )
    want2 = post(left.merge(sparse_right, on=["k"], how="outer"))
    want2 = want2.sort_values(["k", "a", "b"]).reset_index(drop=True)
    assert len(got2) == len(want2)
    assert (got2["k"] == 99).any()  # right-only key survived


def test_hash_join_full_outer_empty_sides(ray_session):
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.joins import hash_join

    left = pd.DataFrame({"k": [1, 2], "a": [10, 20]})
    empty = pd.DataFrame({"k": pd.array([], dtype="int64"),
                          "b": pd.array([], dtype="int64")})
    got = hash_join(
        rd.from_pandas(left), rd.from_pandas(empty), on=["k"], how="full",
        num_buckets=4,
    ).to_pandas()
    assert len(got) == 2 and got["b"].isna().all()
    got = hash_join(
        rd.from_pandas(empty.rename(columns={"b": "a"})),
        rd.from_pandas(left.rename(columns={"a": "b"})),
        on=["k"], how="full", num_buckets=4,
    ).to_pandas()
    assert len(got) == 2 and got["a"].isna().all()
    assert set(got["b"]) == {10, 20}


def test_media_codecs_roundtrip():
    """The self-describing formats REALLY decode: encode→decode is exact."""
    from medical_knowledge_graph_ray.stages.multimodal import (
        ppm_decode, ppm_encode, rawvideo_decode, rawvideo_encode,
        wav_decode, wav_encode, _synth_audio, _synth_image,
    )

    img = _synth_image(7, 40, 24)
    assert (ppm_decode(ppm_encode(img)) == img).all()
    aud = _synth_audio(3, 5000)
    got, rate = wav_decode(wav_encode(aud, 8000))
    assert rate == 8000 and (got == aud).all()
    frames = [_synth_image(i, 16, 12) for i in range(5)]
    dec = rawvideo_decode(rawvideo_encode(frames), every=2)
    assert len(dec) == 3 and (dec[1] == frames[2]).all()
    with pytest.raises(ValueError):
        ppm_decode(b"nonsense")


def test_media_kernels():
    from medical_knowledge_graph_ray.stages.multimodal import (
        _synth_image, dhash64, image_features, resize_nearest,
    )

    img = _synth_image(1, 64, 48)
    small = resize_nearest(img, (16, 16))
    assert small.shape == (16, 16, 3)
    f = image_features(img)
    assert f.shape == (16,) and 0.0 <= f[0] <= 1.0
    # perceptual hash: stable, and near-identical images agree closely
    h1, h2 = dhash64(img), dhash64(resize_nearest(img, (32, 32)))
    assert h1 == dhash64(_synth_image(1, 64, 48))
    assert bin(h1 ^ h2).count("1") <= 16  # small Hamming distance


def test_media_feature_plumbing(ray_session):
    from medical_knowledge_graph_ray.stages.multimodal import (
        MediaFeatureExtractor,
        media_features,
        synth_media_batch,
    )

    t = synth_media_batch({"id": np.arange(24)})
    assert t.num_rows == 24
    fx = MediaFeatureExtractor()
    out = fx(t).to_pandas()
    assert "payload" not in out.columns and "features" in out.columns
    assert (out["status"] == "decoded").sum() > 0
    # foreign codecs hit the dead-letter path, never a crash/drop
    assert (out["status"] == "unsupported").sum() > 0
    assert set(out.loc[out["status"] == "unsupported", "mime"]) <= {
        "image/png", "audio/mpeg", "video/mp4"
    }
    # decoded images/videos carry a non-zero perceptual hash
    dec_img = out[(out["status"] == "decoded") & (out["kind"] != "audio")]
    assert (dec_img["phash"] != 0).all()

    ds = media_features(48, concurrency=2)
    df = ds.to_pandas()
    assert len(df) == 48 and set(df["kind"]) == {"image", "audio", "video"}
    assert (df["status"] == "decoded").sum() > 30


def test_extraction_audit_statuses(ray_session):
    import pyarrow as pa

    from medical_knowledge_graph_ray.sources.pages import pages_table
    from medical_knowledge_graph_ray.stages.audit import audit_batch

    t = pages_table(60)
    out = audit_batch(t).to_pandas()
    assert len(out) == 60
    assert (out["status"] == "ok").sum() > 0
    assert (out["status"] == "non_target_lang").sum() >= 0
    # corrupted rows are classified, never dropped
    bad = pa.table(
        {
            "url": ["u1", "u2", "u3"],
            "html": [b"", b"<html><body><script>x</script></body></html>",
                     "<html><body><p>见上</p></body></html>".encode("utf-8")],
            "lang": ["zh", "zh", "zh"],
        }
    )
    audited = audit_batch(bad).to_pandas()
    assert list(audited["status"]) == ["empty_html", "no_blocks", "no_sentences"]


def test_overlay_nonessential_exact_boundary_only():
    """E6 (generation.py:216-238): overlay fires only on exact [s,e) match
    and skips surfaces containing 、；，;."""
    from medical_knowledge_graph_ray.stages.bio import overlay_nonessential

    seg = [["反复", "fw", 0, 2], ["出现", "n", 2, 4], ["发热", "SYM", 4, 6]]
    out = overlay_nonessential(
        list(map(list, seg)),
        [("反复", "FW", 0, 2),      # exact → upgraded
         ("出现", "DEG", 1, 4),     # boundary mismatch → ignored
         ("反、复", "FW", 4, 6)],   # veto char → ignored
    )
    assert out[0][1] == "FW"
    assert out[1][1] == "n"
    assert out[2][1] == "SYM"


def test_problematic_removal_rm_and_split():
    """E7 (generation.py:347-414): nontest suffix → 'rm'; 、-tokens split
    with 'rm' splitters unless any piece is ≤ 2 chars."""
    from medical_knowledge_graph_ray.stages.bio import problematic_removal

    seg = [
        ["耐药基因", "OBJ", 0, 4],        # endswith 基因 → rm
        ["咳嗽咳痰、发热发冷", "SYM", 4, 13],  # pieces 4+4 → split
        ["咳嗽、热", "SYM", 13, 17],       # piece 热 ≤ 2 → kept intact
    ]
    out = problematic_removal(seg)
    assert out[0] == ["耐药基因", "rm", 0, 4]
    assert out[1] == ["咳嗽咳痰", "SYM", 4, 8]
    assert out[2] == ["、", "rm", 8, 9]
    assert out[3] == ["发热发冷", "SYM", 9, 13]
    assert out[4] == ["咳嗽、热", "SYM", 13, 17]
    # offsets still partition the original range
    assert out[1][2] == 4 and out[3][3] == 13


def test_problematic_removal_edge_splitters():
    from medical_knowledge_graph_ray.stages.bio import problematic_removal

    # leading splitter: empty first piece becomes an rm splitter token
    out = problematic_removal([["、咳嗽咳痰", "SYM", 0, 5]])
    assert out[0] == ["、", "rm", 0, 1]
    assert out[1] == ["咳嗽咳痰", "SYM", 1, 5]
    # trailing splitter
    out = problematic_removal([["咳嗽咳痰、", "SYM", 0, 5]])
    assert out[0] == ["咳嗽咳痰", "SYM", 0, 4]
    assert out[1] == ["、", "rm", 4, 5]


def test_training_spans_emits_nonessential_and_drops_nontest():
    from medical_knowledge_graph_ray.stages.bio import training_spans

    sent = "患者反复出现发热，样本中检出耐药基因"
    ess = [(6, 8, "SYM"), (14, 18, "OBJ")]  # 发热, 耐药基因
    spans = training_spans(sent, ess)
    assert (6, 8, "SYM") in spans
    assert (2, 4, "FW") in spans            # E6 overlay of 反复
    assert all(ety != "OBJ" for _s, _e, ety in spans)  # E7 dropped 耐药基因


def test_bio_export_includes_nonessential_tags(ray_session):
    """kg_bio_export rows must now include non-essential B- tags (E6)."""
    import __ray_entry__ as E

    df = E.queries()["kg_bio_export"]("/root/testdata/sf0.001").to_pandas()
    blob = "\n".join(df["bio"])
    assert "B-FW" in blob or "B-DEG" in blob or "B-AT" in blob
    assert "B-DUR" in blob or "B-PT" in blob or "B-PSB" in blob or "B-FW" in blob
    # E7: 耐药基因 never appears as a labeled OBJ entity in training data
    for block in df["bio"]:
        sent, spans = __import__(
            "medical_knowledge_graph_ray.stages.bio", fromlist=["bio_decode"]
        ).bio_decode(block)
        for s, e, ety in spans:
            assert not (sent[s:e] == "耐药基因" and ety == "OBJ")


def test_problematic_removal_consecutive_splitters_exact_offsets():
    """Documented divergence from the reference's off-by-one: one 'rm'
    token per splitter char, so offsets always re-partition the span."""
    from medical_knowledge_graph_ray.stages.bio import problematic_removal

    out = problematic_removal([["咳嗽咳痰、、发热发冷", "SYM", 0, 10]])
    assert out == [
        ["咳嗽咳痰", "SYM", 0, 4],
        ["、", "rm", 4, 5],
        ["、", "rm", 5, 6],
        ["发热发冷", "SYM", 6, 10],
    ]


def test_phash_neardup_banding_is_exact(ray_session):
    """Pigeonhole guarantee: banded pairs == brute-force pairs for
    Hamming <= 3 over the decoded media corpus."""
    from medical_knowledge_graph_ray.stages.multimodal import (
        media_features,
        media_neardup,
    )

    feats = media_features(96).to_pandas()
    dec = feats[(feats["status"] == "decoded") & (feats["kind"] != "audio")]
    ph = dict(zip(dec["media_id"], dec["phash"].astype("uint64")))
    truth = set()
    ids = sorted(ph)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if bin(int(ph[ids[i]]) ^ int(ph[ids[j]])).count("1") <= 3:
                truth.add((ids[i], ids[j]))
    got = media_neardup(96).to_pandas()
    found = set(zip(got["media_a"], got["media_b"]))
    assert found == truth, (len(found), len(truth))
    with __import__("pytest").raises(ValueError):
        media_neardup(8, max_hamming=4)


def test_hash_join_skewed_hot_key(ray_session):
    """One key carrying 50% of the probe side must neither break nor
    lose rows (bucket co-location is by key hash; a hot key's rows all
    land in one bucket and the in-bucket merge is vectorized)."""
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.joins import hash_join

    rng = np.random.RandomState(2)
    hot = np.full(5000, 7, dtype=np.int64)
    cold = rng.randint(0, 1000, size=5000).astype(np.int64)
    probe = pd.DataFrame({"k": np.concatenate([hot, cold]),
                          "v": np.arange(10000, dtype=np.int64)})
    build = pd.DataFrame({"k": np.arange(1000, dtype=np.int64),
                          "w": np.arange(1000, dtype=np.int64) * 10})
    got = hash_join(
        rd.from_pandas(build), rd.from_pandas(probe), on=["k"], num_buckets=8
    ).to_pandas()
    want = build.merge(probe, on="k")
    assert len(got) == len(want)
    assert got["v"].sum() == want["v"].sum()
    assert (got.loc[got.k == 7, "w"] == 70).all()
    assert (got.k == 7).sum() == (want.k == 7).sum() >= 5000


def test_hash_join_semi_anti(ray_session):
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.joins import hash_join

    import pyarrow as pa

    left = pd.DataFrame({"k": [1, 2, 3, 4, 4], "v": list("abcde")})
    right = pd.DataFrame({"k": [2, 4, 4, 9]})
    L = pa.schema([("k", pa.int64()), ("v", pa.string())])
    R = pa.schema([("k", pa.int64())])
    semi = hash_join(
        rd.from_pandas(left).repartition(3), rd.from_pandas(right).repartition(2),
        on=["k"], how="semi", left_schema=L, right_schema=R,
    ).to_pandas().sort_values("v")
    anti = hash_join(
        rd.from_pandas(left).repartition(3), rd.from_pandas(right).repartition(2),
        on=["k"], how="anti", left_schema=L, right_schema=R,
    ).to_pandas().sort_values("v")
    assert list(semi["v"]) == ["b", "d", "e"]   # keys present on the right
    assert list(anti["v"]) == ["a", "c"]        # keys absent; no row explosion
    assert list(semi.columns) == ["k", "v"]     # left columns only


def test_bloom_semi_join_exact_and_prefilter_superset(ray_session):
    """The Bloom chain's final output must equal a plain exact semi join
    (false positives removed); the prefilter alone must be a superset of
    the true matches (no false negatives, ever)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.bloom import (
        bloom_contains,
        bloom_semi_join,
        bloom_words,
    )
    from medical_knowledge_graph_ray.stages.joins import hash_join

    rng = np.random.RandomState(5)
    probe = pd.DataFrame(
        {"id": np.arange(5000, dtype="int64"),
         "k": rng.randint(0, 2000, 5000).astype("int64")}
    )
    fkeys = pd.DataFrame(
        {"k": np.unique(rng.randint(0, 2000, 150)).astype("int64")}
    )
    schema = pa.schema([("id", pa.int64()), ("k", pa.int64())])

    got = (
        bloom_semi_join(
            rd.from_pandas(probe), rd.from_pandas(fkeys), "k",
            probe_schema=schema, m_bits=1 << 12, k_hashes=3,
        )
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    want = (
        hash_join(
            rd.from_pandas(probe), rd.from_pandas(fkeys), on=["k"],
            how="semi", left_schema=schema,
            right_schema=pa.schema([("k", pa.int64())]),
        )
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["id", "k"]], want[["id", "k"]])

    # no false negatives even at a deliberately tiny, collision-heavy m
    w = bloom_words(fkeys["k"].to_numpy(), 1 << 8, 3)
    member = bloom_contains(w, probe["k"].to_numpy(), 1 << 8, 3)
    truly = probe["k"].isin(set(fkeys["k"])).to_numpy()
    assert (member | ~truly).all()


def test_skew_auto_matches_off_and_mines_hot_keys(ray_session):
    """skew='auto' must mine the hot key from the left prefix sample and
    produce row-identical results to the plain join — the adaptive path
    is pure performance."""
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.joins import hash_join

    rng = np.random.RandomState(11)
    lk = np.where(rng.rand(5000) < 0.5, 7, rng.randint(100, 400, 5000))
    rk = np.arange(400).astype("int64")
    left = pd.DataFrame({"k": lk.astype("int64"), "a": np.arange(5000)})
    right = pd.DataFrame({"k": rk, "b": rk * 3})
    cols = ["k", "a", "b"]

    plain = (
        hash_join(rd.from_pandas(left), rd.from_pandas(right),
                  on=["k"], how="inner", num_buckets=8, skew="off")
        .to_pandas()[cols].sort_values(cols).reset_index(drop=True)
    )
    auto = (
        hash_join(rd.from_pandas(left).repartition(6), rd.from_pandas(right),
                  on=["k"], how="inner", num_buckets=8, skew="auto")
        .to_pandas()[cols].sort_values(cols).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(auto, plain)

    with pytest.raises(ValueError):
        hash_join(rd.from_pandas(left), rd.from_pandas(right),
                  on=["k"], skew="bogus")


def test_sql_datasink_exactly_once_and_concurrent(ray_session, tmp_path):
    """S7 external-DB sink: concurrent write tasks land every row
    exactly once in sqlite; re-writing the same Dataset is a structural
    no-op (slice ledger); the KG edges table round-trips."""
    import numpy as np
    import ray.data as rd

    from medical_knowledge_graph_ray.sources.dbsink import (
        read_sql_table, write_sql_table,
    )

    db = str(tmp_path / "sink.db")
    df = pd.DataFrame({
        "k": np.arange(5000, dtype="int64"),
        "name": [f"n{i}" for i in range(5000)],
        "w": np.linspace(0, 1, 5000),
    })
    ds = rd.from_pandas(df).repartition(8)  # 8 concurrent writer tasks
    m = write_sql_table(ds, "edges", db_path=db)
    assert m["rows"] == 5000 and m["slices"] == 8

    back = read_sql_table("edges", db_path=db).sort_values(
        "k").reset_index(drop=True)
    assert back["k"].tolist() == df["k"].tolist()
    assert back["name"].tolist() == df["name"].tolist()
    assert np.allclose(back["w"], df["w"])

    # identical blocks retry as no-ops — no duplicate rows
    m2 = write_sql_table(ds, "edges", db_path=db)
    assert m2 == {"rows": 0, "slices": 0}
    assert len(read_sql_table("edges", db_path=db)) == 5000


def test_sql_sink_tells_reordered_blocks_from_retries(ray_session, tmp_path):
    """The slice ledger keys a block on its rows IN ORDER: two blocks of
    one write holding the same rows in different orders both land, while
    a re-sent identical block lands once."""
    import ray.data as rd

    from medical_knowledge_graph_ray.sources.dbsink import (
        read_sql_table, write_sql_table,
    )

    db = str(tmp_path / "sink.db")
    df = pd.DataFrame({"k": [1, 2, 3], "name": ["a", "b", "c"]})
    rev = df.iloc[::-1].reset_index(drop=True)
    m = write_sql_table(rd.from_pandas([df, rev]), "t", db_path=db)
    assert m == {"rows": 6, "slices": 2}
    m2 = write_sql_table(rd.from_pandas([df]), "t", db_path=db)
    assert m2 == {"rows": 0, "slices": 0}
    back = read_sql_table("t", db_path=db)
    assert sorted(back["k"]) == [1, 1, 2, 2, 3, 3]
    # names that differ only after a NUL: both blocks land, a re-sent
    # block lands nothing
    nul_a = pd.DataFrame({"k": [0, 0], "name": ["x\x00a", "x\x00b"]})
    nul_b = pd.DataFrame({"k": [0, 0], "name": ["x\x00a", "x\x00c"]})
    m3 = write_sql_table(rd.from_pandas([nul_a, nul_b]), "t", db_path=db)
    assert m3 == {"rows": 4, "slices": 2}
    m4 = write_sql_table(rd.from_pandas([nul_b]), "t", db_path=db)
    assert m4 == {"rows": 0, "slices": 0}


def test_merge_join_equals_hash_join(ray_session):
    """The sort-merge strategy is row-identical to the partitioned hash
    join (inner, single int64 key), including duplicate-key expansion
    and one-sided buckets; out-of-range keys clamp correctly."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from medical_knowledge_graph_ray.stages.joins import (
        hash_join, merge_join,
    )

    rng = np.random.RandomState(11)
    left = pd.DataFrame({
        "k": rng.randint(0, 300, 2000).astype("int64"),
        "lv": np.arange(2000, dtype="int64"),
    })
    right = pd.DataFrame({
        "k": rng.randint(100, 500, 700).astype("int64"),  # partial overlap
        "rv": (np.arange(700) * 3).astype("int64"),
    })
    ls = pa.schema([("k", pa.int64()), ("lv", pa.int64())])
    rs = pa.schema([("k", pa.int64()), ("rv", pa.int64())])
    lds = rd.from_pandas(left).repartition(5)
    rds = rd.from_pandas(right).repartition(3)

    got = merge_join(lds, rds, "k", key_range=(150, 350),  # deliberately
                     left_schema=ls, right_schema=rs       # too narrow
                     ).to_pandas()
    want = hash_join(lds, rds, ["k"], left_schema=ls,
                     right_schema=rs).to_pandas()
    cols = ["k", "lv", "rv"]
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


def test_merge_join_range_bucket_spans_int64():
    """Range buckets are exact where ``(k - lo) * nb`` overflows int64:
    monotone in the key, every bucket used over the full int64 range,
    and in-range keys keep ``floor((k - lo) * nb / span)``."""
    from medical_knowledge_graph_ray.stages.joins import range_bucket

    lo, hi = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
    step = (hi - lo) // 1000
    k = np.array([lo + i * step for i in range(1001)] + [hi], dtype=np.int64)
    b = range_bucket(k, lo, hi, 8)
    assert (np.diff(b) >= 0).all()
    assert sorted(set(b.tolist())) == list(range(8))

    assert range_bucket(np.array([2**60], dtype=np.int64), -2**40, 2**60,
                        8).tolist() == [7]

    k = np.arange(100, 401, dtype=np.int64)
    want = np.clip((k - 150) * 8 // 201, 0, 7)
    assert range_bucket(k, 150, 350, 8).tolist() == want.tolist()
