"""Multimodal pipeline: synthetic binary payloads through decode /
feature-extract / resize / frame-sample task-pool stages. The codec is a
deterministic stub (no media libs); the Ray plumbing — schema, batch flow,
list-column output — is real."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from apacheorcdotnet_ray.pipelines import multimodal as mm


@pytest.fixture(scope="module")
def media_ds(ray_session):
    base = rd.from_arrow(pa.table({"doc_id": pa.array(np.arange(40, dtype=np.int64))}))
    return mm.synthesize_media(base).materialize()


def test_synthesize_deterministic(ray_session):
    base = rd.from_arrow(pa.table({"doc_id": pa.array(np.arange(10, dtype=np.int64))}))
    a = mm.synthesize_media(base).to_pandas().sort_values("media_id")
    b = mm.synthesize_media(base).to_pandas().sort_values("media_id")
    assert (a["payload"].map(len).values == b["payload"].map(len).values).all()
    assert a.iloc[0]["payload"] == b.iloc[0]["payload"]


def test_decode_roundtrip(media_ds):
    dec = mm.decode_media(media_ds, batch_size=16).to_pandas()
    src = media_ds.to_pandas().set_index("media_id")
    assert len(dec) == len(src)
    for _, row in dec.iterrows():
        meta = src.loc[row["media_id"]]
        assert row["width"] == meta["width"]
        assert row["height"] == meta["height"]
        assert row["n_frames"] == meta["n_frames"]
        assert len(row["pixels"]) == meta["width"] * meta["height"] * meta["n_frames"]


def test_decoder_rejects_garbage():
    with pytest.raises(ValueError):
        mm.decode_payload(b"NOTAMEDIAFILE")


def test_features(media_ds):
    feats = mm.extract_features(mm.decode_media(media_ds), batch_size=16).to_pandas()
    assert len(feats) == media_ds.count()
    f0 = np.asarray(feats.iloc[0]["feature"])
    assert f0.shape == (16,)
    assert abs(f0.sum() - 1.0) < 1e-5  # normalized histogram
    assert (feats["mean_pixel"] > 100).all()  # uniform bytes → mean ≈ 127.5


def test_resize(media_ds):
    dec = mm.decode_media(media_ds)
    rs = mm.resize_images(dec, out_w=8, out_h=8).to_pandas()
    for _, row in rs.iterrows():
        assert row["width"] == 8 and row["height"] == 8
        assert len(row["pixels"]) == 8 * 8 * row["n_frames"]


def test_frame_sampling(media_ds):
    dec = mm.decode_media(media_ds)
    sampled = mm.sample_frames(dec, every_n=2).to_pandas()
    src = mm.decode_media(media_ds).to_pandas().set_index("media_id")
    for _, row in sampled.iterrows():
        orig = src.loc[row["media_id"], "n_frames"]
        expect = -(-orig // 2) if orig > 1 else orig  # ceil div for videos
        assert row["n_frames"] == expect


def test_media_codecs_roundtrip():
    import numpy as np

    from apacheorcdotnet_ray.codecs import media as mcodec

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(13, 17, 3), dtype=np.uint8)  # odd width → BMP padding
    assert np.array_equal(mcodec.decode_ppm(mcodec.encode_ppm(img)), img)
    assert np.array_equal(mcodec.decode_bmp(mcodec.encode_bmp(img)), img)
    # PPM comment + whitespace handling
    ppm = b"P6\n# a comment\n17  13\n255\n" + img.tobytes()
    assert np.array_equal(mcodec.decode_ppm(ppm), img)
    s = rng.integers(-32768, 32767, size=1000, dtype=np.int16)
    dec, rate = mcodec.decode_wav(mcodec.encode_wav(s, 8000))
    assert rate == 8000 and np.array_equal(dec[:, 0], s)
    stereo = rng.integers(-32768, 32767, size=(500, 2), dtype=np.int16)
    dec2, _ = mcodec.decode_wav(mcodec.encode_wav(stereo))
    assert np.array_equal(dec2, stereo)


def test_real_format_decode_pipeline(ray_session):
    import numpy as np
    import ray.data as rd

    from apacheorcdotnet_ray.codecs import media as mcodec
    from apacheorcdotnet_ray.pipelines import multimodal as mm

    base = rd.from_items([{"doc_id": i} for i in range(60)])
    # mixed formats exercise the magic-byte dispatch in one pipeline
    feats = mm.extract_features(mm.decode_media(mm.synthesize_media(base, fmt="mixed")))
    df = feats.to_pandas().sort_values("media_id").reset_index(drop=True)
    assert len(df) == 60
    # cross-check one PPM item end-to-end against the codec directly
    i = 1  # ids % 3 == 1 → ppm
    w, h = 16 + (i % 3) * 8, 16 + (i % 5) * 4
    img = mcodec.decode_ppm(mm._payload(i, w, h, 1, fmt="ppm"))
    gray = mcodec.rgb_to_gray(img).astype(np.float64)
    assert abs(df["mean_pixel"][i] - gray.mean()) < 1e-9
    assert abs(df["std_pixel"][i] - gray.std()) < 1e-9


def test_audio_pipeline(ray_session):
    import numpy as np
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines import multimodal as mm

    base = rd.from_items([{"doc_id": i} for i in range(30)])
    feats = mm.audio_features(mm.decode_audio(mm.synthesize_audio(base)))
    df = feats.to_pandas().sort_values("media_id").reset_index(drop=True)
    assert len(df) == 30
    assert (df["duration_s"] > 0.05).all() and (df["duration_s"] < 0.5).all()
    assert (df["rms"] > 1000).all()          # sine at 0.6 FS
    assert (df["zcr"] > 0).all() and (df["zcr"] < 0.5).all()


def test_feature_stats_with_trailing_empty_item(ray_session):
    import numpy as np
    import pyarrow as pa

    from apacheorcdotnet_ray.pipelines.multimodal import pixel_features

    batch = pa.table({
        "media_id": pa.array([1, 2], type=pa.int64()),
        "pixels": pa.array([list(range(10)), []], type=pa.list_(pa.uint8())),
    })
    out = pixel_features(batch)
    assert abs(out.column("mean_pixel")[0].as_py() - 4.5) < 1e-12
    assert out.column("mean_pixel")[1].as_py() == 0.0


def test_audio_features_trailing_empty_clip(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from apacheorcdotnet_ray.pipelines.multimodal import audio_features

    ds = rd.from_arrow(pa.table({
        "media_id": pa.array([1, 2], type=pa.int64()),
        "sample_rate": pa.array([8000, 8000], type=pa.int32()),
        "samples": pa.array([[100, -100, 100, -100], []],
                            type=pa.list_(pa.int16())),
    }))
    df = audio_features(ds).to_pandas().sort_values("media_id")
    assert abs(df["rms"].iloc[0] - 100.0) < 1e-9
    assert df["zcr"].iloc[0] == 3 / 4
    assert df["rms"].iloc[1] == 0.0 and df["zcr"].iloc[1] == 0.0
