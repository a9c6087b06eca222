import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcse import bpc, corpus, dsp


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def render_image_rir(spec: corpus.RoomSpec, beta: float) -> dsp.Waveform:
    """Reference image-source renderer: rebuilds the whole geometry for one
    beta and accumulates the images with ``np.add.at``."""
    lx, ly, lz = spec.room_dims_m
    max_dist = spec.rir_len_samples / dsp.SAMPLE_RATE * corpus.SPEED_OF_SOUND

    def axis_images(length, src, rcv):
        offsets, refl = [], []
        n_max = math.ceil((max_dist + length) / (2.0 * length))
        for n in range(-n_max, n_max + 1):
            for p in (0, 1):
                offsets.append((1 - 2 * p) * src + 2 * n * length - rcv)
                refl.append(abs(n - p) + abs(n))
        return np.array(offsets), np.array(refl)

    dx, rx = axis_images(lx, spec.source_m[0], spec.receiver_m[0])
    dy, ry = axis_images(ly, spec.source_m[1], spec.receiver_m[1])
    dz, rz = axis_images(lz, spec.source_m[2], spec.receiver_m[2])

    dist = np.sqrt(
        dx[:, None, None] ** 2 + dy[None, :, None] ** 2 + dz[None, None, :] ** 2
    ).ravel()
    order = (rx[:, None, None] + ry[None, :, None] + rz[None, None, :]).ravel()
    delays = np.round(dist * dsp.SAMPLE_RATE / corpus.SPEED_OF_SOUND).astype(np.int64)
    keep = (delays < spec.rir_len_samples) & (dist > 1e-9)
    amps = beta ** order[keep] / (4.0 * np.pi * dist[keep])

    h = np.zeros(spec.rir_len_samples)
    np.add.at(h, delays[keep], amps)
    return dsp.Waveform(h)


def polyfit_t60(rir: dsp.Waveform, fit_db=(5.0, 20.0)) -> float:
    """Reference for ``corpus.fit_t60``: recomputes the backward integral in
    every fixed-point iteration and fits the line with ``np.polyfit``."""
    energy = rir.samples**2
    n = len(energy)
    t = np.arange(n) / dsp.SAMPLE_RATE
    tail = 0.0
    slope = None
    for _ in range(12):
        edc = np.cumsum(energy[::-1])[::-1] + tail
        db = 10.0 * np.log10(np.maximum(edc / edc[0], 1e-30))
        floor = max(-fit_db[1], db[int(0.9 * n)] + 1.0)
        mask = (db <= -fit_db[0]) & (db >= floor)
        if mask.sum() < 16:
            raise ValueError("decay range too short to fit T60")
        slope, icpt = np.polyfit(t[mask], db[mask], 1)
        tail = edc[0] * 10.0 ** ((icpt + slope * (n / dsp.SAMPLE_RATE)) / 10.0)
    return -60.0 / slope


def bisect_rir(spec: corpus.RoomSpec) -> tuple:
    """The beta bisection of ``corpus.generate_rir`` driven by the two
    references above. Returns the last rendered response and its reference
    T60 fit (inf where the decay cannot be measured)."""
    lx, ly, lz = spec.room_dims_m
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    eyring = 1.0 - math.exp(-0.161 * volume / (surface * spec.t60_s))
    beta = math.sqrt(1.0 - eyring)
    lo, hi = 0.02, 0.998
    for _ in range(21):
        rir = render_image_rir(spec, beta)
        try:
            fitted = polyfit_t60(rir)
        except ValueError:
            fitted = math.inf
        if abs(fitted - spec.t60_s) / spec.t60_s < 0.005:
            break
        if fitted > spec.t60_s:
            hi = beta
        else:
            lo = beta
        beta = 0.5 * (lo + hi)
    return rir, fitted


# a non-default room with its own placement; it misses 0.15 s on 4096 samples
SMALL_ROOM = dict(room_dims_m=(7.0, 5.0, 3.0), source_m=(1.5, 3.5, 1.2), receiver_m=(5.0, 1.0, 1.6))


class TestMixAtSnr:
    def test_equal_power_at_zero_db_gives_unit_gain(self, rng):
        clean = dsp.Waveform(rng.normal(0, 0.1, 8000))
        noise = dsp.Waveform(clean.samples[::-1].copy())
        mixed = corpus.mix_at_snr(clean, noise, 0.0)
        assert np.allclose(mixed.samples, clean.samples + noise.samples, atol=1e-12)

    def test_large_snr_approaches_clean(self, rng):
        clean = dsp.Waveform(rng.normal(0, 0.1, 4000))
        noise = dsp.Waveform(rng.normal(0, 0.1, 4000))
        mixed = corpus.mix_at_snr(clean, noise, 120.0)
        assert np.max(np.abs(mixed.samples - clean.samples)) < 1e-5

    def test_remeasured_snr_within_hundredth_db(self, rng):
        clean = dsp.Waveform(rng.normal(0, 0.2, 16000))
        noise = dsp.Waveform(rng.normal(0, 0.5, 16000))
        mixed = corpus.mix_at_snr(clean, noise, 5.0)
        assert abs(corpus.measure_snr(clean, mixed) - 5.0) < 0.01

    def test_silent_inputs_rejected(self, rng):
        live = dsp.Waveform(rng.normal(0, 0.1, 1000))
        dead = dsp.Waveform(np.zeros(1000))
        with pytest.raises(ValueError, match="zero power"):
            corpus.mix_at_snr(dead, live, 0.0)
        with pytest.raises(ValueError, match="zero power"):
            corpus.mix_at_snr(live, dead, 0.0)

    def test_empty_noise_rejected(self, rng):
        clean = dsp.Waveform(rng.normal(0, 0.1, 1000))
        with pytest.raises(ValueError, match="noise signal is empty"):
            corpus.mix_at_snr(clean, dsp.Waveform(np.zeros(0)), 0.0)

    def test_empty_clean_rejected(self, rng):
        noise = dsp.Waveform(rng.normal(0, 0.1, 1000))
        with pytest.raises(ValueError, match="clean signal is empty"):
            corpus.mix_at_snr(dsp.Waveform(np.zeros(0)), noise, 0.0)

    def test_short_noise_is_tiled(self, rng):
        clean = dsp.Waveform(rng.normal(0, 0.1, 5000))
        noise = dsp.Waveform(rng.normal(0, 0.1, 1200))
        mixed = corpus.mix_at_snr(clean, noise, 3.0)
        assert len(mixed) == 5000
        assert abs(corpus.measure_snr(clean, mixed) - 3.0) < 0.01

    def test_long_noise_cropped_with_seeded_offset(self, rng):
        clean = dsp.Waveform(rng.normal(0, 0.1, 2000))
        noise = dsp.Waveform(rng.normal(0, 0.1, 9000))
        a = corpus.mix_at_snr(clean, noise, 0.0, np.random.default_rng(7))
        b = corpus.mix_at_snr(clean, noise, 0.0, np.random.default_rng(7))
        assert np.array_equal(a.samples, b.samples)


class TestRir:
    def test_paper_geometry_direct_path_delay(self):
        rir = corpus.generate_rir(corpus.RoomSpec(t60_s=0.4))
        first = np.nonzero(rir.samples)[0][0]
        assert abs(first - round(2.0 / 343.0 * 16000)) <= 1

    def test_length_is_4096(self):
        rir = corpus.generate_rir(corpus.RoomSpec(t60_s=0.3))
        assert len(rir) == 4096
        assert np.all(np.isfinite(rir.samples))

    def test_longer_t60_decays_slower(self):
        short = corpus.generate_rir(corpus.RoomSpec(t60_s=0.3))
        long = corpus.generate_rir(corpus.RoomSpec(t60_s=0.9))
        assert corpus.fit_t60(long) > corpus.fit_t60(short)

    @pytest.mark.parametrize("t60", [0.3, 0.6, 0.9])
    def test_schroeder_fit_within_20_percent(self, t60):
        rir = corpus.generate_rir(corpus.RoomSpec(t60_s=t60))
        assert abs(corpus.fit_t60(rir) - t60) / t60 < 0.20

    def test_unreachable_t60_rejected(self):
        with pytest.raises(ValueError, match="unreachable"):
            corpus.generate_rir(corpus.RoomSpec(t60_s=0.05))

    def test_positions_validated(self):
        with pytest.raises(ValueError, match="inside"):
            corpus.RoomSpec(source_m=(9.0, 1.0, 1.0))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("rir_len_samples", 0, "rir_len_samples must be a positive int, got 0"),
            ("rir_len_samples", -5, "rir_len_samples must be a positive int, got -5"),
            ("rir_len_samples", 4096.5, "rir_len_samples must be a positive int, got 4096.5"),
            ("t60_s", math.nan, "t60_s must be positive and finite, got nan"),
            ("t60_s", math.inf, "t60_s must be positive and finite, got inf"),
            ("t60_s", 0.0, "t60_s must be positive and finite, got 0.0"),
        ],
    )
    def test_fields_validated(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            corpus.RoomSpec(**{field: value})

    @pytest.mark.parametrize(
        "room, t60",
        [({}, round(0.15 + 0.05 * i, 2)) for i in range(28)] + [(SMALL_ROOM, t) for t in (0.3, 0.6, 0.9)],
    )
    def test_equals_per_step_oracle_byte_for_byte(self, room, t60):
        spec = corpus.RoomSpec(t60_s=t60, **room)
        want, fitted = bisect_rir(spec)
        assert abs(fitted - t60) / t60 < 0.005
        assert corpus.generate_rir(spec).samples.tobytes() == want.samples.tobytes()

    @pytest.mark.parametrize("rir_len", [50, 93])  # the direct path lands on sample 93
    def test_response_ending_before_direct_path_raises(self, rir_len):
        spec = corpus.RoomSpec(rir_len_samples=rir_len)
        with pytest.raises(
            ValueError, match=rf"no image source arrives within rir_len_samples={rir_len}: .* at sample 93$"
        ):
            corpus.generate_rir(spec)

    @pytest.mark.parametrize(
        "room, t60, last",
        [({}, 2.0, "unmeasurable"), ({}, 5.0, "1.2987 s"), (SMALL_ROOM, 0.15, "0.1531 s")],
    )
    def test_missed_t60_raises(self, room, t60, last):
        spec = corpus.RoomSpec(t60_s=t60, **room)
        _, fitted = bisect_rir(spec)
        assert not abs(fitted - t60) / t60 < 0.005
        with pytest.raises(ValueError, match=rf"T60 {t60} s not reached.*rir_len_samples=4096.*{last}"):
            corpus.generate_rir(spec)


class TestFitT60:
    @given(
        t60=st.floats(0.1, 1.5),
        n=st.integers(1024, 8192),
        noise_db=st.floats(-90.0, -30.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_polyfit_oracle(self, t60, n, noise_db, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(n) / dsp.SAMPLE_RATE
        decay = rng.normal(0.0, 1.0, n) * 10.0 ** (-3.0 * t / t60)
        rir = dsp.Waveform(decay + 10.0 ** (noise_db / 20.0) * rng.normal(0.0, 1.0, n))
        try:
            want = polyfit_t60(rir)
        except ValueError:
            with pytest.raises(ValueError, match="decay range too short"):
                corpus.fit_t60(rir)
            return
        assert abs(corpus.fit_t60(rir) - want) <= 1e-12 * abs(want)

    def test_empty_response_rejected(self):
        with pytest.raises(ValueError, match="room response is empty"):
            corpus.fit_t60(dsp.Waveform(np.zeros(0)))

    def test_silent_response_rejected(self):
        with pytest.raises(ValueError, match="zero power: room response is silent"):
            corpus.fit_t60(dsp.Waveform(np.zeros(4096)))


class TestApplyRir:
    def test_unit_impulse_identity(self, rng):
        x = dsp.normalize(dsp.Waveform(rng.normal(0, 0.3, 3000)))
        kernel = np.zeros(64)
        kernel[0] = 1.0
        out = corpus.apply_rir(x, dsp.Waveform(kernel))
        assert np.allclose(out.samples, x.samples, atol=1e-10)

    def test_delayed_impulse_shifts(self, rng):
        samples = rng.normal(0, 0.3, 3000)
        samples[100] = 1.0  # pin the peak early so truncation keeps it
        x = dsp.Waveform(samples)
        kernel = np.zeros(64)
        kernel[5] = 1.0
        out = corpus.apply_rir(x, dsp.Waveform(kernel))
        assert np.allclose(out.samples[5:], x.samples[:-5] / np.max(np.abs(x.samples)), atol=1e-10)
        assert np.allclose(out.samples[:5], 0.0)

    def test_matches_naive_convolution(self, rng):
        x = dsp.Waveform(rng.normal(0, 0.3, 400))
        h = dsp.Waveform(rng.normal(0, 0.1, 50))
        out = corpus.apply_rir(x, h)
        naive = np.zeros(400 + 50 - 1)
        for i, xi in enumerate(x.samples):
            for j, hj in enumerate(h.samples):
                naive[i + j] += xi * hj
        naive = naive[:400]
        naive /= np.max(np.abs(naive))
        assert np.max(np.abs(out.samples - naive)) < 1e-9

    def test_empty_clean_rejected(self):
        with pytest.raises(ValueError, match="clean signal is empty"):
            corpus.apply_rir(dsp.Waveform(np.zeros(0)), dsp.Waveform(np.ones(4)))

    def test_empty_response_rejected(self, rng):
        x = dsp.Waveform(rng.normal(0, 0.3, 400))
        with pytest.raises(ValueError, match="room response is empty"):
            corpus.apply_rir(x, dsp.Waveform(np.zeros(0)))

    def test_silent_response_rejected(self, rng):
        x = dsp.Waveform(rng.normal(0, 0.3, 400))
        with pytest.raises(ValueError, match="zero power: room response is silent"):
            corpus.apply_rir(x, dsp.Waveform(np.zeros(64)))


class TestToySynth:
    def test_deterministic(self):
        seq = ["sil", "s", "ɑ", "m", "i", "sil"]
        w1, l1 = corpus.synth_toy_utterance(seq, seed=5)
        w2, l2 = corpus.synth_toy_utterance(seq, seed=5)
        assert np.array_equal(w1.samples, w2.samples)
        assert l1 == l2

    def test_duration_bookkeeping(self):
        seq = ["p", "ɑ", "s"]
        w, labels = corpus.synth_toy_utterance(seq, seed=1)
        # every phone lasts 80-240 ms
        assert 3 * 0.08 * 16000 <= len(w) <= 3 * 0.24 * 16000 + 3
        assert len(labels) == dsp.frame_count(len(w))

    def test_vowel_centroid_below_fricative(self):
        w, labels = corpus.synth_toy_utterance(["sil", "ɑ", "s", "sil"], seed=2)
        spec = dsp.magnitude(dsp.stft(w))
        freqs = np.arange(257) * 16000 / 512

        def centroid(phone):
            rows = [i for i, p in enumerate(labels) if p == phone]
            mag = spec.frames[rows].mean(axis=0)
            return np.sum(freqs * mag) / np.sum(mag)

        assert centroid("ɑ") < centroid("s")

    def test_unknown_phone_rejected(self):
        with pytest.raises(ValueError, match="xx"):
            corpus.synth_toy_utterance(["xx"], seed=0)

    def test_labels_cover_only_sequence_phones(self):
        seq = ["sil", "t", "u", "n", "sil"]
        _, labels = corpus.synth_toy_utterance(seq, seed=3)
        assert set(labels) <= set(seq)


class TestManifest:
    def scheme(self):
        return bpc.manner_scheme(bpc.english_inventory())

    def test_empty_corpus_gives_empty_manifest(self, tmp_path):
        (tmp_path / "clean").mkdir()
        m = corpus.build_manifest(tmp_path, self.scheme())
        assert m.entries == []
        assert corpus.Manifest.from_json(m.to_json()).entries == []

    def test_three_pairs_sorted(self, tmp_path):
        corpus.synth_corpus(tmp_path, n_utts=3, seed=0)
        corpus.mix_corpus(tmp_path, [0.0, 5.0], seed=1)
        m = corpus.build_manifest(tmp_path, self.scheme())
        assert [e.utt_id for e in m.entries] == ["utt0000", "utt0001", "utt0002"]
        for e in m.entries:
            assert e.snr_db in (0.0, 5.0)
            assert e.bpc_transcript == bpc.transcript_to_bpc(e.phone_transcript, self.scheme())
            assert (tmp_path / e.clean_path).exists()
            assert (tmp_path / e.distorted_path).exists()

    def test_missing_pair_member_names_utt(self, tmp_path):
        corpus.synth_corpus(tmp_path, n_utts=2, seed=0)
        corpus.mix_corpus(tmp_path, [0.0], seed=1)
        (tmp_path / "distorted" / "utt0001.wav").unlink()
        with pytest.raises(ValueError, match="utt0001"):
            corpus.build_manifest(tmp_path, self.scheme())

    def test_clean_shorter_than_one_window_names_utt_and_path(self, tmp_path):
        corpus.synth_corpus(tmp_path, n_utts=2, seed=0)
        corpus.mix_corpus(tmp_path, [0.0], seed=1)
        dsp.write_wav(tmp_path / "clean" / "utt0001.wav", dsp.Waveform(np.zeros(300)))
        path = str(tmp_path / "clean" / "utt0001.wav")
        with pytest.raises(ValueError, match="utt0001") as err:
            corpus.build_manifest(tmp_path, self.scheme())
        assert path in str(err.value)
        assert "signal too short: 300 samples" in str(err.value)

    def test_out_of_inventory_phone_named(self, tmp_path):
        corpus.synth_corpus(tmp_path, n_utts=1, seed=0)
        corpus.mix_corpus(tmp_path, [0.0], seed=1)
        (tmp_path / "transcripts" / "utt0000.txt").write_text("sil qq sil", "utf-8")
        with pytest.raises(ValueError, match="qq"):
            corpus.build_manifest(tmp_path, self.scheme())

    def test_json_roundtrip(self, tmp_path):
        corpus.synth_corpus(tmp_path, n_utts=2, seed=0)
        corpus.mix_corpus(tmp_path, [-5.0, 0.0, 5.0], seed=1)
        m = corpus.build_manifest(tmp_path, self.scheme(), seed=9)
        back = corpus.Manifest.from_json(m.to_json(), base_dir=tmp_path)
        assert back.to_json() == m.to_json()
        assert back.scheme_name == "manner"
        assert back.seed == 9

    @pytest.mark.parametrize("field", ["utt_id", "clean_path", "snr_db", "num_frames"])
    def test_entry_missing_field_named(self, field):
        e = corpus.ManifestEntry("u7", "c.wav", "d.wav", ["s"], ["F"], 0.0, 10)
        doc = json.loads(corpus.Manifest([e]).to_json())
        del doc["entries"][0][field]
        with pytest.raises(ValueError, match=f"entry 0 .*'{field}'"):
            corpus.Manifest.from_json(json.dumps(doc))

    def test_entries_must_be_a_list_of_objects(self):
        e = corpus.ManifestEntry("u7", "c.wav", "d.wav", ["s"], ["F"], 0.0, 10)
        doc = json.loads(corpus.Manifest([e]).to_json())
        for entries, msg in ((None, "'entries' list"), ([["u7"]], "entry 0 is not a JSON object")):
            doc["entries"] = entries
            with pytest.raises(ValueError, match=msg):
                corpus.Manifest.from_json(json.dumps(doc))
        with pytest.raises(ValueError, match="not a JSON object"):
            corpus.Manifest.from_json("[]")

    def test_duplicate_ids_rejected(self):
        e = corpus.ManifestEntry("u", "c.wav", "d.wav", [], [], 0.0, 10)
        with pytest.raises(ValueError, match="duplicate"):
            corpus.Manifest([e, e])


class TestPipeline:
    def test_mix_writes_normalized_distorted_files(self, tmp_path):
        corpus.synth_corpus(tmp_path, n_utts=2, seed=3)
        meta = corpus.mix_corpus(tmp_path, [-5.0], seed=4)
        assert set(meta.values()) == {-5.0}
        for utt in meta:
            w = dsp.read_wav(tmp_path / "distorted" / f"{utt}.wav")
            assert np.max(np.abs(w.samples)) <= 1.0

    def test_reverb_after_mix(self, tmp_path):
        corpus.synth_corpus(tmp_path, n_utts=1, seed=5)
        corpus.mix_corpus(tmp_path, [10.0], seed=6)
        before = dsp.read_wav(tmp_path / "distorted" / "utt0000.wav")
        meta = corpus.reverb_corpus(tmp_path, [0.3], seed=7)
        after = dsp.read_wav(tmp_path / "distorted" / "utt0000.wav")
        assert meta["utt0000"] == 0.3
        assert not np.array_equal(before.samples, after.samples)

    def test_noise_dir_source(self, tmp_path, rng):
        corpus.synth_corpus(tmp_path / "c", n_utts=1, seed=8)
        noise_dir = tmp_path / "noise"
        dsp.write_wav(noise_dir / "n0.wav", corpus.make_noise("pink", 20000, rng))
        meta = corpus.mix_corpus(tmp_path / "c", [0.0], seed=9, noise_dir=noise_dir)
        assert (tmp_path / "c" / "distorted" / "utt0000.wav").exists()
        assert meta["utt0000"] == 0.0

    def test_empty_noise_file_rejected(self, tmp_path):
        corpus.synth_corpus(tmp_path / "c", n_utts=1, seed=8)
        dsp.write_wav(tmp_path / "noise" / "n0.wav", dsp.Waveform(np.zeros(0)))
        with pytest.raises(ValueError, match="noise signal is empty"):
            corpus.mix_corpus(tmp_path / "c", [0.0], seed=9, noise_dir=tmp_path / "noise")

    def test_empty_snr_list_named(self, tmp_path):
        corpus.synth_corpus(tmp_path, n_utts=1, seed=3)
        with pytest.raises(ValueError, match="snr_list is empty"):
            corpus.mix_corpus(tmp_path, [], seed=4)

    def test_empty_t60_list_named(self, tmp_path):
        corpus.synth_corpus(tmp_path, n_utts=1, seed=3)
        with pytest.raises(ValueError, match="t60_list is empty"):
            corpus.reverb_corpus(tmp_path, [], seed=4)

    def test_make_noise_kinds(self, rng):
        for kind in ("white", "pink", "tonal"):
            w = corpus.make_noise(kind, 4000, rng)
            assert len(w) == 4000
            assert np.max(np.abs(w.samples)) <= 1.0
        with pytest.raises(ValueError, match="unknown noise kind"):
            corpus.make_noise("brown", 100, rng)
