import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.fft
from scipy.signal import fftconvolve

from bpcse import bpc, corpus, dsp


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def render_image_rir(beta, room_dims_m, source_m, receiver_m, rir_len_samples) -> dsp.Waveform:
    """Reference image-source renderer: rebuilds the whole geometry for one
    beta and accumulates the images with ``np.add.at``."""
    lx, ly, lz = room_dims_m
    max_dist = rir_len_samples / dsp.SAMPLE_RATE * corpus.SPEED_OF_SOUND

    def axis_images(length, src, rcv):
        offsets, refl = [], []
        n_max = math.ceil((max_dist + length) / (2.0 * length))
        for n in range(-n_max, n_max + 1):
            for p in (0, 1):
                offsets.append((1 - 2 * p) * src + 2 * n * length - rcv)
                refl.append(abs(n - p) + abs(n))
        return np.array(offsets), np.array(refl)

    dx, rx = axis_images(lx, source_m[0], receiver_m[0])
    dy, ry = axis_images(ly, source_m[1], receiver_m[1])
    dz, rz = axis_images(lz, source_m[2], receiver_m[2])

    dist = np.sqrt(
        dx[:, None, None] ** 2 + dy[None, :, None] ** 2 + dz[None, None, :] ** 2
    ).ravel()
    order = (rx[:, None, None] + ry[None, :, None] + rz[None, None, :]).ravel()
    delays = np.round(dist * dsp.SAMPLE_RATE / corpus.SPEED_OF_SOUND).astype(np.int64)
    keep = (delays < rir_len_samples) & (dist > 1e-9)
    amps = beta ** order[keep] / (4.0 * np.pi * dist[keep])

    h = np.zeros(rir_len_samples)
    np.add.at(h, delays[keep], amps)
    return dsp.Waveform(h)


def polyfit_t60(rir: dsp.Waveform) -> float:
    """Reference for ``corpus.fit_t60``: recomputes the backward integral in
    every fixed-point iteration and fits the line with ``np.polyfit``, from -5 to -20 dB."""
    energy = rir.samples**2
    n = len(energy)
    t = np.arange(n) / dsp.SAMPLE_RATE
    tail = 0.0
    slope = None
    for _ in range(12):
        edc = np.cumsum(energy[::-1])[::-1] + tail
        db = 10.0 * np.log10(np.maximum(edc / edc[0], 1e-30))
        floor = max(-20.0, db[int(0.9 * n)] + 1.0)
        mask = (db <= -5.0) & (db >= floor)
        if mask.sum() < 16:
            raise ValueError("decay range too short to fit T60")
        slope, icpt = np.polyfit(t[mask], db[mask], 1)
        tail = edc[0] * 10.0 ** ((icpt + slope * (n / dsp.SAMPLE_RATE)) / 10.0)
    return -60.0 / slope


def bisect_rir(t60_s, **room) -> tuple:
    """The beta bisection of ``corpus.generate_rir`` driven by the two
    references above; ``room`` holds the geometry keywords of
    ``render_image_rir``. Returns the last rendered response and its
    reference T60 fit (inf where the decay cannot be measured)."""
    lx, ly, lz = room["room_dims_m"]
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    eyring = 1.0 - math.exp(-0.161 * volume / (surface * t60_s))
    beta = math.sqrt(1.0 - eyring)
    lo, hi = 0.02, 0.998
    for _ in range(21):
        rir = render_image_rir(beta, **room)
        try:
            fitted = polyfit_t60(rir)
        except ValueError:
            fitted = math.inf
        if abs(fitted - t60_s) / t60_s < 0.005:
            break
        if fitted > t60_s:
            hi = beta
        else:
            lo = beta
        beta = 0.5 * (lo + hi)
    return rir, fitted


def manifest_json_oracle(m: corpus.Manifest) -> str:
    """``Manifest.to_json`` with the seven ``ManifestEntry`` fields typed out one by one."""
    doc = {
        "schema": corpus.MANIFEST_SCHEMA,
        "scheme": m.scheme_name,
        "seed": m.seed,
        "entries": [
            {
                "utt_id": e.utt_id,
                "clean_path": e.clean_path,
                "distorted_path": e.distorted_path,
                "phone_transcript": e.phone_transcript,
                "bpc_transcript": e.bpc_transcript,
                "snr_db": e.snr_db,
                "num_frames": e.num_frames,
            }
            for e in m.entries
        ],
    }
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=1)


def harmonic_tone_oracle(n, f0, envelope, rng):
    """Reference for ``corpus._harmonic_tone``: one ``np.sin`` over every sample per kept harmonic."""
    t = np.arange(n) / dsp.SAMPLE_RATE
    x = np.zeros(n)
    k = 1
    while k * f0 < dsp.SAMPLE_RATE / 2 - 500:
        a = envelope(k * f0)
        if a > 1e-4:
            x += a * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
        k += 1
    return x


def make_noise_oracle(kind, n, rng):
    """Reference for ``corpus.make_noise``: tonal noise from ``np.sin`` over every sample."""
    if kind == "white":
        x = rng.normal(0.0, 1.0, n)
    elif kind == "pink":
        spec = np.fft.rfft(rng.normal(0.0, 1.0, n))
        freqs = np.fft.rfftfreq(n, 1.0 / dsp.SAMPLE_RATE)
        spec /= np.sqrt(np.maximum(freqs, 1.0))
        x = np.fft.irfft(spec, n=n)
    else:
        t = np.arange(n) / dsp.SAMPLE_RATE
        x = np.zeros(n)
        for _ in range(6):
            f = rng.uniform(200.0, 3500.0)
            am = 0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(0.3, 2.0) * t + rng.uniform(0, 2 * np.pi))
            x += am * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        x += 0.05 * rng.normal(0.0, 1.0, n)
    return dsp.normalize(dsp.Waveform(x))


def frame_labels_oracle(spans, n_samples):
    """Reference for ``corpus._frame_labels``: every frame center against every (lo, hi, phone) span."""
    labels = []
    if n_samples >= dsp.WINDOW_LEN:
        for f in range(dsp.frame_count(n_samples)):
            center = f * dsp.HOP + dsp.WINDOW_LEN // 2
            for lo, hi, p in spans:
                if lo <= center < hi:
                    labels.append(p)
                    break
            else:
                labels.append(spans[-1][2])
    return labels


def tone_envelope(phone):
    """The envelope ``synth_toy_phone`` hands ``_harmonic_tone`` for a vowel or nasal."""
    seen = []
    with mock.patch.object(corpus, "_harmonic_tone", lambda n, f0, envelope, rng: seen.append(envelope) or np.ones(n)):
        corpus.synth_toy_phone(phone, 4, 120.0, None)
    return seen[0]


def assert_close_to_peak(got, want, rel):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


def edge_ramp_oracle(seg, ramp):
    """``corpus._edge_ramp`` with its raised-sine window rebuilt on every call."""
    n = len(seg)
    r = min(ramp, n // 2)
    if r > 0:
        win = np.sin(np.linspace(0, np.pi / 2, r)) ** 2
        seg[:r] *= win
        seg[-r:] *= win[::-1]
    return seg


PRIMES = (2, 3, 5, 7, 13, 101, 1009, 4093, 4099, 10007, 16411, 39989)

# the render_image_rir geometry of the one room corpus simulates
ROOM = dict(
    room_dims_m=corpus.ROOM_DIMS_M,
    source_m=corpus.SOURCE_M,
    receiver_m=corpus.RECEIVER_M,
    rir_len_samples=corpus.RIR_LEN_SAMPLES,
)


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
        noise_power = np.mean((mixed.samples - clean.samples) ** 2)
        assert abs(10.0 * np.log10(np.mean(clean.samples**2) / noise_power) - 5.0) < 0.01

    def test_silent_inputs_rejected(self, rng):
        live = dsp.Waveform(rng.normal(0, 0.1, 1000))
        dead = dsp.Waveform(np.zeros(1000))
        with pytest.raises(ValueError, match="zero power"):
            corpus.mix_at_snr(dead, live, 0.0)
        with pytest.raises(ValueError, match="zero power"):
            corpus.mix_at_snr(live, dead, 0.0)

    def test_empty_noise_rejected(self, rng):
        clean = dsp.Waveform(rng.normal(0, 0.1, 1000))
        with pytest.raises(ValueError, match="noise has 0 samples, the clean signal 1000"):
            corpus.mix_at_snr(clean, dsp.Waveform(np.zeros(0)), 0.0)

    @pytest.mark.parametrize("n_noise", [999, 1001, 5000])
    def test_noise_of_other_length_rejected_naming_both(self, rng, n_noise):
        clean = dsp.Waveform(rng.normal(0, 0.1, 1000))
        noise = dsp.Waveform(rng.normal(0, 0.1, n_noise))
        with pytest.raises(ValueError, match=f"noise has {n_noise} samples, the clean signal 1000; they must match"):
            corpus.mix_at_snr(clean, noise, 0.0)

    def test_empty_clean_rejected(self, rng):
        noise = dsp.Waveform(rng.normal(0, 0.1, 1000))
        with pytest.raises(ValueError, match="clean signal is empty"):
            corpus.mix_at_snr(dsp.Waveform(np.zeros(0)), noise, 0.0)

    @pytest.mark.parametrize("snr", [math.inf, -math.inf, math.nan])
    def test_non_finite_snr_rejected_by_value(self, rng, snr):
        clean = dsp.Waveform(rng.normal(0, 0.1, 1000))
        noise = dsp.Waveform(rng.normal(0, 0.1, 1000))
        with pytest.raises(ValueError, match=f"snr_db must be finite, got {snr!r}"):
            corpus.mix_at_snr(clean, noise, snr)

    @pytest.mark.parametrize("snr", [3100, -3300, 400])
    def test_absurd_finite_snr_rejected_by_value(self, rng, snr):
        clean = dsp.Waveform(rng.normal(0, 1, 1000))
        noise = dsp.Waveform(rng.normal(0, 1, 1000))
        with pytest.raises(ValueError, match=f"^snr_db {snr} "):
            corpus.mix_at_snr(clean, noise, snr)


class TestRir:
    def test_paper_geometry_direct_path_delay(self):
        rir = corpus.generate_rir(0.4)
        first = np.nonzero(rir.samples)[0][0]
        assert abs(first - round(2.0 / 343.0 * 16000)) <= 1

    def test_length_is_4096(self):
        rir = corpus.generate_rir(0.3)
        assert len(rir) == 4096
        assert np.all(np.isfinite(rir.samples))

    def test_longer_t60_decays_slower(self):
        short = corpus.generate_rir(0.3)
        long = corpus.generate_rir(0.9)
        assert corpus.fit_t60(long) > corpus.fit_t60(short)

    @pytest.mark.parametrize("t60", [0.3, 0.6, 0.9])
    def test_schroeder_fit_within_20_percent(self, t60):
        rir = corpus.generate_rir(t60)
        assert abs(corpus.fit_t60(rir) - t60) / t60 < 0.20

    def test_unreachable_t60_rejected(self):
        with pytest.raises(ValueError, match="unreachable"):
            corpus.generate_rir(0.05)

    @pytest.mark.parametrize("t60", [math.nan, math.inf, 0.0, -0.4])
    def test_t60_rejected_by_value(self, t60):
        with pytest.raises(ValueError, match=f"t60_s must be positive and finite, got {t60}$"):
            corpus.generate_rir(t60)

    @pytest.mark.parametrize("room, t60", [(ROOM, round(0.15 + 0.05 * i, 2)) for i in range(28)])
    def test_equals_per_step_oracle_byte_for_byte(self, room, t60):
        want, fitted = bisect_rir(t60, **room)
        assert abs(fitted - t60) / t60 < 0.005
        assert corpus.generate_rir(t60).samples.tobytes() == want.samples.tobytes()

    @pytest.mark.parametrize("room, t60, last", [(ROOM, 2.0, "unmeasurable"), (ROOM, 5.0, "1.2987 s")])
    def test_missed_t60_raises(self, room, t60, last):
        _, fitted = bisect_rir(t60, **room)
        assert not abs(fitted - t60) / t60 < 0.005
        with pytest.raises(ValueError, match=rf"T60 {t60} s not reached.* 4096-sample response.*{last}"):
            corpus.generate_rir(t60)

    def test_image_sources_built_once_and_read_only(self):
        corpus._image_sources.cache_clear()
        corpus.generate_rir(0.3)
        corpus.generate_rir(0.5)
        assert corpus._image_sources.cache_info().misses == 1
        for a in corpus._image_sources():
            assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            corpus._image_sources()[0][0] = 0


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

    @given(
        n=st.one_of(st.sampled_from(PRIMES), st.integers(1, 20000)),
        m=st.integers(1, 4096),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=39989, m=4096, seed=0)
    @example(n=2, m=1, seed=0)
    @example(n=4099, m=1, seed=1)
    @example(n=1, m=4096, seed=0)
    @settings(max_examples=80, deadline=None)
    def test_equals_fftconvolve_bit_for_bit(self, n, m, seed):
        rng = np.random.default_rng(seed)
        w, rir = rng.normal(0, 0.3, n), rng.normal(0, 0.1, m)
        out = corpus.apply_rir(dsp.Waveform(w), dsp.Waveform(rir))
        want = dsp.normalize(dsp.Waveform(fftconvolve(w, rir)[:n]))
        assert np.array_equal(out.samples, want.samples)

    def test_fast_len_is_scipys_for_every_length_to_2_17(self):
        got = [corpus._next_fast_len(n) for n in range(1, 2**17 + 1)]
        want = [scipy.fft.next_fast_len(n, real=True) for n in range(1, 2**17 + 1)]
        assert got == want

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


class TestEdgeRamp:
    @given(n=st.integers(0, 400), ramp=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_uncached_oracle_bit_for_bit(self, n, ramp, seed):
        seg = np.random.default_rng(seed).normal(0, 1, n)
        got = corpus._edge_ramp(seg.copy(), ramp)
        got_again = corpus._edge_ramp(seg.copy(), ramp)  # from the cached window
        want = edge_ramp_oracle(seg.copy(), ramp)
        assert np.array_equal(got, want)
        assert np.array_equal(got_again, want)

    def test_window_is_read_only(self):
        win = corpus._ramp_window(80)
        assert not win.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            win[0] = 1.0

    def test_corpus_builds_one_window_per_ramp_length(self, tmp_path):
        corpus._ramp_window.cache_clear()
        corpus.synth_corpus(tmp_path, n_utts=4, seed=12)
        info = corpus._ramp_window.cache_info()
        assert info.misses == 2  # the 4 ms stop-burst ramp and the 5 ms phone ramp
        assert info.hits > 20


class TestSinusoids:
    @given(
        phone=st.sampled_from([*corpus.TOY_VOWELS, *corpus.TOY_NASALS]),
        f0=st.floats(110.0, 145.0),
        n=st.integers(0, 4000),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_harmonic_tone_equals_sin_oracle(self, phone, f0, n, seed):
        envelope = tone_envelope(phone)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = corpus._harmonic_tone(n, f0, envelope, rng)
        want = harmonic_tone_oracle(n, f0, envelope, oracle_rng)
        assert_close_to_peak(got, want, 1e-10)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @given(n=st.integers(0, 20000), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_tonal_noise_equals_sin_oracle(self, n, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = corpus.make_noise("tonal", n, rng)
        want = make_noise_oracle("tonal", n, oracle_rng)
        assert_close_to_peak(got.samples, want.samples, 1e-10)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 15, 16, 17, 1000])
    def test_sinusoid_equals_exp_per_sample(self, n):
        w, phase = 2 * np.pi * 3456.7 / dsp.SAMPLE_RATE, 1.234
        got = corpus._sinusoid(n, w, phase)
        assert got.shape == (n,)
        assert np.max(np.abs(got - np.exp(1j * (w * np.arange(n) + phase))), initial=0.0) < 1e-12

    def test_corpus_wavs_equal_sin_oracle_byte_for_byte(self, tmp_path):
        kinds = []

        def recording_oracle(kind, n, rng):
            kinds.append(kind)
            return make_noise_oracle(kind, n, rng)

        corpus.synth_corpus(tmp_path / "new", n_utts=4, seed=12)
        corpus.mix_corpus(tmp_path / "new", [0.0, 10.0], seed=2)
        with mock.patch.object(corpus, "_harmonic_tone", harmonic_tone_oracle), \
                mock.patch.object(corpus, "make_noise", recording_oracle):
            corpus.synth_corpus(tmp_path / "oracle", n_utts=4, seed=12)
            corpus.mix_corpus(tmp_path / "oracle", [0.0, 10.0], seed=2)
        assert "tonal" in kinds
        files = sorted(f.relative_to(tmp_path / "new") for f in (tmp_path / "new").rglob("*.wav"))
        assert len(files) == 8
        for rel in files:
            assert (tmp_path / "new" / rel).read_bytes() == (tmp_path / "oracle" / rel).read_bytes(), rel


class TestFrameLabels:
    # span lengths in whole hops put phone boundaries exactly on frame centers
    lengths = st.one_of(st.integers(0, 3000), st.integers(0, 12).map(lambda hops: hops * dsp.HOP))

    @given(spans=st.lists(st.tuples(lengths, st.sampled_from(corpus.TOY_PHONES)), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_equals_span_loop_oracle(self, spans):
        ends = np.cumsum([n for n, _ in spans]).tolist()
        phones = [p for _, p in spans]
        triples = [(hi - n, hi, p) for hi, (n, p) in zip(ends, spans)]
        assert corpus._frame_labels(ends, phones) == frame_labels_oracle(triples, ends[-1])

    def test_no_phones_no_frames(self):
        assert corpus._frame_labels([], []) == []


class TestManifest:
    def scheme(self):
        return bpc.manner_scheme(corpus.toy_inventory())

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

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("[1, 2]", r": \[1, 2\] is not a JSON object"),
            ('{"utt0000": "loud"}', r": the SNR of utterance 'utt0000' is 'loud'; it must be a finite number or null"),
            ('{"utt0000": NaN}', r": the SNR of utterance 'utt0000' is nan"),
            ('{"utt0000": 5.0', r": not UTF-8 JSON: Expecting"),
        ],
        ids=["list", "string_snr", "nan_snr", "malformed"],
    )
    def test_bad_mix_meta_names_the_file(self, tmp_path, text, problem):
        corpus.synth_corpus(tmp_path, n_utts=1, seed=0)
        corpus.mix_corpus(tmp_path, [0.0], seed=1)
        path = tmp_path / "mix_meta.json"
        path.write_text(text, "utf-8")
        with pytest.raises(ValueError, match=re.escape(str(path)) + problem):
            corpus.build_manifest(tmp_path, self.scheme())

    @pytest.mark.parametrize(
        "content, problem",
        [(b"sil x sil", "phone 'x' not in scheme 'manner'"), (b"sil \xff sil", "'utf-8' codec can't decode byte 0xff")],
        ids=["unknown_phone", "not_utf8"],
    )
    def test_bad_transcript_names_the_file_and_utt(self, tmp_path, content, problem):
        corpus.synth_corpus(tmp_path, n_utts=2, seed=0)
        corpus.mix_corpus(tmp_path, [0.0], seed=1)
        path = tmp_path / "transcripts" / "utt0001.txt"
        path.write_bytes(content)
        problem = rf"utterance 'utt0001' \({re.escape(str(path))}\): {problem}"
        with pytest.raises(ValueError, match=problem):
            corpus.build_manifest(tmp_path, self.scheme())

    @pytest.mark.parametrize(
        "field, value, must",
        [("scheme", 3, "a string"), ("scheme", None, "a string"), ("seed", "x", "an integer or null"),
         ("seed", True, "an integer or null"), ("seed", 2.0, "an integer or null")],
    )
    def test_scheme_or_seed_of_wrong_type_named(self, field, value, must):
        doc = json.loads(corpus.Manifest([], "manner", 3).to_json())
        doc[field] = value
        with pytest.raises(ValueError, match=rf"manifest field '{field}' is {re.escape(repr(value))}; it must be {must}$"):
            corpus.Manifest.from_json(json.dumps(doc))

    def test_json_roundtrip(self, tmp_path):
        corpus.synth_corpus(tmp_path, n_utts=2, seed=0)
        corpus.mix_corpus(tmp_path, [-5.0, 0.0, 5.0], seed=1)
        m = corpus.build_manifest(tmp_path, self.scheme(), seed=9)
        back = corpus.Manifest.from_json(m.to_json())
        assert back.to_json() == m.to_json()
        assert back.scheme_name == "manner"
        assert back.seed == 9

    def test_entry_fields_in_check_order(self):
        assert [f.name for f in dataclasses.fields(corpus.ManifestEntry)] == list(corpus._MANIFEST_FIELD_CHECKS)

    def test_to_json_equals_field_by_field_oracle(self, tmp_path):
        corpus.synth_corpus(tmp_path, n_utts=2, seed=0)
        corpus.mix_corpus(tmp_path, [-2.5, 5.0], seed=1)
        meta = json.loads((tmp_path / "mix_meta.json").read_text("utf-8"))
        del meta["utt0001"]
        (tmp_path / "mix_meta.json").write_text(json.dumps(meta), "utf-8")
        m = corpus.build_manifest(tmp_path, self.scheme(), seed=4)
        assert isinstance(m.entries[0].snr_db, float)
        assert m.entries[1].snr_db is None
        assert m.to_json() == manifest_json_oracle(m)

    @pytest.mark.parametrize("field", ["utt_id", "clean_path", "snr_db", "num_frames"])
    def test_entry_missing_field_named(self, field):
        e = corpus.ManifestEntry("u7", "c.wav", "d.wav", ["s"], ["F"], 0.0, 10)
        doc = json.loads(corpus.Manifest([e]).to_json())
        del doc["entries"][0][field]
        with pytest.raises(ValueError, match=f"entry 0 .*'{field}'"):
            corpus.Manifest.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value, must",
        [
            ("phone_transcript", "s ɑ", "a list of strings"),
            ("bpc_transcript", ["F", 3], "a list of strings"),
            ("num_frames", 3.7, "a non-negative integer"),
            ("num_frames", True, "a non-negative integer"),
            ("num_frames", -1, "a non-negative integer"),
            ("snr_db", "loud", "a finite number or null"),
            ("snr_db", float("nan"), "a finite number or null"),
            ("utt_id", 7, "a string"),
            ("clean_path", None, "a string"),
            ("distorted_path", ["d.wav"], "a string"),
        ],
    )
    def test_entry_field_of_wrong_type_named(self, field, value, must):
        e = corpus.ManifestEntry("u7", "c.wav", "d.wav", ["s"], ["F"], 0.0, 10)
        doc = json.loads(corpus.Manifest([e]).to_json())
        doc["entries"][0][field] = value
        with pytest.raises(ValueError, match=rf"entry 0 \(.*\) field '{field}' is .*; it must be {must}$"):
            corpus.Manifest.from_json(json.dumps(doc))

    @pytest.mark.parametrize("snr", [None, 5, -2.5])
    def test_entry_snr_may_be_null_or_any_finite_number(self, snr):
        e = corpus.ManifestEntry("u7", "c.wav", "d.wav", ["s"], ["F"], snr, 10)
        assert corpus.Manifest.from_json(corpus.Manifest([e]).to_json()).entries == [e]

    def test_entries_must_be_a_list_of_objects(self):
        e = corpus.ManifestEntry("u7", "c.wav", "d.wav", ["s"], ["F"], 0.0, 10)
        doc = json.loads(corpus.Manifest([e]).to_json())
        for entries, msg in ((None, "'entries' list"), ([["u7"]], "entry 0 is not a JSON object")):
            doc["entries"] = entries
            with pytest.raises(ValueError, match=msg):
                corpus.Manifest.from_json(json.dumps(doc))
        with pytest.raises(ValueError, match="not a JSON object"):
            corpus.Manifest.from_json("[]")

    @pytest.mark.parametrize(
        "content, problem",
        [
            (b'{"schema": "\xff"}', r"'utf-8' codec can't decode byte 0xff"),
            (b'{"schema": ', r"manifest is not JSON: Expecting value"),
            ("no_clean_path", r"manifest entry 0 \('a'\) lacks the 'clean_path' field"),
        ],
        ids=["not_utf8", "not_json", "entry_field"],
    )
    def test_load_names_the_path(self, tmp_path, content, problem):
        if content == "no_clean_path":
            doc = json.loads(corpus.Manifest([corpus.ManifestEntry("a", "c.wav", "d.wav", [], [], 0.0, 1)]).to_json())
            del doc["entries"][0]["clean_path"]
            content = json.dumps(doc).encode()
        path = tmp_path / "manifest.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": " + problem):
            corpus.Manifest.load(path)

    def test_duplicate_ids_rejected(self):
        a, b, c = (corpus.ManifestEntry(u, "c.wav", "d.wav", [], [], 0.0, 10) for u in "abc")
        with pytest.raises(ValueError, match="duplicate utt_id 'b' in manifest"):
            corpus.Manifest([a, b, c, b, a])


class TestPipeline:
    def test_synth_writes_only_clean_audio_and_transcripts(self, tmp_path):
        corpus.synth_corpus(tmp_path, n_utts=2, seed=3)
        assert sorted(str(f.relative_to(tmp_path)) for f in tmp_path.rglob("*") if f.is_file()) == [
            "clean/utt0000.wav",
            "clean/utt0001.wav",
            "transcripts/utt0000.txt",
            "transcripts/utt0001.txt",
        ]

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

    def test_unreachable_t60_leaves_the_corpus_untouched(self, tmp_path):
        corpus.synth_corpus(tmp_path, n_utts=6, seed=3)
        corpus.mix_corpus(tmp_path, [5.0], seed=4)
        wavs = sorted((tmp_path / "distorted").glob("*.wav"))
        before = [f.read_bytes() for f in wavs]
        with pytest.raises(ValueError, match="unreachable T60 0.01 s"):
            corpus.reverb_corpus(tmp_path, [0.3, 0.01], seed=1)
        assert [f.read_bytes() for f in wavs] == before

    @pytest.mark.parametrize("content, problem", [(b"RIFF garbage", "not a WAVE file"), (None, "clean signal is empty")])
    def test_malformed_source_named_and_corpus_untouched(self, tmp_path, content, problem):
        corpus.synth_corpus(tmp_path, n_utts=4, seed=3)
        corpus.mix_corpus(tmp_path, [5.0], seed=4)
        bad = tmp_path / "distorted" / "utt0002.wav"
        if content is None:
            dsp.write_wav(bad, dsp.Waveform(np.zeros(0)))
        else:
            bad.write_bytes(content)
        wavs = sorted((tmp_path / "distorted").glob("*.wav"))
        before = [f.read_bytes() for f in wavs]
        with pytest.raises(ValueError, match=rf"utt0002\.wav: .*{problem}"):
            corpus.reverb_corpus(tmp_path, [0.3], seed=1)
        assert [f.read_bytes() for f in wavs] == before

    def test_empty_snr_list_named(self, tmp_path):
        corpus.synth_corpus(tmp_path, n_utts=1, seed=3)
        with pytest.raises(ValueError, match="snr_list is empty"):
            corpus.mix_corpus(tmp_path, [], seed=4)

    @pytest.mark.parametrize("snr", [math.inf, -math.inf, math.nan])
    def test_non_finite_snr_list_entry_named(self, tmp_path, snr):
        corpus.synth_corpus(tmp_path, n_utts=1, seed=3)
        with pytest.raises(ValueError, match=rf"snr_list\[1\] is {snr!r}"):
            corpus.mix_corpus(tmp_path, [5.0, snr], seed=4)
        assert not (tmp_path / "distorted").exists()

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
