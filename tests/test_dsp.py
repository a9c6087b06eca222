import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpcse import dsp


def rand_wave(rng, n):
    return dsp.Waveform(rng.uniform(-0.9, 0.9, n))


def stft_by_frames(w):
    """Reference STFT: one windowed rfft per frame."""
    x = w.samples
    window = np.hamming(dsp.WINDOW_LEN)
    frames = np.empty((dsp.frame_count(len(x)), dsp.N_BINS), dtype=np.complex128)
    for f in range(len(frames)):
        seg = x[f * dsp.HOP : f * dsp.HOP + dsp.WINDOW_LEN]
        frames[f] = np.fft.rfft(seg * window, n=dsp.WINDOW_LEN)
    return frames


def istft_by_frames(s):
    """Reference iSTFT: one irfft and one overlap-add per frame."""
    window = np.hamming(dsp.WINDOW_LEN)
    n_out = (s.num_frames - 1) * dsp.HOP + dsp.WINDOW_LEN
    acc = np.zeros(n_out)
    wsq = np.zeros(n_out)
    for f in range(s.num_frames):
        seg = np.fft.irfft(s.frames[f], n=dsp.WINDOW_LEN)
        sl = slice(f * dsp.HOP, f * dsp.HOP + dsp.WINDOW_LEN)
        acc[sl] += seg * window
        wsq[sl] += window * window
    return acc / np.maximum(wsq, 1e-12)


class TestStft:
    def test_zero_signal_single_frame(self):
        s = dsp.stft(dsp.Waveform(np.zeros(512)))
        assert s.num_frames == 1
        assert np.all(s.frames == 0)

    def test_frame_count_16000(self):
        s = dsp.stft(dsp.Waveform(np.zeros(16000)))
        assert s.num_frames == 1 + (16000 - 512) // 256 == 61

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="signal too short"):
            dsp.stft(dsp.Waveform(np.zeros(511)))

    @given(n=st.integers(min_value=512, max_value=50000))
    @settings(max_examples=50, deadline=None)
    def test_framing_formula(self, n):
        assert dsp.frame_count(n) == 1 + (n - 512) // 256

    @given(n=st.integers(min_value=512, max_value=50000), seed=st.integers(0, 2**32 - 1))
    @example(n=512, seed=0)  # one frame
    @example(n=767, seed=1)  # one frame, 255 samples left over
    @example(n=16001, seed=2)  # not a multiple of HOP
    @settings(max_examples=50, deadline=None)
    def test_equals_per_frame_loop_bit_for_bit(self, n, seed):
        w = rand_wave(np.random.default_rng(seed), n)
        assert np.array_equal(dsp.stft(w).frames, stft_by_frames(w))

    def test_sine_peak_bin_matches_direct_dft(self):
        # 1 kHz at 16 kHz lands in bin round(1000 * 512 / 16000) = 32.
        t = np.arange(2048) / 16000.0
        w = dsp.Waveform(0.5 * np.sin(2 * np.pi * 1000.0 * t))
        s = dsp.stft(w)
        # oracle: naive DFT of the first windowed frame
        seg = w.samples[:512] * np.hamming(512)
        n = np.arange(512)
        direct = np.array([np.sum(seg * np.exp(-2j * np.pi * k * n / 512)) for k in range(257)])
        assert np.allclose(s.frames[0], direct, atol=1e-9)
        assert np.argmax(np.abs(s.frames[0])) == 32


class TestIstft:
    def test_roundtrip_white_noise(self):
        rng = np.random.default_rng(0)
        w = rand_wave(rng, 8192)
        rec = dsp.istft(dsp.stft(w))
        n = min(len(w), len(rec))
        core = slice(256, n - 256)
        err = rec.samples[core] - w.samples[core]
        rel_rms = np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(w.samples[core] ** 2))
        assert rel_rms < 1e-3
        snr = 10 * np.log10(np.mean(w.samples[core] ** 2) / np.mean(err**2))
        assert snr > 60.0

    @pytest.mark.parametrize("n", [512, 767, 4096, 16001, 48000])
    def test_equals_per_frame_loop_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        noisy = dsp.stft(rand_wave(rng, n))
        changed = dsp.Spectrogram(dsp.log1p_compress(dsp.magnitude(noisy)).frames * 0.7, kind="log1p")
        modified = dsp.combine_with_phase(dsp.expm1_decompress(changed), noisy)
        for s in (noisy, modified):
            assert np.array_equal(dsp.istft(s).samples, istft_by_frames(s))

    @pytest.mark.parametrize("t", [1, 2, 5, 62])
    def test_output_length(self, t):
        s = dsp.Spectrogram(np.ones((t, 257), dtype=complex), kind="complex")
        assert len(dsp.istft(s)) == (t - 1) * dsp.HOP + dsp.WINDOW_LEN

    def test_zero_spectrogram(self):
        s = dsp.Spectrogram(np.zeros((5, 257), dtype=complex), kind="complex")
        assert np.all(dsp.istft(s).samples == 0)

    def test_single_frame_hand_overlap_add(self):
        rng = np.random.default_rng(1)
        seg = rng.uniform(-1, 1, 512)
        win = np.hamming(512)
        frame = np.fft.rfft(seg * win, n=512)
        s = dsp.Spectrogram(frame[None, :], kind="complex")
        rec = dsp.istft(s)
        # one frame: acc = (seg * win) * win, wsq = win**2, so rec == seg
        expected = (seg * win) * win / np.maximum(win * win, 1e-12)
        assert np.allclose(rec.samples, expected, atol=1e-12)
        assert np.allclose(rec.samples, seg, atol=1e-9)

    def test_rejects_magnitude_input(self):
        s = dsp.Spectrogram(np.ones((2, 257)), kind="magnitude")
        with pytest.raises(ValueError, match="complex"):
            dsp.istft(s)


class TestLog1p:
    def test_zero_and_analytic_point(self):
        m = dsp.Spectrogram(np.full((1, 257), np.e - 1), kind="magnitude")
        c = dsp.log1p_compress(m)
        assert np.allclose(c.frames, 1.0)
        z = dsp.log1p_compress(dsp.Spectrogram(np.zeros((1, 257)), kind="magnitude"))
        assert np.all(z.frames == 0)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        m = dsp.Spectrogram(rng.uniform(0, 50, (7, 257)), kind="magnitude")
        back = dsp.expm1_decompress(dsp.log1p_compress(m))
        assert np.max(np.abs(back.frames - m.frames)) < 1e-12

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            dsp.Spectrogram(-np.ones((1, 257)), kind="magnitude")


class TestMelFilterbank:
    def test_zero_spectrogram_all_floor(self):
        fb = dsp.mel_filterbank(dsp.Spectrogram(np.zeros((3, 257)), kind="magnitude"))
        assert np.allclose(fb.frames, np.log(1e-10))

    def test_filter_peaks_strictly_increasing(self):
        mat = dsp.mel_matrix()
        peaks = [np.argmax(row) for row in mat]
        assert all(b > a for a, b in zip(peaks, peaks[1:]))

    def test_single_bin_hits_at_most_two_adjacent_filters(self):
        mat = dsp.mel_matrix()
        for k in range(257):
            hit = np.nonzero(mat[:, k] > 0)[0]
            assert len(hit) <= 2
            if len(hit) == 2:
                assert hit[1] == hit[0] + 1

    def test_matrix_nonnegative_and_covering(self):
        mat = dsp.mel_matrix()
        assert np.all(mat >= 0)
        centers = [np.argmax(row) for row in mat]
        cover = mat.sum(axis=0)
        inner = np.arange(centers[0], centers[-1] + 1)
        assert np.all(cover[inner] > 0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        mag = rng.uniform(0, 2, (4, 257))
        fb = dsp.mel_filterbank(dsp.Spectrogram(mag, kind="magnitude"))
        mat = dsp.mel_matrix()
        for t in range(4):
            for i in range(26):
                e = sum(mag[t, k] ** 2 * mat[i, k] for k in range(257))
                assert abs(fb.frames[t, i] - np.log(e + 1e-10)) < 1e-9

    def test_equals_fresh_mel_matrix_bit_for_bit(self):
        mag = np.random.default_rng(4).uniform(0, 2, (9, 257))
        fb = dsp.mel_filterbank(dsp.Spectrogram(mag, kind="magnitude"))
        assert np.array_equal(fb.frames, np.log((mag**2) @ dsp.mel_matrix().T + dsp.FBANK_FLOOR))
        mat = dsp.mel_matrix()
        mat[:] = 0.0  # callers get their own copy; the cached matrix is untouched
        assert np.array_equal(dsp.mel_filterbank(dsp.Spectrogram(mag, kind="magnitude")).frames, fb.frames)
        assert dsp.mel_matrix() is not dsp.mel_matrix()


class TestNormalize:
    def test_basic(self):
        out = dsp.normalize(dsp.Waveform(np.array([0.5, -0.25])))
        assert np.allclose(out.samples, [1.0, -0.5])

    def test_silent_unchanged(self):
        out = dsp.normalize(dsp.Waveform(np.zeros(10)))
        assert np.all(out.samples == 0)

    def test_idempotent(self):
        w = dsp.Waveform(np.array([1.0, -0.5, 0.25]))
        out = dsp.normalize(dsp.normalize(w))
        assert np.allclose(out.samples, w.samples)


class TestWavIo:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        w = rand_wave(rng, 1000)
        p = tmp_path / "x.wav"
        dsp.write_wav(p, w)
        back = dsp.read_wav(p)
        assert len(back) == 1000
        # one rounding step plus the 32767/32768 scale mismatch
        assert np.max(np.abs(back.samples - w.samples)) < 1.5 / 32768

    def test_rejects_wrong_rate(self, tmp_path):
        import wave

        p = tmp_path / "bad.wav"
        with wave.open(str(p), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(8000)
            f.writeframes(b"\x00\x00" * 100)
        with pytest.raises(ValueError, match="16000"):
            dsp.read_wav(p)

    def test_rejects_stereo(self, tmp_path):
        import wave

        p = tmp_path / "st.wav"
        with wave.open(str(p), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(16000)
            f.writeframes(b"\x00\x00\x00\x00" * 100)
        with pytest.raises(ValueError, match="mono"):
            dsp.read_wav(p)

    @pytest.mark.parametrize(
        "content, problem",
        [(b"RIFF garbage", "not a WAVE file"), (b"", "ends inside its header")],
        ids=["garbage", "empty"],
    )
    def test_malformed_file_named(self, tmp_path, content, problem):
        p = tmp_path / "bad.wav"
        p.write_bytes(content)
        with pytest.raises(ValueError, match=rf"bad\.wav: not a WAV file: .*{problem}"):
            dsp.read_wav(p)

    @pytest.mark.parametrize("cut", [100, 101])
    def test_file_cut_inside_its_data_named(self, tmp_path, cut):
        p = tmp_path / "cut.wav"
        dsp.write_wav(p, rand_wave(np.random.default_rng(6), 1000))
        p.write_bytes(p.read_bytes()[:-cut])
        problem = rf"cut\.wav: truncated: its header promises 2000 data bytes, the file holds {2000 - cut}$"
        with pytest.raises(ValueError, match=problem):
            dsp.read_wav(p)


def test_phase_combination_recovers_complex():
    rng = np.random.default_rng(5)
    w = rand_wave(rng, 4096)
    c = dsp.stft(w)
    m = dsp.magnitude(c)
    back = dsp.combine_with_phase(m, c)
    assert np.allclose(back.frames, c.frames, atol=1e-12)
