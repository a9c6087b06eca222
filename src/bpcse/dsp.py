"""Signal-processing front-end shared by the enhancement and recognizer paths.

Everything here is a pure function of its inputs. There is one audio format,
set by the module constants and by nothing else: 16 kHz mono waveforms,
512-point Hamming STFTs with a 256-sample hop (257 retained bins), log1p
magnitude compression, and a 26-filter triangular mel filterbank applied to
the power spectrum. Audio from outside enters through :func:`read_wav`, which
rejects any other channel count, sample width or rate.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SAMPLE_RATE = 16000
WINDOW_LEN = 512  # 32 ms at 16 kHz
HOP = 256  # 16 ms
N_BINS = WINDOW_LEN // 2 + 1  # 257
N_MEL_FILTERS = 26
FBANK_FLOOR = 1e-10

KINDS = ("complex", "magnitude", "log1p")


@dataclass
class Waveform:
    """Mono 16 kHz audio: float samples, nominally in [-1, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")

    def __len__(self):
        return len(self.samples)


@dataclass
class Spectrogram:
    """Time-frequency matrix of shape (T, 257).

    ``kind`` is one of "complex", "magnitude" (non-negative |X|), or "log1p"
    (log(1 + |X|), also non-negative). Every value is finite: a ValueError
    names the kind and the first frame holding a NaN or an infinity.
    """

    frames: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown spectrogram kind {self.kind!r}")
        dtype = np.complex128 if self.kind == "complex" else np.float64
        self.frames = np.asarray(self.frames, dtype=dtype)
        if self.frames.ndim != 2 or self.frames.shape[1] != N_BINS:
            raise ValueError(f"spectrogram must have shape (T, {N_BINS}), got {self.frames.shape}")
        if not np.isfinite(self.frames).all():
            frame = int(np.argmin(np.isfinite(self.frames).all(axis=1)))
            raise ValueError(f"{self.kind} spectrogram has non-finite values in frame {frame}")
        if self.kind != "complex" and np.any(self.frames < 0):
            raise ValueError(f"{self.kind} spectrogram must be non-negative")

    @property
    def num_frames(self):
        return self.frames.shape[0]


@dataclass
class FbankFeatures:
    """Log mel-filterbank energies, shape (T, 26)."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != N_MEL_FILTERS:
            raise ValueError(f"fbank features must have shape (T, {N_MEL_FILTERS}), got {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("fbank features contain non-finite values")


def frame_count(n_samples: int) -> int:
    """Number of full analysis frames for a signal of ``n_samples`` samples."""
    if n_samples < WINDOW_LEN:
        raise ValueError(f"signal too short: {n_samples} samples < one {WINDOW_LEN}-sample window")
    return 1 + (n_samples - WINDOW_LEN) // HOP


def stft(w: Waveform) -> Spectrogram:
    """Hamming-windowed 512-point STFT, keeping the 257 non-negative bins."""
    frame_count(len(w))  # rejects a signal shorter than one window
    segs = sliding_window_view(w.samples, WINDOW_LEN)[::HOP]
    return Spectrogram(np.fft.rfft(segs * np.hamming(WINDOW_LEN), axis=1), kind="complex")


def istft(s: Spectrogram) -> Waveform:
    """Overlap-add inverse STFT with synthesis-window normalization.

    The overlap-added signal is divided by the overlap-added squared window,
    so an unmodified STFT inverts essentially exactly; modified magnitudes
    reconstruct to within ~1e-3 relative RMS on the interior (Hamming at 50%
    overlap is not exactly COLA). The inverse FFT is windowed and the sum
    divided in place, by HOP-long window sums, so the only whole-signal
    arrays are the inverse FFT and the output.
    """
    if s.kind != "complex":
        raise ValueError(f"istft needs a complex spectrogram, got kind {s.kind!r}")
    window = np.hamming(WINDOW_LEN)
    segs = np.fft.irfft(s.frames, n=WINDOW_LEN, axis=1)
    segs *= window
    # HOP is half of WINDOW_LEN, so each HOP-long block of the output sums
    # exactly two frames: the first half of frame b and the second half of
    # frame b - 1 (the first and last blocks get one each).
    acc = np.zeros((s.num_frames + 1, HOP))
    acc[:-1] += segs[:, :HOP]
    acc[1:] += segs[:, HOP:]
    # Each block is divided by the squared-window halves its frames put in it.
    # A Hamming window's square is at least 0.0064, so no sum comes near zero.
    sq = window * window
    head, tail = sq[:HOP], sq[HOP:]
    acc[0] /= head
    acc[1:-1] /= head + tail
    acc[-1] /= tail
    return Waveform(acc.ravel())


def magnitude(s: Spectrogram) -> Spectrogram:
    if s.kind != "complex":
        raise ValueError(f"magnitude needs a complex spectrogram, got {s.kind!r}")
    return Spectrogram(np.abs(s.frames), kind="magnitude")


def log1p_compress(s: Spectrogram) -> Spectrogram:
    """Entry-wise log(1 + x); keeps outputs non-negative."""
    if s.kind != "magnitude":
        raise ValueError(f"log1p_compress needs a magnitude spectrogram, got {s.kind!r}")
    if np.any(s.frames < 0):
        raise ValueError("log1p_compress input has negative entries")
    return Spectrogram(np.log1p(s.frames), kind="log1p")


def expm1_decompress(s: Spectrogram) -> Spectrogram:
    """Exact inverse of :func:`log1p_compress`."""
    if s.kind != "log1p":
        raise ValueError(f"expm1_decompress needs a log1p spectrogram, got {s.kind!r}")
    return Spectrogram(np.expm1(s.frames), kind="magnitude")


def combine_with_phase(mag: Spectrogram, reference: Spectrogram) -> Spectrogram:
    """Attach the phase of ``reference`` (complex) to ``mag`` (magnitude).

    The phase is the unit phasor ``z / |z|`` of each reference bin ``z``,
    and 1 where ``|z| = 0``, as ``exp(1j * angle(0))`` is; it is scaled by
    the magnitude in place.
    """
    if mag.kind != "magnitude":
        raise ValueError(f"expected magnitude spectrogram, got {mag.kind!r}")
    if reference.kind != "complex":
        raise ValueError(f"expected complex reference, got {reference.kind!r}")
    if mag.frames.shape != reference.frames.shape:
        raise ValueError(
            f"shape mismatch: {mag.frames.shape} vs {reference.frames.shape}"
        )
    z = reference.frames
    size = np.abs(z)
    out = np.divide(z, size, out=np.ones_like(z), where=size > 0)
    out *= mag.frames
    return Spectrogram(out, kind="complex")


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_matrix() -> np.ndarray:
    """Triangular mel filter matrix of shape (26, 257).

    Filter centers are spaced uniformly on the mel scale from 0 Hz to Nyquist;
    each filter rises linearly from the previous center and falls to the next,
    evaluated at the FFT bin frequencies.
    """
    bin_hz = np.arange(N_BINS) * SAMPLE_RATE / WINDOW_LEN
    centers_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(SAMPLE_RATE / 2), N_MEL_FILTERS + 2))
    mat = np.zeros((N_MEL_FILTERS, N_BINS))
    for i in range(N_MEL_FILTERS):
        lo, mid, hi = centers_hz[i], centers_hz[i + 1], centers_hz[i + 2]
        rising = (bin_hz - lo) / (mid - lo)
        falling = (hi - bin_hz) / (hi - mid)
        mat[i] = np.maximum(0.0, np.minimum(rising, falling))
    return mat


_MEL_T = mel_matrix().T  # built once; the transposed view keeps the matmul's summation order


def mel_filterbank(s: Spectrogram) -> FbankFeatures:
    """Log energies of the power spectrum under the triangular mel filters."""
    if s.kind != "magnitude":
        raise ValueError(f"mel_filterbank needs a magnitude spectrogram, got {s.kind!r}")
    energies = (s.frames**2) @ _MEL_T
    return FbankFeatures(np.log(energies + FBANK_FLOOR))


def normalize(w: Waveform) -> Waveform:
    """Peak-normalize to max |sample| = 1. Silent input is returned unchanged."""
    peak = np.max(np.abs(w.samples)) if len(w) else 0.0
    if peak == 0.0:
        return Waveform(w.samples.copy())
    return Waveform(w.samples / peak)


def read_wav(path) -> Waveform:
    """Read a mono 16 kHz PCM16 WAV file; anything else is rejected with a ``ValueError`` naming the path."""
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as f:
            if f.getnchannels() != 1:
                raise ValueError(f"{path}: expected mono audio, got {f.getnchannels()} channels")
            if f.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit")
            if f.getframerate() != SAMPLE_RATE:
                raise ValueError(f"{path}: expected {SAMPLE_RATE} Hz, got {f.getframerate()} Hz")
            n = f.getnframes()
            raw = f.readframes(n)
    except EOFError:
        raise ValueError(f"{path}: not a WAV file: it ends inside its header") from None
    except wave.Error as e:
        raise ValueError(f"{path}: not a WAV file: {e}") from None
    if len(raw) != 2 * n:
        raise ValueError(f"{path}: truncated: its header promises {2 * n} data bytes, the file holds {len(raw)}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples)


def write_wav(path, w: Waveform) -> None:
    """Write 16 kHz PCM16 mono; samples are clipped to [-1, 1] first."""
    clipped = np.clip(w.samples, -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SAMPLE_RATE)
        f.writeframes(pcm.tobytes())
