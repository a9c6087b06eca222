"""Paired clean/distorted corpus construction.

Builds everything needed to run the pipeline without licensed speech data:
a deterministic toy utterance synthesizer over a small IPA subset,
SNR-controlled noise mixing, image-method room reverberation, and JSON
manifests tying utterances to their transcripts. Directory layout:

    corpus_dir/
        clean/<utt_id>.wav
        distorted/<utt_id>.wav      (after `mix` and/or `reverb`)
        transcripts/<utt_id>.txt    (space-separated IPA phones)
        mix_meta.json               ({utt_id: snr_db}, written by `mix`)

Every WAV is 16 kHz mono PCM16, the one format of :mod:`bpcse.dsp`; all
rates and lengths here are in its samples. External corpora with the same
layout drop straight in: :func:`bpcse.dsp.read_wav` rejects any other format.
Noise is synthesized by :func:`make_noise` at each utterance's own length.

Reverberation is simulated in one room, the shoebox ``ROOM_DIMS_M`` with a
source at ``SOURCE_M`` and a receiver at ``RECEIVER_M``, 2 m apart, and
every response is ``RIR_LEN_SAMPLES`` long; only the T60 varies.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import bpc, dsp

SPEED_OF_SOUND = 343.0
T60_FIT_DB = (5.0, 20.0)  # the decay range, in dB below the start, that fit_t60 fits
MANIFEST_SCHEMA = "bpcse-manifest-1"

# the one simulated room, in metres, and the length of its responses
ROOM_DIMS_M = (5.0, 4.0, 6.0)
SOURCE_M = (2.0, 3.5, 2.0)
RECEIVER_M = (2.0, 1.5, 2.0)
RIR_LEN_SAMPLES = 4096

# Toy phone recipes. Vowels are two-formant harmonic tones, fricatives
# band-limited noise, stops a closure plus a burst, nasals low-passed tones.
TOY_VOWELS = {"ɑ": (730, 1090), "i": (270, 2290), "u": (300, 870)}
TOY_FRICATIVES = {"s": (4000, 7500), "ʃ": (2000, 5500), "f": (1500, 7000), "z": (3500, 7000)}
TOY_STOPS = {"p": (500, 1500), "t": (3000, 6000), "k": (1500, 3500)}
TOY_NASALS = {"m": 250.0, "n": 300.0}
TOY_PHONES = (
    list(TOY_VOWELS) + list(TOY_FRICATIVES) + list(TOY_STOPS) + list(TOY_NASALS) + ["sil"]
)


def toy_inventory() -> bpc.PhoneInventory:
    return bpc.PhoneInventory(tuple(TOY_PHONES), language="en")


@dataclass
class ManifestEntry:
    utt_id: str
    clean_path: str
    distorted_path: str
    phone_transcript: list
    bpc_transcript: list
    snr_db: float | None
    num_frames: int


def _is_str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _is_finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# each ManifestEntry field, in order: what a manifest's JSON must hold there, and how an error says it
_MANIFEST_FIELD_CHECKS = {
    "utt_id": (lambda v: isinstance(v, str), "a string"),
    "clean_path": (lambda v: isinstance(v, str), "a string"),
    "distorted_path": (lambda v: isinstance(v, str), "a string"),
    "phone_transcript": (_is_str_list, "a list of strings"),
    "bpc_transcript": (_is_str_list, "a list of strings"),
    "snr_db": (lambda v: v is None or _is_finite_number(v), "a finite number or null"),
    "num_frames": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
}


@dataclass
class Manifest:
    entries: list
    scheme_name: str = ""
    seed: int | None = None

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.utt_id in seen:
                raise ValueError(f"duplicate utt_id {e.utt_id!r} in manifest")
            seen.add(e.utt_id)

    def to_json(self) -> str:
        doc = {
            "schema": MANIFEST_SCHEMA,
            "scheme": self.scheme_name,
            "seed": self.seed,
            "entries": [asdict(e) for e in self.entries],
        }
        return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        try:
            doc = json.loads(text)
        except ValueError as e:
            raise ValueError(f"manifest is not JSON: {e}") from None
        if not isinstance(doc, dict):
            raise ValueError("manifest is not a JSON object")
        if doc.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(f"unrecognized manifest schema {doc.get('schema')!r}")
        if not isinstance(doc.get("entries"), list):
            raise ValueError("manifest lacks an 'entries' list")
        scheme, seed = doc.get("scheme", ""), doc.get("seed")
        if not isinstance(scheme, str):
            raise ValueError(f"manifest field 'scheme' is {scheme!r}; it must be a string")
        if seed is not None and type(seed) is not int:
            raise ValueError(f"manifest field 'seed' is {seed!r}; it must be an integer or null")
        entries = []
        for i, d in enumerate(doc["entries"]):
            if not isinstance(d, dict):
                raise ValueError(f"manifest entry {i} is not a JSON object")
            for name, (ok, must) in _MANIFEST_FIELD_CHECKS.items():
                if name not in d:
                    raise ValueError(f"manifest entry {i} ({d.get('utt_id')!r}) lacks the {name!r} field")
                if not ok(d[name]):
                    raise ValueError(
                        f"manifest entry {i} ({d['utt_id']!r}) field {name!r} is {d[name]!r}; it must be {must}"
                    )
            entries.append(ManifestEntry(**{name: d[name] for name in _MANIFEST_FIELD_CHECKS}))
        return cls(entries, scheme, seed)

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), "utf-8")

    @classmethod
    def load(cls, path) -> "Manifest":
        """The manifest saved at ``path``; a ValueError names the path."""
        try:
            return cls.from_json(Path(path).read_text("utf-8"))
        except ValueError as e:  # not UTF-8, not JSON, or not a manifest
            raise ValueError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# noise mixing


def mix_at_snr(clean: dsp.Waveform, noise: dsp.Waveform, snr_db: float) -> dsp.Waveform:
    """clean + g * noise, with g chosen so the clean/noise power ratio is snr_db.

    The noise must be exactly as long as the clean signal; a length mismatch
    is rejected naming both lengths. Powers are measured over the full
    utterance. A non-finite ``snr_db`` is rejected, and so is one so far
    from 0 dB that the gain leaves float range or the scaled noise vanishes
    in the rounding of the clean signal.
    """
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db!r}")
    if len(clean) == 0:
        raise ValueError("clean signal is empty")
    if len(noise) != len(clean):
        raise ValueError(f"noise has {len(noise)} samples, the clean signal {len(clean)}; they must match")
    p_clean = float(np.mean(clean.samples**2))
    p_noise = float(np.mean(noise.samples**2))
    if p_clean == 0.0:
        raise ValueError("zero power: clean signal is silent")
    if p_noise == 0.0:
        raise ValueError("zero power: noise signal is silent")
    try:
        g = math.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"snr_db {snr_db!r} has a power ratio beyond float range") from None
    if not (math.isfinite(g) and g > 0):
        raise ValueError(f"snr_db {snr_db!r} gives noise gain {g!r}; it must be finite and positive")
    mixed = clean.samples + g * noise.samples
    if np.array_equal(mixed, clean.samples):
        raise ValueError(f"snr_db {snr_db!r} gives noise gain {g!r}, too small to change the clean signal")
    return dsp.Waveform(mixed)


def make_noise(kind: str, n: int, rng) -> dsp.Waveform:
    """Seeded synthetic noise: white, pink (1/f), or slowly modulated tones.

    Tonal noise is six tones at 200-3500 Hz, each under a raised-sine
    amplitude envelope of 0.3-2 Hz, over a faint white floor. Each tone and
    envelope is the imaginary part of one :func:`_sinusoid`, so no sample
    costs a ``sin`` call. The normalized result differs from ``np.sin`` per
    tone by about 1e-16 per radian of the largest phase argument (7e-12 at
    60000 samples, 8e4 rad), which is the rounding of that argument itself.
    """
    if kind == "white":
        x = rng.normal(0.0, 1.0, n)
    elif kind == "pink":
        spec = np.fft.rfft(rng.normal(0.0, 1.0, n))
        freqs = np.fft.rfftfreq(n, 1.0 / dsp.SAMPLE_RATE)
        spec /= np.sqrt(np.maximum(freqs, 1.0))
        x = np.fft.irfft(spec, n=n)
    elif kind == "tonal":
        x = np.zeros(n)
        for _ in range(6):  # per tone, draws carrier and envelope frequency, then envelope and carrier phase
            w = 2 * np.pi * rng.uniform(200.0, 3500.0) / dsp.SAMPLE_RATE
            w_am = 2 * np.pi * rng.uniform(0.3, 2.0) / dsp.SAMPLE_RATE
            am = 0.5 + 0.5 * _sinusoid(n, w_am, rng.uniform(0, 2 * np.pi)).imag
            x += am * _sinusoid(n, w, rng.uniform(0, 2 * np.pi)).imag
        x += 0.05 * rng.normal(0.0, 1.0, n)
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    return dsp.normalize(dsp.Waveform(x))


# ---------------------------------------------------------------------------
# room impulse responses


@functools.cache
def _image_sources() -> tuple:
    """Image sources of the simulated room that arrive within ``RIR_LEN_SAMPLES``.

    Returns each kept image's sample delay, reflection order and 4 pi d
    spreading denominator, as read-only arrays. They depend on neither the
    wall reflection coefficient nor the T60, so they are built on the first
    call and serve every step of every :func:`generate_rir`.
    """
    lx, ly, lz = ROOM_DIMS_M
    max_dist = RIR_LEN_SAMPLES / dsp.SAMPLE_RATE * SPEED_OF_SOUND

    def axis_images(length, src, rcv):
        offsets, refl = [], []
        n_max = math.ceil((max_dist + length) / (2.0 * length))
        for n in range(-n_max, n_max + 1):
            for p in (0, 1):
                offsets.append((1 - 2 * p) * src + 2 * n * length - rcv)
                refl.append(abs(n - p) + abs(n))
        return np.array(offsets), np.array(refl)

    dx, rx = axis_images(lx, SOURCE_M[0], RECEIVER_M[0])
    dy, ry = axis_images(ly, SOURCE_M[1], RECEIVER_M[1])
    dz, rz = axis_images(lz, SOURCE_M[2], RECEIVER_M[2])

    dist = np.sqrt(
        dx[:, None, None] ** 2 + dy[None, :, None] ** 2 + dz[None, None, :] ** 2
    ).ravel()
    order = (rx[:, None, None] + ry[None, :, None] + rz[None, None, :]).ravel()
    delays = np.round(dist * dsp.SAMPLE_RATE / SPEED_OF_SOUND).astype(np.int64)
    keep = (delays < RIR_LEN_SAMPLES) & (dist > 1e-9)
    out = delays[keep], order[keep], 4.0 * np.pi * dist[keep]
    for a in out:
        a.flags.writeable = False
    return out


def generate_rir(t60_s: float) -> dsp.Waveform:
    """Image-source response of the simulated room at reverberation time ``t60_s``.

    Image amplitudes decay as beta^reflections / (4 pi d) and land on the
    nearest sample of their propagation delay, up to ``RIR_LEN_SAMPLES``.
    The uniform reflection coefficient is calibrated by bisection so the
    rendered response actually realizes the requested T60 on its truncated
    support (the textbook Sabine/Eyring coefficient under-decays badly on a
    4096-sample response; Eyring's value seeds the search). The image
    geometry is built once per process; each step only re-weights the images
    for its beta and sums them per delay. A T60 that is not finite and
    positive is rejected, as are unreachable T60s, where even Sabine
    absorption would exceed 1, and a T60 that Eyring's beta and 20
    bisection steps all miss by 0.5% or more (a T60 whose decay the
    truncated response cannot show).
    """
    if not (math.isfinite(t60_s) and t60_s > 0):
        raise ValueError(f"t60_s must be positive and finite, got {t60_s}")
    lx, ly, lz = ROOM_DIMS_M
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    sabine_absorption = 0.161 * volume / (surface * t60_s)
    if sabine_absorption > 1.0:
        raise ValueError(f"unreachable T60 {t60_s} s: required absorption {sabine_absorption:.2f} > 1")
    eyring = 1.0 - math.exp(-0.161 * volume / (surface * t60_s))
    beta = math.sqrt(1.0 - eyring)
    lo, hi = 0.02, 0.998
    delays, order, denom = _image_sources()
    for _ in range(21):  # Eyring's beta, then 20 bisection steps
        rir = dsp.Waveform(np.bincount(delays, weights=beta**order / denom, minlength=RIR_LEN_SAMPLES))
        try:
            fitted = fit_t60(rir)
        except ValueError:
            fitted = math.inf  # decay too shallow to measure: beta is too high
        if abs(fitted - t60_s) / t60_s < 0.005:
            return rir
        if fitted > t60_s:
            hi = beta
        else:
            lo = beta
        beta = 0.5 * (lo + hi)
    last = "unmeasurable" if math.isinf(fitted) else f"{fitted:.4f} s"
    raise ValueError(
        f"T60 {t60_s} s not reached within 0.5% on a {RIR_LEN_SAMPLES}-sample response: last fitted T60 {last}"
    )


def _next_fast_len(n: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= n: ``scipy.fft.next_fast_len(n, real=True)``."""
    best = 2 * n  # a power of two within a factor of two of n is always a candidate
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def apply_rir(w: dsp.Waveform, rir: dsp.Waveform) -> dsp.Waveform:
    """Full convolution truncated to len(w), then peak-renormalized.

    The convolution is the product of ``np.fft`` real FFTs at
    ``_next_fast_len`` of the full length, or a plain product when either
    input has one sample: the calls ``scipy.signal.fftconvolve`` makes, and
    numpy's pocketfft gives the same bits at those lengths, so the output
    equals ``fftconvolve(w, rir)[:len(w)]`` bit for bit without importing
    scipy.
    """
    if len(w) == 0:
        raise ValueError("clean signal is empty")
    if len(rir) == 0:
        raise ValueError("room response is empty")
    if not np.any(rir.samples):
        raise ValueError("zero power: room response is silent")
    if min(len(w), len(rir)) == 1:
        out = w.samples * rir.samples[0]
    else:
        size = _next_fast_len(len(w) + len(rir) - 1)
        spec = np.fft.rfft(w.samples, size) * np.fft.rfft(rir.samples, size)
        out = np.fft.irfft(spec, size)[: len(w)]
    return dsp.normalize(dsp.Waveform(out))


def fit_t60(rir: dsp.Waveform) -> float:
    """Schroeder backward-integral T60 estimate with truncation compensation.

    The energy lost to truncating the response is estimated by extrapolating
    the fitted exponential past the end of the support and added back into
    the integral; a few fixed-point iterations make the decay curve straight
    enough to fit. The fit runs over ``T60_FIT_DB``, -5 to -20 dB (or as
    deep as the compensated curve goes, for long T60s), and is the
    closed-form least-squares line through the decay curve in dB.
    """
    if len(rir) == 0:
        raise ValueError("room response is empty")
    energy = rir.samples**2
    if not np.any(energy):
        raise ValueError("zero power: room response is silent")
    n = len(energy)
    t = np.arange(n) / dsp.SAMPLE_RATE
    backward = np.cumsum(energy[::-1])[::-1]
    tail = 0.0
    for _ in range(12):
        edc = backward + tail
        db = 10.0 * np.log10(np.maximum(edc / edc[0], 1e-30))
        floor = max(-T60_FIT_DB[1], db[int(0.9 * n)] + 1.0)
        mask = (db <= -T60_FIT_DB[0]) & (db >= floor)
        if mask.sum() < 16:
            raise ValueError("decay range too short to fit T60")
        x, y = t[mask], db[mask]
        x_mean, y_mean = x.mean(), y.mean()
        dx = x - x_mean
        slope = dx @ (y - y_mean) / (dx @ dx)
        icpt = y_mean - slope * x_mean
        tail = edc[0] * 10.0 ** ((icpt + slope * (n / dsp.SAMPLE_RATE)) / 10.0)
    return -60.0 / slope


# ---------------------------------------------------------------------------
# toy utterance synthesis


@functools.lru_cache
def _ramp_window(r: int) -> np.ndarray:
    """The rising raised-sine window of ``r`` samples, built once per length and read-only."""
    win = np.sin(np.linspace(0, np.pi / 2, r)) ** 2
    win.flags.writeable = False
    return win


def _edge_ramp(seg: np.ndarray, ramp: int) -> np.ndarray:
    n = len(seg)
    r = min(ramp, n // 2)
    if r > 0:
        win = _ramp_window(r)
        seg[:r] *= win
        seg[-r:] *= win[::-1]
    return seg


def _sinusoid(n, w, phase):
    """``exp(1j * (w * j + phase))`` for j = 0 .. n-1, from about 2 sqrt(n) calls of ``exp``.

    With m = isqrt(n) + 1, sample j = m * i + r is the product of a coarse
    table entry ``exp(1j * (w * m * i + phase))`` and a fine one
    ``exp(1j * w * r)``: one complex multiply per sample in place of a libm
    ``sin`` and ``cos``. Its error is its two entries' plus one rounding;
    theirs, as for ``exp`` per sample, is the rounding of phase arguments as
    large as ``w * n``.
    """
    m = math.isqrt(n) + 1
    coarse = np.exp(1j * (w * m * np.arange(-(-n // m)) + phase))
    fine = np.exp(1j * w * np.arange(m))
    return np.multiply.outer(coarse, fine).ravel()[:n]


def _harmonic_tone(n, f0, envelope, rng):
    """Harmonics k * f0 below 7.5 kHz at amplitude ``envelope(k * f0)``, each at a uniform random phase.

    Harmonics whose amplitude is 1e-4 or less are left out and draw no
    phase; the others draw theirs in harmonic order. The tone is the
    imaginary part of sum_k c_k z^k, with c_k = a_k exp(1j phi_k) and
    z = exp(1j 2 pi f0 j / fs) over the samples j, summed by Horner's rule:
    one in-place complex multiply per harmonic and no ``sin`` call per
    sample. At phone lengths, where phase arguments reach about 1e4 rad,
    the result is within 1e-12 of its peak from summing ``np.sin`` per
    harmonic; that sum's own rounding of those arguments is of the same size.
    """
    amps = []
    k = 1
    while k * f0 < dsp.SAMPLE_RATE / 2 - 500:
        amps.append(envelope(k * f0))
        k += 1
    amps = np.array(amps)
    kept = np.flatnonzero(amps > 1e-4)
    coefs = np.zeros(kept[-1] + 1 if len(kept) else 0, dtype=complex)  # up to the last kept harmonic
    coefs[kept] = amps[kept] * np.exp(1j * rng.uniform(0, 2 * np.pi, len(kept)))
    z = _sinusoid(n, 2 * np.pi * f0 / dsp.SAMPLE_RATE, 0.0)
    acc = np.zeros(n, dtype=complex)
    for c in coefs[::-1]:  # (((c_K z + c_K-1) z + ...) + c_1) z
        if c:
            acc += c
        acc *= z
    return acc.imag


def _band_noise(n, lo, hi, rng):
    spec = np.fft.rfft(rng.normal(0.0, 1.0, n))
    freqs = np.fft.rfftfreq(n, 1.0 / dsp.SAMPLE_RATE)
    spec[(freqs < lo) | (freqs > hi)] = 0.0
    return np.fft.irfft(spec, n=n)


def _rms_scale(seg, target):
    rms = np.sqrt(np.mean(seg**2))
    return seg * (target / rms) if rms > 0 else seg


def synth_toy_phone(phone, n, f0, rng):
    if phone == "sil":
        return np.zeros(n)
    if phone in TOY_VOWELS:
        f1, f2 = TOY_VOWELS[phone]
        env = lambda f: math.exp(-0.5 * ((f - f1) / 120.0) ** 2) + 0.7 * math.exp(
            -0.5 * ((f - f2) / 180.0) ** 2
        )
        return _rms_scale(_harmonic_tone(n, f0, env, rng), 0.22)
    if phone in TOY_FRICATIVES:
        lo, hi = TOY_FRICATIVES[phone]
        return _rms_scale(_band_noise(n, lo, hi, rng), 0.12)
    if phone in TOY_STOPS:
        lo, hi = TOY_STOPS[phone]
        closure = int(0.6 * n)
        burst = _rms_scale(_band_noise(n - closure, lo, hi, rng), 0.20)
        return np.concatenate([np.zeros(closure), _edge_ramp(burst, int(0.004 * dsp.SAMPLE_RATE))])
    if phone in TOY_NASALS:
        murmur = TOY_NASALS[phone]
        env = lambda f: math.exp(-((f - murmur) ** 2) / (2 * 150.0**2)) + 0.3 * math.exp(-f / 500.0)
        return _rms_scale(_harmonic_tone(n, f0, env, rng), 0.16)
    raise ValueError(f"unknown toy phone {phone!r}")


def synth_toy_utterance(phone_seq, seed: int):
    """Render a phone sequence to audio; returns (Waveform, per-frame phone labels).

    Deterministic in (phone_seq, seed). Each phone lasts 80-240 ms; frame
    labels follow the STFT framing (the label of the sample under each
    frame's center).
    """
    for p in phone_seq:
        if p not in TOY_PHONES:
            raise ValueError(f"unknown toy phone {p!r}; toy inventory is {sorted(TOY_PHONES)}")
    rng = np.random.default_rng(seed)
    f0 = rng.uniform(110.0, 145.0)
    segs, ends = [], []
    pos = 0
    for p in phone_seq:
        dur = rng.uniform(0.08, 0.24) if p != "sil" else rng.uniform(0.10, 0.16)
        n = int(round(dur * dsp.SAMPLE_RATE))
        seg = synth_toy_phone(p, n, f0, rng)
        if p not in TOY_STOPS:  # stop bursts carry their own ramp
            seg = _edge_ramp(seg.copy(), int(0.005 * dsp.SAMPLE_RATE))
        segs.append(seg)
        pos += n
        ends.append(pos)
    samples = np.concatenate(segs) if segs else np.zeros(0)
    w = dsp.normalize(dsp.Waveform(samples))

    return w, _frame_labels(ends, phone_seq)


def _frame_labels(ends, phones) -> list:
    """The phone under each STFT frame's center, where phone i ends before sample ends[i] and starts at the previous end.

    A center past the last end takes the last phone; a signal shorter than
    one window has no frames.
    """
    n = ends[-1] if ends else 0
    if n < dsp.WINDOW_LEN:
        return []
    centers = np.arange(dsp.frame_count(n)) * dsp.HOP + dsp.WINDOW_LEN // 2
    owner = np.minimum(np.searchsorted(ends, centers, side="right"), len(phones) - 1)
    return [phones[i] for i in owner]


def random_phone_sequence(rng, min_groups=3, max_groups=6):
    """sil-padded alternation of consonant groups and vowels."""
    consonants = list(TOY_FRICATIVES) + list(TOY_STOPS) + list(TOY_NASALS)
    seq = ["sil"]
    for _ in range(int(rng.integers(min_groups, max_groups + 1))):
        seq.append(consonants[int(rng.integers(0, len(consonants)))])
        seq.append(list(TOY_VOWELS)[int(rng.integers(0, len(TOY_VOWELS)))])
    seq.append("sil")
    return seq


# ---------------------------------------------------------------------------
# corpus directory pipeline


def synth_corpus(out_dir, n_utts: int, seed: int) -> list:
    """Write a toy corpus: clean audio and phone transcripts."""
    out = Path(out_dir)
    rng = np.random.default_rng(seed)
    utt_ids = []
    for i in range(n_utts):
        utt = f"utt{i:04d}"
        phones = random_phone_sequence(rng)
        w, _ = synth_toy_utterance(phones, seed=int(rng.integers(0, 2**31 - 1)))
        dsp.write_wav(out / "clean" / f"{utt}.wav", w)
        (out / "transcripts").mkdir(parents=True, exist_ok=True)
        (out / "transcripts" / f"{utt}.txt").write_text(" ".join(phones), "utf-8")
        utt_ids.append(utt)
    return utt_ids


def _corpus_utts(corpus_dir) -> list:
    clean = Path(corpus_dir) / "clean"
    if not clean.is_dir():
        raise ValueError(f"no clean/ directory under {corpus_dir}")
    return sorted(p.stem for p in clean.glob("*.wav"))


def mix_corpus(corpus_dir, snr_list, seed: int) -> dict:
    """Mix every clean utterance with synthetic noise of a drawn kind at an SNR drawn from snr_list."""
    if len(snr_list) == 0:
        raise ValueError("snr_list is empty")
    for i, snr in enumerate(snr_list):
        if not math.isfinite(snr):
            raise ValueError(f"snr_list[{i}] is {snr!r}; every SNR must be finite")
    corpus_dir = Path(corpus_dir)
    rng = np.random.default_rng(seed)
    meta = {}
    for utt in _corpus_utts(corpus_dir):
        clean = dsp.read_wav(corpus_dir / "clean" / f"{utt}.wav")
        kind = ("white", "pink", "tonal")[int(rng.integers(0, 3))]
        noise = make_noise(kind, len(clean), rng)
        snr = float(snr_list[int(rng.integers(0, len(snr_list)))])
        mixed = dsp.normalize(mix_at_snr(clean, noise, snr))
        dsp.write_wav(corpus_dir / "distorted" / f"{utt}.wav", mixed)
        meta[utt] = snr
    (corpus_dir / "mix_meta.json").write_text(json.dumps(meta, sort_keys=True), "utf-8")
    return meta


def reverb_corpus(corpus_dir, t60_list, seed: int) -> dict:
    """Convolve distorted (or clean, if un-mixed) utterances with responses of the one simulated room.

    Every utterance's T60 is drawn, every drawn T60's response rendered, and
    every output convolved before any file is written, so an unreachable T60
    or a source that cannot be read or reverberated leaves the corpus as it
    was.
    """
    if len(t60_list) == 0:
        raise ValueError("t60_list is empty")
    corpus_dir = Path(corpus_dir)
    rng = np.random.default_rng(seed)
    meta = {utt: float(t60_list[int(rng.integers(0, len(t60_list)))]) for utt in _corpus_utts(corpus_dir)}
    rirs = {t60: generate_rir(t60) for t60 in dict.fromkeys(meta.values())}
    outs = {}
    for utt, t60 in meta.items():
        src = corpus_dir / "distorted" / f"{utt}.wav"
        if not src.exists():
            src = corpus_dir / "clean" / f"{utt}.wav"
        w = dsp.read_wav(src)
        try:
            outs[utt] = apply_rir(w, rirs[t60])
        except ValueError as e:
            raise ValueError(f"{src}: {e}") from None
    for utt, out in outs.items():
        dsp.write_wav(corpus_dir / "distorted" / f"{utt}.wav", out)
    return meta


def _read_mix_meta(path) -> dict:
    """The ``{utt_id: snr_db}`` object of a ``mix_meta.json``.

    A ValueError names the path, and the utterance of any SNR that a manifest
    would reject.
    """
    try:
        meta = json.loads(path.read_text("utf-8"))
    except ValueError as e:  # malformed JSON or UTF-8
        raise ValueError(f"{path}: not UTF-8 JSON: {e}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: {meta!r} is not a JSON object of SNRs by utterance")
    ok, must = _MANIFEST_FIELD_CHECKS["snr_db"]
    for utt, snr in meta.items():
        if not ok(snr):
            raise ValueError(f"{path}: the SNR of utterance {utt!r} is {snr!r}; it must be {must}")
    return meta


def build_manifest(corpus_dir, scheme: bpc.BpcScheme, seed: int | None = None) -> Manifest:
    """Scan a corpus directory into a manifest, deriving BPC transcripts.

    Requires clean/distorted/transcript triples for every utterance and
    fails naming the utt_id of any incomplete pair. A side file that a
    manifest cannot carry, a ``mix_meta.json`` or a transcript, fails naming
    the file and the utterance.
    """
    corpus_dir = Path(corpus_dir)
    snr_meta = {}
    meta_path = corpus_dir / "mix_meta.json"
    if meta_path.exists():
        snr_meta = _read_mix_meta(meta_path)
    entries = []
    for utt in _corpus_utts(corpus_dir):
        missing = [
            str(rel)
            for rel in (Path("distorted") / f"{utt}.wav", Path("transcripts") / f"{utt}.txt")
            if not (corpus_dir / rel).exists()
        ]
        if missing:
            raise ValueError(f"utterance {utt!r} is missing {', '.join(missing)}")
        transcript = corpus_dir / "transcripts" / f"{utt}.txt"
        try:
            phones = transcript.read_text("utf-8").split()
            labels = bpc.transcript_to_bpc(phones, scheme)
        except ValueError as e:  # not UTF-8, or a phone the scheme lacks
            raise ValueError(f"utterance {utt!r} ({transcript}): {e}") from None
        clean_path = corpus_dir / "clean" / f"{utt}.wav"
        clean = dsp.read_wav(clean_path)
        try:
            num_frames = dsp.frame_count(len(clean))
        except ValueError as e:
            raise ValueError(f"utterance {utt!r} ({clean_path}): {e}") from None
        entries.append(
            ManifestEntry(
                utt_id=utt,
                clean_path=f"clean/{utt}.wav",
                distorted_path=f"distorted/{utt}.wav",
                phone_transcript=phones,
                bpc_transcript=labels,
                snr_db=snr_meta.get(utt),
                num_frames=num_frames,
            )
        )
    entries.sort(key=lambda e: e.utt_id)
    return Manifest(entries, scheme_name=scheme.name, seed=seed)
