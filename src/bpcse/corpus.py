"""Paired clean/distorted corpus construction.

Builds everything needed to run the pipeline without licensed speech data:
a deterministic toy utterance synthesizer over a small IPA subset,
SNR-controlled noise mixing, image-method room reverberation, and JSON
manifests tying utterances to their transcripts. Directory layout:

    corpus_dir/
        clean/<utt_id>.wav
        distorted/<utt_id>.wav      (after `mix` and/or `reverb`)
        transcripts/<utt_id>.txt    (space-separated IPA phones)
        labels/<utt_id>.json        (per-frame phone labels from the synth)
        mix_meta.json               ({utt_id: snr_db}, written by `mix`)

Every WAV is 16 kHz mono PCM16, the one format of :mod:`bpcse.dsp`; all
rates and lengths here are in its samples. External corpora with the same
layout drop straight in: :func:`bpcse.dsp.read_wav` rejects any other format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve

from . import bpc, dsp

SPEED_OF_SOUND = 343.0
MANIFEST_SCHEMA = "bpcse-manifest-1"

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
class RoomSpec:
    room_dims_m: tuple = (5.0, 4.0, 6.0)
    source_m: tuple = (2.0, 3.5, 2.0)
    receiver_m: tuple = (2.0, 1.5, 2.0)
    t60_s: float = 0.4
    rir_len_samples: int = 4096

    def __post_init__(self):
        for point, label in ((self.source_m, "source"), (self.receiver_m, "receiver")):
            for x, dim in zip(point, self.room_dims_m):
                if not 0.0 < x < dim:
                    raise ValueError(f"{label} position {point} not strictly inside room {self.room_dims_m}")
        if not (math.isfinite(self.t60_s) and self.t60_s > 0):
            raise ValueError(f"t60_s must be positive and finite, got {self.t60_s}")
        if not isinstance(self.rir_len_samples, (int, np.integer)) or self.rir_len_samples <= 0:
            raise ValueError(f"rir_len_samples must be a positive int, got {self.rir_len_samples!r}")


@dataclass
class ManifestEntry:
    utt_id: str
    clean_path: str
    distorted_path: str
    phone_transcript: list
    bpc_transcript: list
    snr_db: float | None
    num_frames: int


@dataclass
class Manifest:
    entries: list
    scheme_name: str = ""
    seed: int | None = None
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self):
        ids = [e.utt_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate utt_ids in manifest")

    def clean_wav(self, entry) -> dsp.Waveform:
        return dsp.read_wav(self.base_dir / entry.clean_path)

    def distorted_wav(self, entry) -> dsp.Waveform:
        return dsp.read_wav(self.base_dir / entry.distorted_path)

    def to_json(self) -> str:
        doc = {
            "schema": MANIFEST_SCHEMA,
            "scheme": self.scheme_name,
            "seed": self.seed,
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
                for e in self.entries
            ],
        }
        return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str, base_dir=".") -> "Manifest":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("manifest is not a JSON object")
        if doc.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(f"unrecognized manifest schema {doc.get('schema')!r}")
        if not isinstance(doc.get("entries"), list):
            raise ValueError("manifest lacks an 'entries' list")
        entries = []
        for i, d in enumerate(doc["entries"]):
            if not isinstance(d, dict):
                raise ValueError(f"manifest entry {i} is not a JSON object")
            for name in ManifestEntry.__dataclass_fields__:
                if name not in d:
                    raise ValueError(f"manifest entry {i} ({d.get('utt_id')!r}) lacks the {name!r} field")
            entries.append(
                ManifestEntry(
                    d["utt_id"],
                    d["clean_path"],
                    d["distorted_path"],
                    list(d["phone_transcript"]),
                    list(d["bpc_transcript"]),
                    d["snr_db"],
                    int(d["num_frames"]),
                )
            )
        return cls(entries, doc.get("scheme", ""), doc.get("seed"), Path(base_dir))

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), "utf-8")

    @classmethod
    def load(cls, path) -> "Manifest":
        path = Path(path)
        return cls.from_json(path.read_text("utf-8"), base_dir=path.parent)


# ---------------------------------------------------------------------------
# noise mixing


def _match_length(noise: np.ndarray, n: int, rng=None) -> np.ndarray:
    if len(noise) == n:
        return noise
    if len(noise) < n:
        reps = math.ceil(n / len(noise))
        return np.tile(noise, reps)[:n]
    offset = 0 if rng is None else int(rng.integers(0, len(noise) - n + 1))
    return noise[offset : offset + n]


def mix_at_snr(clean: dsp.Waveform, noise: dsp.Waveform, snr_db: float, rng=None) -> dsp.Waveform:
    """clean + g * noise, with g chosen so the clean/noise power ratio is snr_db.

    Powers are measured over the full utterance. Noise shorter than the
    clean signal is tiled; longer noise is cropped (from a seeded random
    offset when ``rng`` is given).
    """
    if len(clean) == 0:
        raise ValueError("clean signal is empty")
    if len(noise) == 0:
        raise ValueError("noise signal is empty")
    d = _match_length(noise.samples, len(clean), rng)
    p_clean = float(np.mean(clean.samples**2))
    p_noise = float(np.mean(d**2))
    if p_clean == 0.0:
        raise ValueError("zero power: clean signal is silent")
    if p_noise == 0.0:
        raise ValueError("zero power: noise signal is silent")
    g = math.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    return dsp.Waveform(clean.samples + g * d)


def measure_snr(clean: dsp.Waveform, mixed: dsp.Waveform) -> float:
    noise = mixed.samples - clean.samples
    return 10.0 * math.log10(np.mean(clean.samples**2) / np.mean(noise**2))


def make_noise(kind: str, n: int, rng) -> dsp.Waveform:
    """Seeded synthetic noise: white, pink (1/f), or slowly modulated tones."""
    if kind == "white":
        x = rng.normal(0.0, 1.0, n)
    elif kind == "pink":
        spec = np.fft.rfft(rng.normal(0.0, 1.0, n))
        freqs = np.fft.rfftfreq(n, 1.0 / dsp.SAMPLE_RATE)
        spec /= np.sqrt(np.maximum(freqs, 1.0))
        x = np.fft.irfft(spec, n=n)
    elif kind == "tonal":
        t = np.arange(n) / dsp.SAMPLE_RATE
        x = np.zeros(n)
        for _ in range(6):
            f = rng.uniform(200.0, 3500.0)
            am = 0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(0.3, 2.0) * t + rng.uniform(0, 2 * np.pi))
            x += am * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        x += 0.05 * rng.normal(0.0, 1.0, n)
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    return dsp.normalize(dsp.Waveform(x))


# ---------------------------------------------------------------------------
# room impulse responses


def _image_sources(spec: RoomSpec) -> tuple:
    """Image sources of a shoebox room that arrive within rir_len_samples.

    Returns each kept image's sample delay, reflection order and 4 pi d
    spreading denominator. None of them depends on the wall reflection
    coefficient, so one call serves every step of :func:`generate_rir`.
    """
    lx, ly, lz = spec.room_dims_m
    max_dist = spec.rir_len_samples / dsp.SAMPLE_RATE * SPEED_OF_SOUND

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
    delays = np.round(dist * dsp.SAMPLE_RATE / SPEED_OF_SOUND).astype(np.int64)
    keep = (delays < spec.rir_len_samples) & (dist > 1e-9)
    return delays[keep], order[keep], 4.0 * np.pi * dist[keep]


def generate_rir(spec: RoomSpec) -> dsp.Waveform:
    """Image-source room impulse response, truncated to rir_len_samples.

    Image amplitudes decay as beta^reflections / (4 pi d) and land on the
    nearest sample of their propagation delay. The uniform reflection
    coefficient is calibrated by bisection so the rendered response actually
    realizes the requested T60 on its truncated support (the textbook
    Sabine/Eyring coefficient under-decays badly on a 4096-sample response;
    Eyring's value seeds the search). The image geometry is built once per
    call; each step only re-weights the images for its beta and sums them
    per delay. Unreachable T60s, where even Sabine absorption would exceed
    1, are rejected, and so is a T60 that Eyring's beta and 20 bisection
    steps all miss by 0.5% or more (a T60 whose decay the truncated
    response cannot show), and a response so short that even the direct
    path arrives after its end.
    """
    lx, ly, lz = spec.room_dims_m
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    sabine_absorption = 0.161 * volume / (surface * spec.t60_s)
    if sabine_absorption > 1.0:
        raise ValueError(
            f"unreachable T60 {spec.t60_s} s: required absorption {sabine_absorption:.2f} > 1"
        )
    eyring = 1.0 - math.exp(-0.161 * volume / (surface * spec.t60_s))
    beta = math.sqrt(1.0 - eyring)
    lo, hi = 0.02, 0.998
    delays, order, denom = _image_sources(spec)
    if delays.size == 0:
        direct = round(math.dist(spec.source_m, spec.receiver_m) * dsp.SAMPLE_RATE / SPEED_OF_SOUND)
        raise ValueError(
            f"no image source arrives within rir_len_samples={spec.rir_len_samples}: "
            f"the direct path arrives at sample {direct}"
        )
    for _ in range(21):  # Eyring's beta, then 20 bisection steps
        rir = dsp.Waveform(np.bincount(delays, weights=beta**order / denom, minlength=spec.rir_len_samples))
        try:
            fitted = fit_t60(rir)
        except ValueError:
            fitted = math.inf  # decay too shallow to measure: beta is too high
        if abs(fitted - spec.t60_s) / spec.t60_s < 0.005:
            return rir
        if fitted > spec.t60_s:
            hi = beta
        else:
            lo = beta
        beta = 0.5 * (lo + hi)
    last = "unmeasurable" if math.isinf(fitted) else f"{fitted:.4f} s"
    raise ValueError(
        f"T60 {spec.t60_s} s not reached within 0.5% on rir_len_samples={spec.rir_len_samples}: "
        f"last fitted T60 {last}"
    )


def apply_rir(w: dsp.Waveform, rir: dsp.Waveform) -> dsp.Waveform:
    """Full convolution truncated to len(w), then peak-renormalized."""
    if len(w) == 0:
        raise ValueError("clean signal is empty")
    if len(rir) == 0:
        raise ValueError("room response is empty")
    if not np.any(rir.samples):
        raise ValueError("zero power: room response is silent")
    out = fftconvolve(w.samples, rir.samples)[: len(w)]
    return dsp.normalize(dsp.Waveform(out))


def fit_t60(rir: dsp.Waveform, fit_db=(5.0, 20.0)) -> float:
    """Schroeder backward-integral T60 estimate with truncation compensation.

    The energy lost to truncating the response is estimated by extrapolating
    the fitted exponential past the end of the support and added back into
    the integral; a few fixed-point iterations make the decay curve straight
    enough to fit. The fit runs between -fit_db[0] and -fit_db[1] dB (or as
    deep as the compensated curve goes, for long T60s) and is the
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
        floor = max(-fit_db[1], db[int(0.9 * n)] + 1.0)
        mask = (db <= -fit_db[0]) & (db >= floor)
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


def _edge_ramp(seg: np.ndarray, ramp: int) -> np.ndarray:
    n = len(seg)
    r = min(ramp, n // 2)
    if r > 0:
        win = np.sin(np.linspace(0, np.pi / 2, r)) ** 2
        seg[:r] *= win
        seg[-r:] *= win[::-1]
    return seg


def _harmonic_tone(n, f0, envelope, rng):
    t = np.arange(n) / dsp.SAMPLE_RATE
    x = np.zeros(n)
    k = 1
    while k * f0 < dsp.SAMPLE_RATE / 2 - 500:
        a = envelope(k * f0)
        if a > 1e-4:
            x += a * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
        k += 1
    return x


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
    segs, spans = [], []
    pos = 0
    for p in phone_seq:
        dur = rng.uniform(0.08, 0.24) if p != "sil" else rng.uniform(0.10, 0.16)
        n = int(round(dur * dsp.SAMPLE_RATE))
        seg = synth_toy_phone(p, n, f0, rng)
        if p not in TOY_STOPS:  # stop bursts carry their own ramp
            seg = _edge_ramp(seg.copy(), int(0.005 * dsp.SAMPLE_RATE))
        segs.append(seg)
        spans.append((pos, pos + n, p))
        pos += n
    samples = np.concatenate(segs) if segs else np.zeros(0)
    w = dsp.normalize(dsp.Waveform(samples))

    labels = []
    if len(w) >= dsp.WINDOW_LEN:
        for f in range(dsp.frame_count(len(w))):
            center = f * dsp.HOP + dsp.WINDOW_LEN // 2
            for lo, hi, p in spans:
                if lo <= center < hi:
                    labels.append(p)
                    break
            else:
                labels.append(spans[-1][2])
    return w, labels


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
    """Write a toy corpus (clean audio, transcripts, frame labels)."""
    out = Path(out_dir)
    rng = np.random.default_rng(seed)
    utt_ids = []
    for i in range(n_utts):
        utt = f"utt{i:04d}"
        phones = random_phone_sequence(rng)
        w, labels = synth_toy_utterance(phones, seed=int(rng.integers(0, 2**31 - 1)))
        dsp.write_wav(out / "clean" / f"{utt}.wav", w)
        (out / "transcripts").mkdir(parents=True, exist_ok=True)
        (out / "transcripts" / f"{utt}.txt").write_text(" ".join(phones), "utf-8")
        (out / "labels").mkdir(parents=True, exist_ok=True)
        (out / "labels" / f"{utt}.json").write_text(json.dumps(labels, ensure_ascii=False), "utf-8")
        utt_ids.append(utt)
    return utt_ids


def _corpus_utts(corpus_dir) -> list:
    clean = Path(corpus_dir) / "clean"
    if not clean.is_dir():
        raise ValueError(f"no clean/ directory under {corpus_dir}")
    return sorted(p.stem for p in clean.glob("*.wav"))


def mix_corpus(corpus_dir, snr_list, seed: int, noise_dir=None) -> dict:
    """Mix every clean utterance with noise at an SNR drawn from snr_list."""
    if len(snr_list) == 0:
        raise ValueError("snr_list is empty")
    corpus_dir = Path(corpus_dir)
    rng = np.random.default_rng(seed)
    noise_files = sorted(Path(noise_dir).glob("*.wav")) if noise_dir else None
    if noise_files == []:
        raise ValueError(f"no .wav files in noise dir {noise_dir}")
    meta = {}
    for utt in _corpus_utts(corpus_dir):
        clean = dsp.read_wav(corpus_dir / "clean" / f"{utt}.wav")
        if noise_files:
            noise = dsp.read_wav(noise_files[int(rng.integers(0, len(noise_files)))])
        else:
            kind = ("white", "pink", "tonal")[int(rng.integers(0, 3))]
            noise = make_noise(kind, len(clean), rng)
        snr = float(snr_list[int(rng.integers(0, len(snr_list)))])
        mixed = dsp.normalize(mix_at_snr(clean, noise, snr, rng))
        dsp.write_wav(corpus_dir / "distorted" / f"{utt}.wav", mixed)
        meta[utt] = snr
    (corpus_dir / "mix_meta.json").write_text(json.dumps(meta, sort_keys=True), "utf-8")
    return meta


def reverb_corpus(corpus_dir, t60_list, seed: int, room: RoomSpec | None = None) -> dict:
    """Convolve distorted (or clean, if un-mixed) utterances with room responses."""
    if len(t60_list) == 0:
        raise ValueError("t60_list is empty")
    corpus_dir = Path(corpus_dir)
    rng = np.random.default_rng(seed)
    room = room or RoomSpec()
    rirs = {}
    meta = {}
    for utt in _corpus_utts(corpus_dir):
        src = corpus_dir / "distorted" / f"{utt}.wav"
        if not src.exists():
            src = corpus_dir / "clean" / f"{utt}.wav"
        w = dsp.read_wav(src)
        t60 = float(t60_list[int(rng.integers(0, len(t60_list)))])
        if t60 not in rirs:
            spec = RoomSpec(room.room_dims_m, room.source_m, room.receiver_m, t60, room.rir_len_samples)
            rirs[t60] = generate_rir(spec)
        out = apply_rir(w, rirs[t60])
        dsp.write_wav(corpus_dir / "distorted" / f"{utt}.wav", out)
        meta[utt] = t60
    return meta


def build_manifest(corpus_dir, scheme: bpc.BpcScheme, seed: int | None = None) -> Manifest:
    """Scan a corpus directory into a manifest, deriving BPC transcripts.

    Requires clean/distorted/transcript triples for every utterance and
    fails naming the utt_id of any incomplete pair.
    """
    corpus_dir = Path(corpus_dir)
    snr_meta = {}
    meta_path = corpus_dir / "mix_meta.json"
    if meta_path.exists():
        snr_meta = json.loads(meta_path.read_text("utf-8"))
    entries = []
    for utt in _corpus_utts(corpus_dir):
        missing = [
            str(rel)
            for rel in (Path("distorted") / f"{utt}.wav", Path("transcripts") / f"{utt}.txt")
            if not (corpus_dir / rel).exists()
        ]
        if missing:
            raise ValueError(f"utterance {utt!r} is missing {', '.join(missing)}")
        phones = (corpus_dir / "transcripts" / f"{utt}.txt").read_text("utf-8").split()
        labels = bpc.transcript_to_bpc(phones, scheme)
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
    return Manifest(entries, scheme_name=scheme.name, seed=seed, base_dir=corpus_dir)
