"""The benchmark's workloads: seeded inputs, set-up, timed units and output checks.

Each workload drives the public functions of the ``bpcse`` modules from
outside and wraps every layer call it times in a tracer span named after the
module and function (``se_model.forward``, ``dsp.stft``, ...).

Inputs come from one of ``REFERENCE_SLOTS`` recorded input sets, picked by the
run's seed, so that every seed's outputs are checked against a reference
recorded in ``references.json`` (see ``record_references.py``).
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bpcse import asr_model, bpc, corpus, dsp, se_model
from bpcse import diffcore as dc
from harness import NO_TRACE

REFERENCE_SLOTS = 16
SE_SEED = 0
ASR_SEED = 1
LEARNING_RATE = 1e-4
ALPHA = 0.1  # weight of the recognizer loss in L1 + alpha * L_asr
CTC_WEIGHT = 0.5  # lambda of the CTC/attention recognizer loss
SNRS_DB = (0.0, 5.0, 10.0)
T60S_S = (0.3, 0.5, 0.7)
# Float64 results may differ in the last bits with the BLAS build and thread
# count; these tolerances allow that and nothing more.
LOSS_RTOL = 1e-9
BRIDGE_ATOL = 1e-12
WAVE_RTOL = 1e-9
FEATURE_RTOL = 1e-6  # PCM16 rounding of the written corpus can flip a last bit
WAVE_SEGMENTS = 16


@dataclass(frozen=True)
class Scale:
    """Model and input sizes; ``PAPER`` is what the benchmark runs, ``TINY`` what its tests run."""

    se: se_model.SeConfig
    asr: dict  # AsrConfig fields other than the vocabulary
    train_frames: tuple  # one training step per entry, per episode
    enhance_frames: tuple  # one enhanced utterance per entry, per episode
    short_max_frames: int  # enhance inputs up to this length are "short"
    prepare_utts: int
    cluster_phones: int  # leading phones of the core IPA inventory to cluster
    cluster_k: int


PAPER = Scale(
    se=se_model.SeConfig(),
    asr={},
    train_frames=(92, 134, 176, 218),  # 1.5 to 3.5 s
    enhance_frames=(94, 156, 250, 375, 500, 625),  # 1.5 to 10 s
    short_max_frames=250,
    prepare_utts=16,
    cluster_phones=87,
    cluster_k=9,
)
TINY = Scale(
    se=se_model.SeConfig(conv_layers=1, attention_blocks=1, d_model=16, heads=2),
    asr=dict(encoder_hidden=8, proj_dim=16, embed_dim=8),
    train_frames=(24, 32),
    enhance_frames=(24, 40),
    short_max_frames=24,
    prepare_utts=2,
    cluster_phones=12,
    cluster_k=3,
)


def samples_for(frames: int) -> int:
    """Signal length whose STFT has exactly ``frames`` frames and no leftover samples."""
    return (frames - 1) * dsp.HOP + dsp.WINDOW_LEN


def _utterance(rng, frames: int):
    """A toy clean utterance cut to ``frames`` STFT frames, with its per-frame phones."""
    n = samples_for(frames)
    # a consonant-vowel group lasts at least 0.16 s, so this many always cover n samples
    groups = math.ceil(n / dsp.SAMPLE_RATE / 0.16) + 1
    phones = corpus.random_phone_sequence(rng, groups, groups)
    w, labels = corpus.synth_toy_utterance(phones, seed=int(rng.integers(2**31 - 1)))
    return dsp.Waveform(w.samples[:n]), labels[:frames]


def _noisy(rng, clean: dsp.Waveform) -> dsp.Waveform:
    kind = ("white", "pink", "tonal")[int(rng.integers(3))]
    snr = SNRS_DB[int(rng.integers(len(SNRS_DB)))]
    return corpus.mix_at_snr(clean, corpus.make_noise(kind, len(clean), rng), snr)


def fbank_bridge(log1p_frames: dc.Tensor, mel_t: dc.Tensor) -> dc.Tensor:
    """Differentiable log-mel fbank of a log1p magnitude spectrum, built from diffcore ops.

    expm1 -> square -> matmul with ``dsp.mel_matrix().T`` -> + FBANK_FLOOR -> log,
    which is what ``dsp.mel_filterbank`` computes on the magnitude.
    """
    mag = dc.expm1(log1p_frames)
    return dc.log(dc.matmul(mag * mag, mel_t) + dsp.FBANK_FLOOR)


def graph_nodes(root: dc.Tensor) -> int:
    """Number of nodes reachable from ``root`` through ``Tensor._parents`` (read only)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _shortest(items, length) -> int:
    """Index of the shortest input, which set-up warms up on so its cost is the same for every seed."""
    return min(range(len(items)), key=lambda i: length(items[i]))


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= rtol * abs(want) + atol


# ---------------------------------------------------------------------------
# train_joint


@dataclass
class _TrainItem:
    noisy: np.ndarray  # (T, 257) log1p
    clean: np.ndarray  # (T, 257) log1p
    labels: list  # BPC label ids
    bridge_problem: str | None


@dataclass
class _TrainState:
    se: se_model.SeModel
    asr: asr_model.AsrModel
    initial: dict
    mel_t: dc.Tensor
    opt: dc.Adam | None = None


class TrainJoint:
    """Stage two of the paper: SE trained on L1 + alpha * L_asr through a frozen recognizer."""

    name = "train_joint"
    unit_span = "train.step"
    calibrate_fractions = False

    def __init__(self, scale: Scale, slot: int):
        self.scale = scale
        rng = np.random.default_rng([slot, 1])
        self.scheme = bpc.manner_scheme(corpus.toy_inventory())
        self.asr_cfg = asr_model.AsrConfig(vocab=asr_model.make_vocab(self.scheme.classes), **scale.asr)
        index = {s: i for i, s in enumerate(self.asr_cfg.vocab)}
        mel_t = dc.Tensor(dsp.mel_matrix().T)
        self.items = []
        for frames in rng.permutation(scale.train_frames):
            clean, phones = _utterance(rng, int(frames))
            clean_mag = dsp.magnitude(dsp.stft(clean))
            clean_log1p = dsp.log1p_compress(clean_mag).frames
            # the bridge on the clean spectrum must give dsp's own fbank
            bridged = fbank_bridge(dc.Tensor(clean_log1p), mel_t).data
            err = float(np.max(np.abs(bridged - dsp.mel_filterbank(clean_mag).frames)))
            problem = None if err <= BRIDGE_ATOL else f"fbank bridge differs from dsp.mel_filterbank by {err:.3g}"
            labels = [index[c] for c in bpc.transcript_to_bpc(phones, self.scheme)]
            noisy = dsp.log1p_compress(dsp.magnitude(dsp.stft(_noisy(rng, clean)))).frames
            self.items.append(_TrainItem(noisy, clean_log1p, labels, problem))
        self.units_per_episode = self.utts_per_episode = len(self.items)
        self.audio_s_per_episode = sum(samples_for(f) for f in scale.train_frames) / dsp.SAMPLE_RATE

    def setup(self) -> _TrainState:
        se = se_model.SeModel(self.scale.se, seed=SE_SEED)
        asr = asr_model.AsrModel(self.asr_cfg, seed=ASR_SEED)
        asr.freeze()
        initial = {n: p.data.copy() for n, p in se.params.items()}
        state = _TrainState(se, asr, initial, dc.Tensor(dsp.mel_matrix().T))
        self.start_episode(state)
        self.run_unit(state, _shortest(self.items, lambda it: len(it.noisy)), NO_TRACE)
        return state

    def start_episode(self, state: _TrainState) -> None:
        for n, p in state.se.params.items():
            np.copyto(p.data, state.initial[n])
        state.opt = dc.Adam(state.se.params, lr=LEARNING_RATE)

    def run_unit(self, state: _TrainState, i: int, tracer) -> float:
        item = self.items[i]
        state.opt.zero_grad()
        for p in state.asr.params.values():  # frozen parameters still accumulate .grad
            p.grad = None
        with tracer.span("se_model.forward"):
            enhanced = state.se.forward(dc.Tensor(item.noisy))
        l1 = se_model.se_loss(enhanced, item.clean)
        with tracer.span("diffcore.bridge"):
            fbank = fbank_bridge(enhanced, state.mel_t)
        with tracer.span("asr_model.encode"):
            hidden = state.asr.encode(fbank)
        with tracer.span("asr_model.asr_loss"):
            l_asr = state.asr.asr_loss(hidden, item.labels, lam=CTC_WEIGHT)
        loss = l1 + ALPHA * l_asr
        with tracer.span("diffcore.backward"):
            loss.backward()
        with tracer.span("diffcore.adam_step"):
            state.opt.step()
        if tracer.enabled:
            tracer.count("diffcore.graph_nodes", graph_nodes(loss))
        return loss.item()

    def observe(self, loss: float) -> float:
        return loss

    def check(self, i: int, loss: float, expected: float) -> list:
        problems = []
        if not math.isfinite(loss):
            problems.append(f"step loss {loss} is not finite")
        elif not _close(loss, expected, LOSS_RTOL):
            problems.append(f"step loss {loss!r} differs from the reference {expected!r}")
        if self.items[i].bridge_problem:
            problems.append(self.items[i].bridge_problem)
        return problems


# ---------------------------------------------------------------------------
# enhance


def wave_fingerprint(w: dsp.Waveform) -> dict:
    """Length plus the sum and the sum of squares of each of WAVE_SEGMENTS equal segments."""
    segs = np.array_split(w.samples, WAVE_SEGMENTS)
    return {"samples": len(w), "segments": [[float(s.sum()), float(s @ s)] for s in segs]}


class Enhance:
    """Inference only: noisy waveform -> log1p features -> SE -> waveform with the noisy phase."""

    name = "enhance"
    unit_span = "enhance.utterance"
    calibrate_fractions = False

    def __init__(self, scale: Scale, slot: int):
        self.scale = scale
        rng = np.random.default_rng([slot, 2])
        self.items = []
        for frames in rng.permutation(scale.enhance_frames):
            clean, _ = _utterance(rng, int(frames))
            self.items.append(_noisy(rng, clean))
        self.units_per_episode = self.utts_per_episode = len(self.items)
        self.audio_s_per_episode = sum(samples_for(f) for f in scale.enhance_frames) / dsp.SAMPLE_RATE

    def setup(self) -> se_model.SeModel:
        se = se_model.SeModel(self.scale.se, seed=SE_SEED)
        self.run_unit(se, _shortest(self.items, len), NO_TRACE)
        return se

    def start_episode(self, se: se_model.SeModel) -> None:
        pass

    def run_unit(self, se: se_model.SeModel, i: int, tracer) -> dsp.Waveform:
        noisy = self.items[i]
        with tracer.span("dsp.analysis"):
            spec = dsp.stft(noisy)
            feats = dsp.log1p_compress(dsp.magnitude(spec))
        bucket = "short" if spec.num_frames <= self.scale.short_max_frames else "long"
        with tracer.span(f"se_model.enhance.{bucket}"):
            out = se.enhance(feats)
        with tracer.span("dsp.synthesis"):
            return dsp.istft(dsp.combine_with_phase(dsp.expm1_decompress(out), spec))

    def observe(self, w: dsp.Waveform) -> dict:
        return wave_fingerprint(w)

    def check(self, i: int, got: dict, expected: dict) -> list:
        n_in = len(self.items[i])
        if got["samples"] != n_in:
            return [f"output has {got['samples']} samples, input has {n_in}"]
        for k, ((s, ss), (rs, rss)) in enumerate(zip(got["segments"], expected["segments"])):
            scale = math.sqrt(rss * n_in / WAVE_SEGMENTS)
            if not (_close(s, rs, 0.0, WAVE_RTOL * scale) and _close(ss, rss, WAVE_RTOL)):
                return [f"output segment {k} (sum {s!r}, energy {ss!r}) differs from "
                        f"the reference (sum {rs!r}, energy {rss!r})"]
        return []


# ---------------------------------------------------------------------------
# prepare


def confusion_matrix(rng, n_phones: int) -> bpc.ConfusionMatrix:
    """A recognizer-like confusion matrix over the leading core IPA phones.

    Diagonal-dominant, with frequent confusions inside a manner class and
    rare ones across classes.
    """
    phones = bpc.full_ipa_inventory().phones[:n_phones]
    manner = bpc.manner_scheme(bpc.PhoneInventory(phones)).mapping
    cls = np.array([manner[p] for p in phones])
    same = cls[:, None] == cls[None, :]
    within = rng.integers(0, 40, (n_phones, n_phones))
    across = rng.integers(0, 4, (n_phones, n_phones)) * (rng.random((n_phones, n_phones)) < 0.1)
    counts = np.where(same, within, across)
    np.fill_diagonal(counts, rng.integers(300, 600, n_phones))
    return bpc.ConfusionMatrix(phones, counts)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class _PrepareResult:
    manifest_json: str
    scheme_json: str
    fbank_means: list
    log1p_means: list
    audio_s: float
    feature_problems: list = field(default_factory=list)


class Prepare:
    """The corpus directory pipeline on a fresh temporary directory, then one clustering."""

    name = "prepare"
    unit_span = "prepare.corpus"
    calibrate_fractions = True  # bpc.cluster_confusion is three quarters of a unit

    def __init__(self, scale: Scale, slot: int, work_dir: Path):
        self.scale = scale
        self.work_dir = Path(work_dir)
        rng = np.random.default_rng([slot, 3])
        self.seeds = tuple(int(s) for s in rng.integers(2**31 - 1, size=3))  # synth, mix, reverb
        self.confusion = confusion_matrix(rng, scale.cluster_phones)
        self.units_per_episode = 1
        self.utts_per_episode = scale.prepare_utts
        self.audio_s_per_episode = None  # known once the first unit has synthesized the corpus

    def setup(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        scheme = bpc.manner_scheme(corpus.toy_inventory())
        # warm-up: every stage once on a one-utterance corpus and a 12-phone
        # clustering, the same for every slot so that set-up does the same work
        warm = confusion_matrix(np.random.default_rng(0), 12)
        self._pipeline(scheme, 1, (0, 1, 2), warm, 3, NO_TRACE)
        return scheme

    def start_episode(self, state) -> None:
        pass

    def run_unit(self, scheme, i: int, tracer) -> _PrepareResult:
        result = self._pipeline(scheme, self.scale.prepare_utts, self.seeds, self.confusion,
                                self.scale.cluster_k, tracer)
        self.audio_s_per_episode = result.audio_s
        return result

    def _pipeline(self, scheme, n_utts, seeds, confusion, k, tracer) -> _PrepareResult:
        synth_seed, mix_seed, reverb_seed = seeds
        d = Path(tempfile.mkdtemp(prefix="corpus-", dir=self.work_dir))
        try:
            with tracer.span("corpus.synth_corpus"):
                corpus.synth_corpus(d, n_utts, synth_seed)
            with tracer.span("corpus.mix_corpus"):
                corpus.mix_corpus(d, SNRS_DB, mix_seed)
            with tracer.span("corpus.reverb_corpus"):
                corpus.reverb_corpus(d, T60S_S, reverb_seed)
            with tracer.span("corpus.build_manifest"):
                manifest = corpus.build_manifest(d, scheme, seed=synth_seed)
            sums = [0.0, 0.0]
            log1p_sums = [0.0, 0.0]
            frames = 0
            problems = []
            for e in manifest.entries:
                for side, rel in enumerate((e.clean_path, e.distorted_path)):
                    with tracer.span("dsp.read_wav"):
                        w = dsp.read_wav(d / rel)
                    with tracer.span("dsp.stft"):
                        spec = dsp.stft(w)
                    mag = dsp.magnitude(spec)
                    log1p_sums[side] += float(dsp.log1p_compress(mag).frames.sum())
                    with tracer.span("dsp.mel_filterbank"):
                        fb = dsp.mel_filterbank(mag)
                    if fb.frames.shape != (e.num_frames, dsp.N_MEL_FILTERS):
                        problems.append(f"{rel}: fbank shape {fb.frames.shape}, manifest says {e.num_frames} frames")
                    sums[side] += float(fb.frames.sum())
                frames += e.num_frames
            with tracer.span("bpc.cluster_confusion"):
                clusters = bpc.cluster_confusion(confusion, k)
        finally:
            shutil.rmtree(d)
        means = [s / (frames * dsp.N_MEL_FILTERS) for s in sums]
        log1p_means = [s / (frames * dsp.N_BINS) for s in log1p_sums]
        audio_s = sum(samples_for(e.num_frames) for e in manifest.entries) / dsp.SAMPLE_RATE
        return _PrepareResult(manifest.to_json(), clusters.to_json(), means, log1p_means, audio_s, problems)

    def observe(self, r: _PrepareResult) -> dict:
        return {
            "manifest_sha256": _sha(r.manifest_json),
            "clusters_sha256": _sha(r.scheme_json),
            "fbank_means": r.fbank_means,
            "log1p_means": r.log1p_means,
            "feature_problems": r.feature_problems,
        }

    def check(self, i: int, got: dict, expected: dict) -> list:
        problems = list(got["feature_problems"])
        if got["manifest_sha256"] != expected["manifest_sha256"]:
            problems.append("manifest JSON differs from the reference")
        if got["clusters_sha256"] != expected["clusters_sha256"]:
            problems.append("cluster_confusion mapping differs from the reference")
        for feature in ("fbank", "log1p"):
            for side, g, want in zip(("clean", "distorted"), got[f"{feature}_means"], expected[f"{feature}_means"]):
                if not _close(g, want, FEATURE_RTOL):
                    problems.append(f"mean {side} {feature} {g!r} differs from the reference {want!r}")
        return problems


WORKLOADS = ("train_joint", "enhance", "prepare")


def make(name: str, scale: Scale, slot: int, work_dir: Path):
    if name == "train_joint":
        return TrainJoint(scale, slot)
    if name == "enhance":
        return Enhance(scale, slot)
    if name == "prepare":
        return Prepare(scale, slot, work_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
