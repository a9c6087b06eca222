"""Tests of the benchmark itself: tiny-config smoke runs and loud output checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import workloads  # noqa: E402
from bpcse import dsp  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
LAYERS = {
    "train_joint": ("diffcore.backward_ms", "diffcore.graph_nodes", "diffcore.adam_step_ms",
                    "diffcore.bridge_ms", "asr_model.encode_ms", "asr_model.asr_loss_ms",
                    "se_model.forward_ms"),
    "enhance": ("se_model.enhance_ms.short", "se_model.enhance_ms.long", "dsp.analysis_ms",
                "dsp.synthesis_ms"),
    "prepare": ("dsp.read_wav_ms", "dsp.stft_ms", "dsp.mel_filterbank_ms", "corpus.synth_corpus_ms",
                "corpus.mix_corpus_ms", "corpus.reverb_corpus_ms", "corpus.build_manifest_ms",
                "bpc.cluster_confusion_ms"),
}


def tiny(name, tmp_path):
    return workloads.make(name, workloads.TINY, 3, tmp_path / "work")


def record(w):
    out = harness.measure(w, 0.0, harness.NO_TRACE, None, setup_repeats=1, setup_min_s=0.0, min_episodes=1)
    assert out.failed == 0, out.problems
    return out.observed


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_runs_checks_and_traces(name, tmp_path):
    w = tiny(name, tmp_path)
    reference = record(w)
    assert len(reference) == w.units_per_episode
    tracer = harness.Tracer(True)
    out = harness.measure(w, 0.0, tracer, reference, setup_repeats=2, setup_min_s=0.0)
    assert (out.attempted, out.failed) == (2 * w.units_per_episode, 0), out.problems
    summary = harness.summarize(out, w.utts_per_episode, w.audio_s_per_episode)
    for key in ("utt_per_s", "audio_s_per_s", "latency_p50_ms", "setup_s"):
        assert summary[key] > 0
    layers = tracer.layer_metrics(SPEC["per_layer"])
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert {k for k, v in layers.items() if v > 0} == set(LAYERS[name])
    assert not any((tmp_path / "work").glob("*"))


def test_every_per_layer_metric_is_measured_by_some_workload():
    assert {m for names in LAYERS.values() for m in names} == {m["name"] for m in SPEC["per_layer"]}


def _scaled_waveform(w, i, result):
    return dsp.Waveform(result.samples * (1.0 + 1e-6))


def _shifted_loss(w, i, result):
    return result * (1.0 + 1e-7)


def _resorted_manifest(w, i, result):
    doc = json.loads(result.manifest_json)
    doc["entries"].reverse()
    result.manifest_json = json.dumps(doc)
    return result


@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        ("train_joint", _shifted_loss, "differs from the reference"),
        ("enhance", _scaled_waveform, "differs from the reference"),
        ("prepare", _resorted_manifest, "manifest JSON differs"),
    ],
)
def test_corrupted_output_fails_every_unit(name, corrupt, message, tmp_path, monkeypatch):
    w = tiny(name, tmp_path)
    reference = record(w)
    run_unit = w.run_unit
    monkeypatch.setattr(w, "run_unit", lambda state, i, tracer: corrupt(w, i, run_unit(state, i, tracer)))
    out = harness.measure(w, 0.0, harness.NO_TRACE, reference, setup_repeats=1, setup_min_s=0.0)
    assert out.failed == out.attempted == 2 * w.units_per_episode
    assert all(message in p for p in out.problems)


def test_enhance_output_of_wrong_length_fails(tmp_path, monkeypatch):
    w = tiny("enhance", tmp_path)
    reference = record(w)
    run_unit = w.run_unit
    monkeypatch.setattr(w, "run_unit", lambda s, i, t: dsp.Waveform(run_unit(s, i, t).samples[:-1]))
    out = harness.measure(w, 0.0, harness.NO_TRACE, reference, setup_repeats=1, setup_min_s=0.0)
    assert out.failed == out.attempted
    assert "samples, input has" in out.problems[0]


def test_unit_that_raises_counts_as_failed(tmp_path, monkeypatch):
    w = tiny("enhance", tmp_path)
    reference = record(w)
    run_unit = w.run_unit
    longest = max(range(len(w.items)), key=lambda i: len(w.items[i]))  # set-up warms up on the shortest

    def flaky(state, i, tracer):
        if i == longest:
            raise FloatingPointError("boom")
        return run_unit(state, i, tracer)

    monkeypatch.setattr(w, "run_unit", flaky)
    out = harness.measure(w, 0.0, harness.NO_TRACE, reference, setup_repeats=1, setup_min_s=0.0)
    assert (out.attempted, out.failed) == (4, 2)
    assert "FloatingPointError: boom" in out.problems[0]
    summary = harness.summarize(out, w.utts_per_episode, w.audio_s_per_episode)
    assert summary["utt_per_s"] is summary["latency_p50_ms"] is None
    assert summary["setup_s"] > 0


def test_run_whose_set_up_raises_prints_an_incorrect_result(tmp_path, monkeypatch, capsys):
    import run

    def broken(self):
        raise FloatingPointError("boom")

    monkeypatch.setattr(workloads.Enhance, "setup", broken)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "enhance", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert result["metrics"]["utt_per_s"]["value"] is None
    assert result["metrics"]["setup_s"]["value"] is None
    assert result["metrics"]["peak_rss_mb"]["value"] > 0
    record = json.loads((tmp_path / "enhance-seed1-trace0.json").read_text("utf-8"))
    assert "FloatingPointError: boom" in record["problems"][0]


def test_fbank_bridge_matches_dsp_on_clean_speech(tmp_path):
    w = tiny("train_joint", tmp_path)
    assert [item.bridge_problem for item in w.items] == [None] * len(w.items)


def test_inputs_depend_only_on_the_slot(tmp_path):
    a, b, c = (workloads.Enhance(workloads.TINY, s) for s in (5, 5, 6))
    assert all(np.array_equal(x.samples, y.samples) for x, y in zip(a.items, b.items))
    assert not all(np.array_equal(x.samples, y.samples) for x, y in zip(a.items, c.items))
    assert sorted(len(x) for x in a.items) == [workloads.samples_for(f) for f in workloads.TINY.enhance_frames]


def _busy(seconds):
    end = harness.CLOCK() + seconds
    while harness.CLOCK() < end:
        pass


def test_self_time_subtracts_children():
    tr = harness.Tracer(True)
    with tr.span("outer"):
        _busy(0.02)
        with tr.span("inner"):
            _busy(0.1)
    inner, outer = tr.layer_metrics([{"name": "inner_ms", "unit": "ms"}, {"name": "outer_ms", "unit": "ms"}]).values()
    assert inner >= 100 and 20 <= outer < 100
    assert tr.dump()["spans"][1]["parent"] == 0


def test_timed_divides_cpu_time_by_host_slowness():
    _, scaled, slowness = harness.timed(lambda: _busy(0.05))
    assert slowness > 0
    assert 0.05 <= scaled * slowness < 0.06


def test_tail_latency_needs_ten_samples_beyond():
    assert harness.tail_latency(list(range(19))) == (None, None)
    assert harness.tail_latency(list(range(1, 41))) == (75.0, 30)
    assert harness.tail_latency(list(range(1, 101))) == (90.0, 90)


def test_references_cover_every_slot_and_unit():
    refs = json.loads((BENCH_DIR / "references.json").read_text("utf-8"))
    units = {"train_joint": len(workloads.PAPER.train_frames),
             "enhance": len(workloads.PAPER.enhance_frames), "prepare": 1}
    for name, n in units.items():
        assert sorted(refs[name], key=int) == [str(s) for s in range(workloads.REFERENCE_SLOTS)]
        assert all(len(v) == n for v in refs[name].values())


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enhance", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
