"""Speech enhancement guided by broad-phonetic-class recognition.

Modules:
    dsp       -- STFT/iSTFT, log1p compression, mel filterbank, WAV I/O
    corpus    -- toy utterance synthesis, SNR mixing, room reverberation, manifests
    bpc       -- phone inventories and broad-phonetic-class schemes
    diffcore  -- reverse-mode autodiff tensors, no_grad mode, fused attention,
                 LSTM and attention-decoder ops, Adam, checkpoints
    se_model  -- transformer encoder speech enhancement network
    asr_model -- BLSTM/CTC/attention broad-class recognizer

Runtime imports: ``numpy``, ``scipy.special`` (``expit`` in diffcore) and
``scipy.fft`` (``apply_rir``'s convolution in corpus). ``scipy.signal`` is
not among them: with the ``scipy.stats`` it loads, it is about 450 modules
and 48 MB of resident memory that every process would pay for one
``fftconvolve`` call, which ``apply_rir`` makes from ``scipy.fft`` directly.
Code that needs ``scipy.signal`` imports it inside the function that uses it.
"""

__version__ = "0.1.0"
