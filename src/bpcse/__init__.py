"""Speech enhancement guided by broad-phonetic-class recognition.

Modules:
    dsp       -- STFT/iSTFT, log1p compression, mel filterbank, WAV I/O
    corpus    -- toy utterance synthesis, SNR mixing, room reverberation, manifests
    bpc       -- phone inventories and broad-phonetic-class schemes
    diffcore  -- reverse-mode autodiff tensors, no_grad mode, every graph op:
                 fused transformer sublayer, BLSTM layer, attention-decoder
                 and CTC ops; Glorot init, Adam, checkpoints
    se_model  -- transformer encoder speech enhancement network
    asr_model -- BLSTM/CTC/attention broad-class recognizer

Runtime imports: ``numpy`` alone. ``scipy.fft`` and ``scipy.special`` each
load scipy's array-API layer with ``numpy.f2py``, ``numpy.testing`` and
``numpy.ma``: about 320 modules and 25 MB of resident memory that every
process would pay for. So ``diffcore`` computes its sigmoid in numpy and
``corpus.apply_rir`` convolves through ``np.fft``. scipy is a test
dependency only, so no module imports it, not even inside a function: a
runtime install has no scipy. What scipy would give (say
``scipy.signal.resample_poly`` for a STOI score) is written in numpy, and the
tests use scipy as its oracle.
"""

__version__ = "0.1.0"
