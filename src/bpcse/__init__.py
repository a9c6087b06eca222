"""Speech enhancement guided by broad-phonetic-class recognition.

Modules:
    dsp       -- STFT/iSTFT, log1p compression, mel filterbank, WAV I/O
    corpus    -- toy utterance synthesis, SNR mixing, room reverberation, manifests
    bpc       -- phone inventories and broad-phonetic-class schemes
    diffcore  -- reverse-mode autodiff tensors, no_grad mode, fused attention,
                 LSTM and attention-decoder ops, Adam, checkpoints
    se_model  -- transformer encoder speech enhancement network
    asr_model -- BLSTM/CTC/attention broad-class recognizer

Runtime imports: ``numpy`` alone. ``scipy.fft`` and ``scipy.special`` each
load scipy's array-API layer with ``numpy.f2py``, ``numpy.testing`` and
``numpy.ma``: about 320 modules and 25 MB of resident memory that every
process would pay for. So ``diffcore`` computes its sigmoid in numpy and
``corpus.apply_rir`` convolves through ``np.fft``. Code that needs scipy
(say ``scipy.signal.resample_poly`` for a STOI score) imports it inside the
function that uses it. The tests use scipy as their oracle.
"""

__version__ = "0.1.0"
