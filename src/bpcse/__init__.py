"""Speech enhancement guided by broad-phonetic-class recognition.

Modules:
    dsp       -- STFT/iSTFT, log1p compression, mel filterbank, WAV I/O
    corpus    -- toy utterance synthesis, SNR mixing, room reverberation, manifests
    bpc       -- phone inventories and broad-phonetic-class schemes
    diffcore  -- reverse-mode autodiff tensors, no_grad mode, fused attention
                 and LSTM ops, Adam, checkpoints
    se_model  -- transformer encoder speech enhancement network
    asr_model -- BLSTM/CTC/attention broad-class recognizer
"""

__version__ = "0.1.0"
