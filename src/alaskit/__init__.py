"""Recovery of approximate log amplitude spectra from acoustic features.

The pipeline: extract features (F0, voicing, energy, mel-cepstra) from
speech, rebuild amplitude spectra from those features through a
source-filter/STFT construction, optionally refine them against natural
spectra, and score the result with standard objective speech metrics.
"""

from .alas import (
    excitation_spectrum,
    filter_spectrum,
    recover_alas,
)
from .dsp import (
    AnalysisParams,
    Waveform,
    extract_las,
    frame_signal,
    griffin_lim,
    hann_window,
    warp_cepstrum,
)
from .features import (
    FeatureTrack,
    estimate_f0,
    extract_features,
    mcep_analysis,
)
from .io import (
    emit_spectrogram_image,
    read_feature_file,
    read_las_file,
    read_wav,
    write_feature_file,
    write_las_file,
    write_wav,
)
from .metrics import (
    EvalReport,
    f0_rmse_cent,
    las_rmse_db,
    mcd_v_db,
    snr_db,
    vuv_error_pct,
)
from .refine import (
    RefinerModel,
    apply_refiner,
    fit_refiner,
    load_refiner,
    save_refiner,
)

__version__ = "0.1.0"
