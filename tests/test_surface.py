"""The public surface, listed in full: a new export, option or default has to
change this file in the same diff."""

import argparse
import inspect
import types

import alaskit
from alaskit import cli

PUBLIC_NAMES = [
    "AnalysisParams", "EvalReport", "FeatureTrack", "RefinerModel", "Waveform",
    "apply_refiner", "emit_spectrogram_image", "estimate_f0", "excitation_spectrum",
    "extract_features", "extract_las", "f0_rmse_cent", "filter_spectrum", "fit_refiner",
    "frame_signal", "griffin_lim", "hann_window", "las_rmse_db", "load_refiner", "mcd_v_db",
    "mcep_analysis", "read_feature_file", "read_las_file", "read_wav", "recover_alas",
    "save_refiner", "snr_db", "vuv_error_pct", "warp_cepstrum", "write_feature_file",
    "write_las_file", "write_wav",
]

# per public name: each parameter that has a default, and the default
DEFAULTS = {
    "AnalysisParams": {"sample_rate": 16000, "frame_len": 320, "frame_shift": 80,
                       "fft_size": 512, "warp_alpha": 0.42, "log_floor": 1e-10},
    "EvalReport": {"snr_db": None, "las_rmse_db": None, "mcd_v_db": None,
                   "f0_rmse_cent": None, "vuv_error_pct": None},
    "griffin_lim": {"iters": 60, "momentum": 0.99},
}

# per subcommand: each argument (positional name, or its option strings) and its default
COMMANDS = {
    "analyze": {"input": None, "-o --output": None, "--las": None, "--frame-shift": 80},
    "recover": {"input": None, "-o --output": None},
    "refine-fit": {"manifest": None, "-o --output": None},
    "refine-apply": {"model": None, "input": None, "-o --output": None},
    "evaluate": {"--ref": None, "--test": None, "--wav": None, "--las": None, "--feat": None,
                 "-o --output": None},
    "resynth": {"input": None, "-o --output": None, "--iters": 60},
    "plot": {"input": None, "-o --output": None},
}


def test_public_surface():
    names = sorted(name for name, value in vars(alaskit).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = {
        name: {" ".join(a.option_strings) or a.dest: a.default
               for a in command._actions if not isinstance(a, argparse._HelpAction)}
        for name, command in sub.choices.items()
    }
    assert commands == COMMANDS


def test_library_defaults():
    defaults = {}
    for name in PUBLIC_NAMES:
        parameters = inspect.signature(getattr(alaskit, name)).parameters.values()
        pinned = {p.name: p.default for p in parameters if p.default is not p.empty}
        if pinned:
            defaults[name] = pinned
    assert defaults == DEFAULTS
