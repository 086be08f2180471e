"""Command-line pipeline: analyze, recover, refine, evaluate, resynth, plot.

Exit codes: 0 on success, 1 for usage errors, 2 for data or format errors.
File headers supply frame shift and sample rate; explicit flags and every
input's header must agree.
"""

import argparse
import sys

from . import alas, dsp, features, io, metrics, refine


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_PARAM_FLAGS = (  # analysis flag, AnalysisParams field, type
    ("sample-rate", "sample_rate", int),
    ("frame-len", "frame_len", int),
    ("frame-shift", "frame_shift", int),
    ("fft-size", "fft_size", int),
    ("alpha", "warp_alpha", float),
    ("log-floor", "log_floor", float),
)


def _add_param_flags(parser):
    group = parser.add_argument_group("analysis parameters")
    for flag, field, kind in _PARAM_FLAGS:
        group.add_argument(f"--{flag}", dest=field, type=kind, default=None)


def _agreed(args, *headers) -> dict:
    """AnalysisParams fields set by the analysis flags in ``args`` (if any) and
    by each input's (path, frame shift, sample rate) header, None where unset;
    two sources giving one field different values are rejected, naming both."""
    claims = [(f"--{flag}", field, vars(args).get(field)) for flag, field, _ in _PARAM_FLAGS]
    for path, frame_shift, sample_rate in headers:
        claims += [(path, "frame_shift", frame_shift), (path, "sample_rate", sample_rate)]
    agreed = {}
    for source, field, value in claims:
        if value is None:
            continue
        first_source, first = agreed.setdefault(field, (source, value))
        if source != first_source and value != first:
            raise ValueError(f"{field.replace('_', ' ')} mismatch: {first} from {first_source}, "
                             f"{value} from {source}")
    return {field: value for field, (_, value) in agreed.items()}


def _resolve_params(args, *headers) -> dsp.AnalysisParams:
    """AnalysisParams from _agreed(args, *headers), other fields at their defaults."""
    return dsp.AnalysisParams(**_agreed(args, *headers))


def _cmd_analyze(args):
    wave = io.read_wav(args.input)
    params = _resolve_params(args, (args.input, None, wave.sample_rate))
    las = dsp.extract_las(wave, params)
    io.write_feature_file(args.output, features._track_from_las(wave, las, params))
    if args.las:
        io.write_las_file(args.las, las, params.frame_shift, params.sample_rate)
    return 0


def _cmd_recover(args):
    track = io.read_feature_file(args.input)
    params = _resolve_params(args, (args.input, track.frame_shift, track.sample_rate))
    recovered = alas.recover_alas(track, params)
    io.write_las_file(args.output, recovered, params.frame_shift, params.sample_rate)
    return 0


def _cmd_refine_fit(args):
    pairs, headers = [], []
    with open(args.manifest, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{args.manifest}:{line_no}: expected '<alas>\\t<las>'")
            (alas, *alas_geometry), (las, *las_geometry) = map(io.read_las_file, parts)
            headers += [(parts[0], *alas_geometry), (parts[1], *las_geometry)]
            pairs.append((alas, las))
    _agreed(args, *headers)
    model = refine.fit_refiner(pairs, context_radius=args.context_radius)
    refine.save_refiner(model, args.output)
    return 0


def _cmd_refine_apply(args):
    model = refine.load_refiner(args.model)
    las, frame_shift, sample_rate = io.read_las_file(args.input)
    io.write_las_file(args.output, refine.apply_refiner(model, las), frame_shift, sample_rate)
    return 0


def _cmd_evaluate(args):
    mode = args.mode or _infer_mode(args.ref)
    if mode == "wav":
        ref_wave = io.read_wav(args.ref)
        test_wave = io.read_wav(args.test)
        params = _resolve_params(args, (args.ref, None, ref_wave.sample_rate),
                                 (args.test, None, test_wave.sample_rate))
        ref_las = dsp.extract_las(ref_wave, params)
        test_las = dsp.extract_las(test_wave, params)
        ref_track = features._track_from_las(ref_wave, ref_las, params)
        test_track = features._track_from_las(test_wave, test_las, params)
        report = metrics.EvalReport(
            frames_compared=min(ref_las.shape[0], test_las.shape[0]),
            snr_db=metrics.snr_db(ref_wave, test_wave),
            las_rmse_db=metrics.las_rmse_db(ref_las, test_las),
            mcd_v_db=metrics.mcd_v_db(ref_track, test_track),
            f0_rmse_cent=metrics.f0_rmse_cent(ref_track, test_track),
            vuv_error_pct=metrics.vuv_error_pct(ref_track, test_track),
        )
    elif mode == "las":
        ref_las, *ref_geometry = io.read_las_file(args.ref)
        test_las, *test_geometry = io.read_las_file(args.test)
        _resolve_params(args, (args.ref, *ref_geometry), (args.test, *test_geometry))
        report = metrics.EvalReport(
            frames_compared=min(ref_las.shape[0], test_las.shape[0]),
            las_rmse_db=metrics.las_rmse_db(ref_las, test_las),
        )
    else:
        ref_track = io.read_feature_file(args.ref)
        test_track = io.read_feature_file(args.test)
        _resolve_params(args, (args.ref, ref_track.frame_shift, ref_track.sample_rate),
                        (args.test, test_track.frame_shift, test_track.sample_rate))
        report = metrics.EvalReport(
            frames_compared=min(len(ref_track), len(test_track)),
            mcd_v_db=metrics.mcd_v_db(ref_track, test_track),
            f0_rmse_cent=metrics.f0_rmse_cent(ref_track, test_track),
            vuv_error_pct=metrics.vuv_error_pct(ref_track, test_track),
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.text())
    sys.stdout.write(report.block())
    return 0


def _infer_mode(path) -> str:
    name = str(path).lower()
    if name.endswith(".wav"):
        return "wav"
    if name.endswith(".lask"):
        return "las"
    if name.endswith(".aftk"):
        return "feat"
    raise ValueError(f"cannot infer input kind of {path}; pass --wav, --las or --feat")


def _cmd_resynth(args):
    las, *geometry = io.read_las_file(args.input)
    params = _resolve_params(args, (args.input, *geometry))
    wave = dsp.griffin_lim(las, params, iters=args.iters)
    io.write_wav(args.output, wave)
    return 0


def _cmd_plot(args):
    las = io.read_las_file(args.input)[0]
    io.emit_spectrogram_image(las, args.output)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="alaskit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="extract acoustic features (and optionally LAS) from a WAV")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--las", default=None, help="also write the natural LAS here")
    _add_param_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("recover", help="recover approximate LAS from a feature file")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    _add_param_flags(p)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("refine-fit", help="fit a per-bin refiner from a pairs manifest")
    p.add_argument("manifest")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--context-radius", type=int, default=0)
    p.set_defaults(func=_cmd_refine_fit)

    p = sub.add_parser("refine-apply", help="apply a fitted refiner to a LAS file")
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_refine_apply)

    p = sub.add_parser("evaluate", help="objective metrics between a reference and a test input")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--wav", dest="mode", action="store_const", const="wav")
    kind.add_argument("--las", dest="mode", action="store_const", const="las")
    kind.add_argument("--feat", dest="mode", action="store_const", const="feat")
    p.add_argument("-o", "--output", default=None)
    _add_param_flags(p)
    p.set_defaults(func=_cmd_evaluate, mode=None)

    p = sub.add_parser("resynth", help="Griffin-Lim resynthesis of a LAS file to WAV")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--iters", type=int, default=60)
    _add_param_flags(p)
    p.set_defaults(func=_cmd_resynth)

    p = sub.add_parser("plot", help="write a PGM spectrogram of a LAS file")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"alaskit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
