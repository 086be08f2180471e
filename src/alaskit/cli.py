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

# the commands that take the analysis flags and check them against their inputs' headers
_ANALYSIS_COMMANDS = ("analyze", "recover", "evaluate", "resynth")

# input kind by file extension: what _read reads, what evaluate infers and its kind flags
_KINDS = {".wav": "wav", ".lask": "las", ".aftk": "feat"}

# each metric (a function of metrics and an EvalReport field) by the input kind it compares
_METRICS = {"snr_db": "wav", "las_rmse_db": "las", "mcd_v_db": "feat",
            "f0_rmse_cent": "feat", "vuv_error_pct": "feat"}


def _read(path, kind):
    """The data of ``path`` read as ``kind`` (a _KINDS value) and its
    (path, frame shift, sample rate) header; a WAV stores no frame shift."""
    if kind == "wav":
        wave = io.read_wav(path)
        return wave, (path, None, wave.sample_rate)
    if kind == "las":
        las, frame_shift, sample_rate = io.read_las_file(path)
        return las, (path, frame_shift, sample_rate)
    track = io.read_feature_file(path)
    return track, (path, track.frame_shift, track.sample_rate)


def _kind(path) -> str:
    name = str(path).lower()
    for extension, kind in _KINDS.items():
        if name.endswith(extension):
            return kind
    raise ValueError(f"cannot infer input kind of {path}; pass --wav, --las or --feat")


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


def _analysis(params, *waves):
    """The LAS of each wave, then the feature track of each, taken from its LAS."""
    las = [dsp.extract_las(wave, params) for wave in waves]
    return las, [features._track_from_las(w, spectra, params) for w, spectra in zip(waves, las)]


def _cmd_analyze(args):
    wave, header = _read(args.input, "wav")
    params = _resolve_params(args, header)
    (las,), (track,) = _analysis(params, wave)
    io.write_feature_file(args.output, track)
    if args.las:
        io.write_las_file(args.las, las, params.frame_shift, params.sample_rate)
    return 0


def _cmd_recover(args):
    track, header = _read(args.input, "feat")
    params = _resolve_params(args, header)
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
            pair, pair_headers = zip(*(_read(part, "las") for part in parts))
            pairs.append(pair)
            headers += pair_headers
    _agreed(args, *headers)
    model = refine.fit_refiner(pairs, context_radius=args.context_radius)
    refine.save_refiner(model, args.output)
    return 0


def _cmd_refine_apply(args):
    model = refine.load_refiner(args.model)
    las, (_, frame_shift, sample_rate) = _read(args.input, "las")
    io.write_las_file(args.output, refine.apply_refiner(model, las), frame_shift, sample_rate)
    return 0


def _cmd_evaluate(args):
    kind = args.mode or _kind(args.ref)
    (ref, ref_header), (test, test_header) = _read(args.ref, kind), _read(args.test, kind)
    params = _resolve_params(args, ref_header, test_header)
    # (ref, test) per input kind; WAVs are analysed into the other two kinds
    pairs = dict.fromkeys(_KINDS.values())
    pairs[kind] = ref, test
    if kind == "wav":
        pairs["las"], pairs["feat"] = _analysis(params, ref, test)
    report = metrics.EvalReport(
        frames_compared=min(map(len, pairs["las"] or pairs["feat"])),
        **{name: getattr(metrics, name)(*pairs[source])
           for name, source in _METRICS.items() if pairs[source]},
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.text())
    sys.stdout.write(report.block())
    return 0


def _cmd_resynth(args):
    las, header = _read(args.input, "las")
    wave = dsp.griffin_lim(las, _resolve_params(args, header), iters=args.iters)
    io.write_wav(args.output, wave)
    return 0


def _cmd_plot(args):
    io.emit_spectrogram_image(_read(args.input, "las")[0], args.output)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="alaskit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, func, help, *inputs, output=True):
        """Subparser ``name`` running ``func`` on positional ``inputs``, with a
        required -o unless ``output`` is false."""
        p = sub.add_parser(name, help=help)
        for input_name in inputs:
            p.add_argument(input_name)
        if output:
            p.add_argument("-o", "--output", required=True)
        p.set_defaults(func=func)
        return p

    command("analyze", _cmd_analyze, "extract acoustic features (and optionally LAS) from a WAV",
            "input").add_argument("--las", default=None, help="also write the natural LAS here")
    command("recover", _cmd_recover, "recover approximate LAS from a feature file", "input")
    command("refine-fit", _cmd_refine_fit, "fit a per-bin refiner from a pairs manifest",
            "manifest").add_argument("--context-radius", type=int, default=0)
    command("refine-apply", _cmd_refine_apply, "apply a fitted refiner to a LAS file",
            "model", "input")
    p = command("evaluate", _cmd_evaluate,
                "objective metrics between a reference and a test input", output=False)
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    kinds = p.add_mutually_exclusive_group()
    for kind in _KINDS.values():
        kinds.add_argument(f"--{kind}", dest="mode", action="store_const", const=kind)
    p.add_argument("-o", "--output", default=None)
    command("resynth", _cmd_resynth, "Griffin-Lim resynthesis of a LAS file to WAV",
            "input").add_argument("--iters", type=int, default=60)
    command("plot", _cmd_plot, "write a PGM spectrogram of a LAS file", "input")

    for name in _ANALYSIS_COMMANDS:
        group = sub.choices[name].add_argument_group("analysis parameters")
        for flag, field, kind in _PARAM_FLAGS:
            group.add_argument(f"--{flag}", dest=field, type=kind, default=None)
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
