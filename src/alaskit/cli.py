"""Command-line pipeline: analyze, recover, refine, evaluate, resynth, plot.

Exit codes: 0 on success, 1 for usage errors, 2 for data or format errors.
Analysis geometry comes from the inputs: ``analyze`` takes the WAV's sample
rate and ``--frame-shift``, every other command takes frame shift and sample
rate from its inputs' headers, which must agree; every other analysis
parameter is the AnalysisParams default.
"""

import argparse
import dataclasses
import functools
import sys
import warnings

from . import alas, dsp, features, io, metrics, refine


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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


def _agreed(*headers) -> dict:
    """The frame shift and sample rate that the (path, frame shift, sample
    rate) ``headers`` give, by AnalysisParams field, each as the (path,
    value) of the first header to set it, leaving out a field no header sets
    (a WAV stores no frame shift); two headers giving one field different
    values are rejected, naming both."""
    agreed = {}
    for path, *values in headers:
        for field, value in zip(("frame_shift", "sample_rate"), values):
            if value is None:
                continue
            first_path, first = agreed.setdefault(field, (path, value))
            dsp._agree(field, first, first_path, value, path)
    return agreed


def _params(*headers) -> dsp.AnalysisParams:
    """AnalysisParams with the frame shift and sample rate that the (path,
    frame shift, sample rate) ``headers`` agree on (see _agreed), every other
    field at its default; a value AnalysisParams refuses is a ValueError
    prefixed with the path of the header that gave it."""
    params = dsp.AnalysisParams()
    for field, (path, value) in _agreed(*headers).items():
        with io._about(path):
            params = dataclasses.replace(params, **{field: value})
    return params


def _analysis(params, *waves):
    """The LAS of each wave, then the feature track of each, taken from its LAS."""
    las = [dsp.extract_las(wave, params) for wave in waves]
    return las, [features._track_from_las(w, spectra, params) for w, spectra in zip(waves, las)]


def _cmd_analyze(args):
    wave, _ = _read(args.input, "wav")
    with io._about("--frame-shift"):  # Waveform took the rate; only the flag can be refused
        params = dsp.AnalysisParams(sample_rate=wave.sample_rate, frame_shift=args.frame_shift)
    with io._about(args.input):
        (las,), (track,) = _analysis(params, wave)
    io.write_feature_file(args.output, track)
    if args.las:
        io.write_las_file(args.las, las, params.frame_shift, params.sample_rate)
    return 0


def _cmd_recover(args):
    track, header = _read(args.input, "feat")
    params = _params(header)
    with io._about(args.input):
        recovered = alas.recover_alas(track, params)
    io.write_las_file(args.output, recovered, params.frame_shift, params.sample_rate)
    return 0


def _cmd_refine_fit(args):
    pairs, headers = [], []
    with io._about(args.manifest), open(args.manifest, encoding="utf-8") as fh:
        lines = list(fh)
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{args.manifest}:{line_no}: expected '<alas>\\t<las>'")
        pair, pair_headers = zip(*(_read(part, "las") for part in parts))
        with io._about(f"{args.manifest}:{line_no}"):
            dsp._agree("shape", pair[0].shape, parts[0], pair[1].shape, parts[1])
            if pairs:
                dsp._agree("bins", pairs[0][0].shape[1], headers[0][0], pair[0].shape[1], parts[0])
        pairs.append(pair)
        headers += pair_headers
    if not pairs:
        raise ValueError(f"{args.manifest}: no training pairs")
    _agreed(*headers)
    model = refine.fit_refiner(pairs)
    refine.save_refiner(model, args.output)
    return 0


def _cmd_refine_apply(args):
    model = refine.load_refiner(args.model)
    las, (_, frame_shift, sample_rate) = _read(args.input, "las")
    with io._about(args.model, args.input):  # also the float32 range of the refined LAS
        io.write_las_file(args.output, refine.apply_refiner(model, las), frame_shift, sample_rate)
    return 0


def _cmd_evaluate(args):
    kind = args.mode or _kind(args.ref)
    (ref, ref_header), (test, test_header) = _read(args.ref, kind), _read(args.test, kind)
    params = _params(ref_header, test_header)
    # (ref, test) per input kind; WAVs are analysed into the other two kinds
    pairs = dict.fromkeys(_KINDS.values())
    pairs[kind] = ref, test
    with io._about(args.ref, args.test):
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
    dsp._at_least("--iters", args.iters, 1)
    las, header = _read(args.input, "las")
    params = _params(header)
    with io._about(args.input):
        wave = dsp.griffin_lim(las, params, iters=args.iters)
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

    p = command("analyze", _cmd_analyze,
                "extract acoustic features (and optionally LAS) from a WAV", "input")
    p.add_argument("--las", default=None, help="also write the natural LAS here")
    p.add_argument("--frame-shift", type=int, default=dsp.AnalysisParams.frame_shift,
                   help="analysis frame shift in samples (default %(default)s)")
    command("recover", _cmd_recover, "recover approximate LAS from a feature file", "input")
    command("refine-fit", _cmd_refine_fit, "fit a per-bin refiner from a pairs manifest",
            "manifest")
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
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # the library's UserWarnings print as one line each, once per message, also under
        # -W error; every other category keeps the interpreter's filters
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = functools.partial(_show_warning, set(), warnings.showwarning)
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            print(f"alaskit: error: {exc}", file=sys.stderr)
            return 2


def _show_warning(shown, show, message, category, *where, **options):
    """warnings.showwarning while main runs: the first UserWarning of each
    message prints as one ``alaskit: warning:`` line, and ``shown`` keeps
    the message so that a repeat prints nothing; any other category goes on
    to ``show``, the hook it replaces."""
    if not issubclass(category, UserWarning):
        show(message, category, *where, **options)
    elif str(message) not in shown:
        shown.add(str(message))
        print(f"alaskit: warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
