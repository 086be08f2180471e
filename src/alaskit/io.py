"""File formats: PCM16 WAV, binary containers, PGM spectrograms.

Every container is a 4-byte magic, a u32 version (1) and u32 header fields,
then its payload, read and written by one codec here. Feature files (magic
AFTK) hold one row per frame: F0 followed by the 41 warped cepstral
coefficients (energy first); the voicing flag is implicit in f0 > 0. LAS
files (magic LASK) hold raw float32 log spectra. Both carry frame shift and
sample rate, each at least 1, so downstream commands can validate geometry.
Refiner models (magic ALRF, see :mod:`alaskit.refine`) hold float64 gains
and biases.
"""

import contextlib
import struct
import wave as wave_module

import numpy as np

from .dsp import Waveform, _at_least, _check_las, _check_las_shape
from .features import MCEP_ORDER, FeatureTrack

FEATURE_MAGIC = b"AFTK"
FEATURE_DIMS = MCEP_ORDER + 2  # F0, then the energy and mel-cepstral coefficients
LAS_MAGIC = b"LASK"
_VERSION = 1


def read_wav(path) -> Waveform:
    """Read a mono PCM16 RIFF/WAVE file, scaling samples to [-1, 1)."""
    try:
        reader = wave_module.open(str(path), "rb")
    except (wave_module.Error, EOFError, RuntimeError) as exc:
        # wave raises these two with empty messages
        reason = {EOFError: "the file ends inside its header",
                  RuntimeError: "a chunk size runs past the end of the file"}.get(type(exc), exc)
        raise ValueError(f"malformed WAV file {path}: {reason}") from exc
    with reader:
        if reader.getnchannels() != 1:
            raise ValueError(f"{path}: mono required, got {reader.getnchannels()} channels")
        if reader.getsampwidth() != 2 or reader.getcomptype() != "NONE":
            raise ValueError(f"{path}: 16-bit PCM required, got {8 * reader.getsampwidth()}-bit "
                             "samples")
        rate = reader.getframerate()
        frames = reader.getnframes()
        raw = reader.readframes(frames)
    if len(raw) < 2 * frames:
        raise ValueError(f"malformed WAV file {path}: the file ends inside its data chunk")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    with _about(path):
        return Waveform(samples, rate)


def write_wav(path, wave: Waveform) -> None:
    """Write a waveform as mono PCM16, saturating outside [-1, 1]."""
    if wave.sample_rate > 0x7FFFFFFF:  # the header's u32 byte rate is twice the rate
        raise ValueError(f"a PCM16 WAV cannot store a sample rate of {wave.sample_rate} Hz")
    quantized = np.clip(np.rint(wave.samples * 32768.0), -32768, 32767).astype("<i2")
    # wave.open on a path it cannot create leaves a writer whose __del__ fails
    with open(path, "wb") as fh, wave_module.open(fh, "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(wave.sample_rate)
        writer.writeframes(quantized.tobytes())


def write_feature_file(path, track: FeatureTrack) -> None:
    payload = _float32_rows(np.hstack([track.f0[:, None], track.mcep]))
    _write_container(path, FEATURE_MAGIC, dict(frames=len(track), dims=FEATURE_DIMS,
                     frame_shift=track.frame_shift, sample_rate=track.sample_rate), payload)


def read_feature_file(path) -> FeatureTrack:
    (n, dims, frame_shift, sample_rate), payload = _read_container(path, FEATURE_MAGIC, 4)
    rows = _payload_rows(path, payload, n, dims, "<f4")
    if dims != FEATURE_DIMS:
        raise ValueError(f"{path}: feature file has {dims} dims, expected {FEATURE_DIMS}")
    with _about(path):
        return FeatureTrack(f0=rows[:, 0], mcep=rows[:, 1:], frame_shift=frame_shift,
                            sample_rate=sample_rate)


@contextlib.contextmanager
def _about(*paths):
    """Prefix the ``paths`` whose values a ValueError raised in the block
    refuses, joined by " vs ", to its message."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{' vs '.join(map(str, paths))}: {exc}") from exc


def write_las_file(path, las: np.ndarray, frame_shift: int, sample_rate: int) -> None:
    las = _check_las_shape(las)
    _check_las_geometry(path, frame_shift, sample_rate)
    _write_container(path, LAS_MAGIC, dict(frames=las.shape[0], bins=las.shape[1],
                     frame_shift=frame_shift, sample_rate=sample_rate), _float32_rows(las))


def read_las_file(path) -> tuple[np.ndarray, int, int]:
    """Return (las, frame_shift, sample_rate) from a LAS container."""
    (n, bins, frame_shift, sample_rate), payload = _read_container(path, LAS_MAGIC, 4)
    _check_las_geometry(path, frame_shift, sample_rate)
    return _payload_rows(path, payload, n, bins, "<f4"), frame_shift, sample_rate


def _check_las_geometry(path, frame_shift, sample_rate) -> None:
    """The rule a feature track keeps, for a LAS header: frame shift and
    sample rate are integers of at least 1; a refusal names ``path``."""
    with _about(path):
        _at_least("frame_shift", frame_shift, 1)
        _at_least("sample_rate", sample_rate, 1)


def _float32_rows(values: np.ndarray) -> np.ndarray:
    """The payload as C-ordered little-endian float32. The readers reject NaN
    and inf, and a finite value beyond the float32 range would be stored as
    inf, so both are a ValueError here."""
    if not np.isfinite(values).all():
        raise ValueError("non-finite values (NaN or inf) cannot be stored")
    if (np.abs(values) > np.finfo(np.float32).max).any():
        raise ValueError("values beyond the float32 range (about 3.4e38) cannot be stored")
    return values.astype("<f4", order="C")


def _write_container(path, magic: bytes, fields: dict, payload) -> None:
    """Write ``magic``, version 1 and the ``fields`` (name: value) as u32,
    then ``payload``, any C-contiguous buffer. The header is packed before
    the file opens, so a field that is not an integer in [0, 2**32 - 1] is
    a ValueError naming the fields, and no file is created or truncated."""
    try:
        header = struct.pack(f"<4sI{len(fields)}I", magic, _VERSION, *fields.values())
    except struct.error as exc:
        named = ", ".join(f"{name}={value}" for name, value in fields.items())
        raise ValueError(f"{magic.decode()} header fields must be integers in "
                         f"[0, 4294967295], got {named}") from exc
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def _read_container(path, magic: bytes, n_fields: int) -> tuple[list[int], bytes]:
    """Return the ``n_fields`` u32 header fields after magic and version, and
    the payload bytes after them, of a version-1 container."""
    header = struct.Struct(f"<4sI{n_fields}I")
    with open(path, "rb") as fh:
        head = fh.read(header.size)
        if len(head) < header.size:
            raise ValueError(f"truncated header in {path}")
        got_magic, version, *fields = header.unpack(head)
        if got_magic != magic:
            raise ValueError(f"{path}: bad magic {got_magic!r} (expected {magic!r})")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        return fields, fh.read()


def _payload_rows(path, payload: bytes, rows: int, dims: int, dtype: str) -> np.ndarray:
    """``payload`` read as ``rows`` x ``dims`` values of ``dtype``, returned
    as a finite float64 matrix; its size must match exactly."""
    if rows == 0 or dims == 0:
        raise ValueError(f"{path} holds {rows} rows of {dims} values; both must be positive")
    expected = rows * dims * np.dtype(dtype).itemsize
    if len(payload) < expected:
        raise ValueError(f"{path}: truncated payload: {len(payload)} bytes, "
                         f"header implies {expected}")
    if len(payload) > expected:
        raise ValueError(f"{path}: payload size {len(payload)} inconsistent with header "
                         f"({expected})")
    values = np.frombuffer(payload, dtype=dtype).reshape(rows, dims)
    # checked before the cast: casting a signalling NaN raises numpy's invalid flag
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite values in the payload of {path}")
    return values.astype(np.float64)


def emit_spectrogram_image(las: np.ndarray, path) -> None:
    """Write a binary PGM spectrogram: frames left to right, bin 0 at the
    bottom, min-max normalized per file (constant input maps to mid-gray)."""
    las = _check_las(las)
    # on halves, so a range past the float64 maximum stays finite; halving a
    # normal float is exact, so every other LAS gives the same quotient
    half = las / 2
    lo = half.min()
    half_range = half.max() - lo
    if half_range < 0.5e-12:
        gray = np.full_like(las, 0.5)
    else:
        gray = (half - lo) / half_range
    image = np.flipud(gray.T)  # rows top..bottom = bins K-1..0
    pixels = np.rint(image * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{las.shape[0]} {las.shape[1]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
