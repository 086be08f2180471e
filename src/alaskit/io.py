"""File formats: PCM16 WAV, binary feature/LAS containers, PGM spectrograms.

Feature files (magic AFTK) hold one row per frame: F0 followed by the 41
warped cepstral coefficients (energy first); the voicing flag is implicit
in f0 > 0. LAS files (magic LASK) hold raw float32 log spectra. Both carry
frame shift and sample rate so downstream commands can validate geometry.
"""

import struct
import wave as wave_module

import numpy as np

from .dsp import Waveform, _check_las
from .features import FeatureTrack

FEATURE_MAGIC = b"AFTK"
FEATURE_DIMS = 42
LAS_MAGIC = b"LASK"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIII")


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
            raise ValueError("mono required")
        if reader.getsampwidth() != 2 or reader.getcomptype() != "NONE":
            raise ValueError("16-bit PCM required")
        rate = reader.getframerate()
        raw = reader.readframes(reader.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, rate)


def write_wav(path, wave: Waveform) -> None:
    """Write a waveform as mono PCM16, saturating outside [-1, 1]."""
    if wave.sample_rate > 0x7FFFFFFF:  # the header's u32 byte rate is twice the rate
        raise ValueError(f"a PCM16 WAV cannot store a sample rate of {wave.sample_rate} Hz")
    quantized = np.clip(np.rint(wave.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave_module.open(str(path), "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(wave.sample_rate)
        writer.writeframes(quantized.tobytes())


def write_feature_file(path, track: FeatureTrack) -> None:
    n = len(track)
    if track.mcep.shape[1] != FEATURE_DIMS - 1:
        raise ValueError(
            f"feature file stores {FEATURE_DIMS - 1} coefficients per frame, "
            f"got {track.mcep.shape[1]}"
        )
    payload = _float32_bytes(np.hstack([track.f0[:, None], track.mcep]))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FEATURE_MAGIC, _VERSION, n, FEATURE_DIMS,
                              track.frame_shift, track.sample_rate))
        fh.write(payload)


def read_feature_file(path) -> FeatureTrack:
    rows, frame_shift, sample_rate = _read_payload(path, FEATURE_MAGIC)
    if rows.shape[1] != FEATURE_DIMS:
        raise ValueError(f"feature file has {rows.shape[1]} dims, expected {FEATURE_DIMS}")
    f0 = rows[:, 0]
    return FeatureTrack(
        f0=f0,
        vuv=f0 > 0.0,
        mcep=rows[:, 1:],
        frame_shift=frame_shift,
        sample_rate=sample_rate,
    )


def write_las_file(path, las: np.ndarray, frame_shift: int, sample_rate: int) -> None:
    las = np.asarray(las, dtype=np.float64)
    if las.ndim != 2 or las.size == 0:
        raise ValueError("LAS matrix must be a non-empty 2-D array")
    payload = _float32_bytes(las)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(LAS_MAGIC, _VERSION, las.shape[0], las.shape[1],
                              frame_shift, sample_rate))
        fh.write(payload)


def _float32_bytes(values: np.ndarray) -> bytes:
    """The payload as little-endian float32 bytes. A finite value beyond the
    float32 range would be stored as inf, which the readers reject, so it is
    a ValueError here."""
    if (np.isfinite(values) & (np.abs(values) > np.finfo(np.float32).max)).any():
        raise ValueError("values beyond the float32 range (about 3.4e38) cannot be stored")
    return values.astype("<f4").tobytes()


def read_las_file(path) -> tuple[np.ndarray, int, int]:
    """Return (las, frame_shift, sample_rate) from a LAS container."""
    return _read_payload(path, LAS_MAGIC)


def _read_payload(path, magic: bytes):
    """Validate a container and return (rows, frame_shift, sample_rate), the
    rows as a finite float64 (frames, dims) matrix."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"truncated header in {path}")
        got_magic, version, n, dims, frame_shift, sample_rate = _HEADER.unpack(header)
        if got_magic != magic:
            raise ValueError(f"bad magic {got_magic!r} (expected {magic!r})")
        if version != _VERSION:
            raise ValueError(f"unsupported version {version}")
        payload = fh.read()
    if n == 0 or dims == 0:
        raise ValueError(f"{path} holds {n} frames of {dims} dims; both must be positive")
    expected = n * dims * 4
    if len(payload) < expected:
        raise ValueError(f"truncated payload: {len(payload)} bytes, header implies {expected}")
    if len(payload) > expected:
        raise ValueError(f"payload size {len(payload)} inconsistent with header ({expected})")
    rows = np.frombuffer(payload, dtype="<f4").reshape(n, dims).astype(np.float64)
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"non-finite values in the payload of {path}")
    return rows, frame_shift, sample_rate


def emit_spectrogram_image(las: np.ndarray, path) -> None:
    """Write a binary PGM spectrogram: frames left to right, bin 0 at the
    bottom, min-max normalized per file (constant input maps to mid-gray)."""
    las = _check_las(las)
    lo = las.min()
    hi = las.max()
    if hi - lo < 1e-12:
        gray = np.full_like(las, 0.5)
    else:
        gray = (las - lo) / (hi - lo)
    image = np.flipud(gray.T)  # rows top..bottom = bins K-1..0
    pixels = np.rint(image * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{las.shape[0]} {las.shape[1]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
