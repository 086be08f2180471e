"""Containers and WAVs written byte by byte, without the library writers,
so tests can build files that the writers refuse to produce, such as
payloads holding NaN or inf, or a WAV without samples."""

import struct
import wave as wave_module

import numpy as np


def write_container(path, magic: bytes, rows, frame_shift: int = 80,
                    sample_rate: int = 16000) -> None:
    """A version-1 container: the 24-byte header, then ``rows`` (frames x
    dims) as little-endian float32, whatever their values."""
    rows = np.asarray(rows, dtype="<f4")
    header = struct.pack("<4sIIIII", magic, 1, rows.shape[0], rows.shape[1],
                         frame_shift, sample_rate)
    path.write_bytes(header + rows.tobytes())


def write_refiner(path, gain, bias, context_radius: int = 0, version: int = 1) -> None:
    """An .alrf model: the 16-byte header (magic, ``version``, bin count
    taken from ``gain``, context radius), then ``gain`` and then ``bias``
    as little-endian float64, whatever their values or lengths."""
    gain, bias = np.asarray(gain, dtype="<f8"), np.asarray(bias, dtype="<f8")
    header = struct.pack("<4sIII", b"ALRF", version, gain.size, context_radius)
    path.write_bytes(header + gain.tobytes() + bias.tobytes())


def write_empty_wav(path) -> None:
    """A mono 16-bit PCM WAV at 16 kHz whose data chunk is empty."""
    with wave_module.open(str(path), "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(16000)
        writer.writeframes(b"")
