"""Containers written byte by byte, without the library writers, so tests
can build files that the writers refuse to produce, such as payloads
holding NaN or inf."""

import struct

import numpy as np


def write_container(path, magic: bytes, rows, frame_shift: int = 80,
                    sample_rate: int = 16000) -> None:
    """A version-1 container: the 24-byte header, then ``rows`` (frames x
    dims) as little-endian float32, whatever their values."""
    rows = np.asarray(rows, dtype="<f4")
    header = struct.pack("<4sIIIII", magic, 1, rows.shape[0], rows.shape[1],
                         frame_shift, sample_rate)
    path.write_bytes(header + rows.tobytes())
