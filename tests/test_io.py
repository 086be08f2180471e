"""Tests for WAV, feature-file, LAS-file and PGM output round trips."""

import copy
import dataclasses
import re
import struct
import warnings
import wave as wave_module

import numpy as np
import pytest

import rawfiles
from alaskit import (
    Waveform,
    emit_spectrogram_image,
    read_feature_file,
    read_las_file,
    read_wav,
    save_refiner,
    write_feature_file,
    write_las_file,
    write_wav,
)
from alaskit.features import FeatureTrack
from alaskit.refine import RefinerModel


class TestWav:
    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(36)
        original = Waveform(rng.uniform(-0.9, 0.9, 2000), 16000)
        path = tmp_path / "a.wav"
        write_wav(path, original)
        loaded = read_wav(path)
        assert loaded.sample_rate == 16000
        assert np.max(np.abs(loaded.samples - original.samples)) <= 1.0 / 32768.0

    def test_extreme_sample_round_trips_exactly(self, tmp_path):
        value = 32767.0 / 32768.0
        path = tmp_path / "b.wav"
        write_wav(path, Waveform(np.array([value, -1.0, 0.0]), 16000))
        loaded = read_wav(path)
        assert loaded.samples[0] == value
        assert loaded.samples[1] == -1.0
        assert loaded.samples[2] == 0.0

    def test_saturating_clamp(self, tmp_path):
        path = tmp_path / "c.wav"
        write_wav(path, Waveform(np.array([2.0, -2.0]), 16000))
        loaded = read_wav(path)
        assert loaded.samples[0] == 32767.0 / 32768.0
        assert loaded.samples[1] == -1.0

    def test_wav_without_samples_names_it(self, tmp_path):
        # before: an empty Waveform
        path = tmp_path / "empty.wav"
        rawfiles.write_empty_wav(path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no samples$"):
            read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave_module.open(str(path), "wb") as writer:
            writer.setnchannels(2)
            writer.setsampwidth(2)
            writer.setframerate(16000)
            writer.writeframes(b"\x00\x00" * 400)
        with pytest.raises(ValueError, match="mono required"):
            read_wav(path)

    @pytest.mark.parametrize("channels, width, rate, message", [
        (2, 2, 16000, "mono required, got 2 channels"),
        (1, 1, 16000, "16-bit PCM required, got 8-bit samples"),
        pytest.param(1, 2, 0, "sample_rate must be an integer >= 1, got 0",
                     id="1-2-0-sample_rate must be positive"),
    ])
    def test_format_errors_name_the_file(self, tmp_path, channels, width, rate, message):
        # the wave module refuses to write a zero rate, so the header is packed here
        fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * channels * width,
                          channels * width, 8 * width)
        data = b"\x00" * (4 * channels * width)
        body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + b"data"
        path = tmp_path / "odd.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body) + 4 + len(data)) + body
                         + struct.pack("<I", len(data)) + data)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            read_wav(path)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not RIFF data")
        with pytest.raises(ValueError, match="malformed WAV"):
            read_wav(path)

    def test_sample_rate_beyond_header_rejected(self, tmp_path):
        path = tmp_path / "fast.wav"
        with pytest.raises(ValueError, match="sample rate"):
            write_wav(path, Waveform(np.zeros(10), 2**31))
        assert not path.exists()

    def test_fractional_sample_rate_never_reaches_the_header(self, tmp_path):
        # a WAV header holds whole hertz: 16000.5 would be written as 16000
        path = tmp_path / "half.wav"
        with pytest.raises(ValueError, match="sample_rate must be an integer"):
            write_wav(path, Waveform(np.zeros(10), 16000.5))
        assert not path.exists()

    def test_chunk_size_past_end_of_file(self, tmp_path):
        path = tmp_path / "long_fmt.wav"
        write_wav(path, Waveform(np.zeros(100), 16000))
        data = bytearray(path.read_bytes())
        data[16:20] = struct.pack("<I", 10**6)  # the fmt chunk's size
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="malformed WAV.*: a chunk size runs past the end"):
            read_wav(path)

    def test_file_cut_inside_header(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(path, Waveform(np.zeros(100), 16000))
        path.write_bytes(path.read_bytes()[:30])  # ends inside the fmt chunk
        with pytest.raises(ValueError, match="malformed WAV.*: the file ends inside its header"):
            read_wav(path)

    @pytest.mark.parametrize("cut", [1, 2, 32000])
    def test_file_cut_inside_data_chunk(self, tmp_path, cut):
        # before: 15,999 samples (2 bytes), an empty waveform (every data
        # byte) or numpy's "buffer size must be a multiple of element size"
        path = tmp_path / "cut.wav"
        write_wav(path, Waveform(np.full(16000, 0.25), 16000))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=re.escape(
                f"malformed WAV file {path}: the file ends inside its data chunk")):
            read_wav(path)

    def test_odd_data_chunk_size_reads_its_whole_samples(self, tmp_path):
        path = tmp_path / "odd.wav"
        write_wav(path, Waveform(np.array([0.25, -0.5]), 16000))
        data = bytearray(path.read_bytes()[:-1])
        data[40:44] = struct.pack("<I", 3)  # the data chunk's size: one sample and a half
        path.write_bytes(bytes(data))
        assert np.array_equal(read_wav(path).samples, [0.25])


def _track(n=7, seed=37):
    rng = np.random.default_rng(seed)
    f0 = np.where(rng.uniform(size=n) > 0.4, rng.uniform(80, 300, n), 0.0)
    return FeatureTrack(
        f0=f0,
        mcep=rng.standard_normal((n, 41)),
        frame_shift=80,
        sample_rate=16000,
    )


class TestFeatureFile:
    def test_round_trip_at_float32(self, tmp_path):
        track = _track()
        path = tmp_path / "t.aftk"
        write_feature_file(path, track)
        loaded = read_feature_file(path)
        assert loaded.frame_shift == 80
        assert loaded.sample_rate == 16000
        np.testing.assert_array_equal(loaded.f0, track.f0.astype(np.float32))
        np.testing.assert_array_equal(loaded.mcep, track.mcep.astype(np.float32))
        np.testing.assert_array_equal(loaded.vuv, track.vuv)

    def test_bad_magic_names_expected(self, tmp_path):
        path = tmp_path / "bad.aftk"
        path.write_bytes(b"JUNK" + b"\x00" * 40)
        with pytest.raises(ValueError, match="AFTK"):
            read_feature_file(path)

    def test_truncated_payload(self, tmp_path):
        track = _track()
        path = tmp_path / "cut.aftk"
        write_feature_file(path, track)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated payload"):
            read_feature_file(path)

    def test_inconsistent_frame_count(self, tmp_path):
        track = _track()
        path = tmp_path / "grown.aftk"
        write_feature_file(path, track)
        header = bytearray(path.read_bytes())
        struct.pack_into("<I", header, 8, len(track) + 2)  # claim more frames
        path.write_bytes(bytes(header))
        with pytest.raises(ValueError, match="truncated payload"):
            read_feature_file(path)

    @pytest.mark.parametrize("value", [1e39, -1e300])
    def test_value_beyond_float32_rejected(self, tmp_path, value):
        mcep = _track().mcep.copy()
        mcep[3, 4] = value
        track = dataclasses.replace(_track(), mcep=mcep)
        path = tmp_path / "big.aftk"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float32 range"):
                write_feature_file(path, track)
        assert not path.exists()

    def test_non_finite_f0_rejected(self, tmp_path):
        track = _track()
        rows = np.hstack([track.f0[:, None], track.mcep])
        rows[2, 0] = np.nan
        path = tmp_path / "nan.aftk"
        rawfiles.write_container(path, b"AFTK", rows)
        with pytest.raises(ValueError, match="non-finite"):
            read_feature_file(path)

    def test_negative_f0_rejected(self, tmp_path):
        track = _track()
        rows = np.hstack([track.f0[:, None], track.mcep])
        rows[4, 0] = -120.0
        path = tmp_path / "neg.aftk"
        rawfiles.write_container(path, b"AFTK", rows)
        with pytest.raises(ValueError, match="f0 must be finite and nonnegative"):
            read_feature_file(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["f0", "mcep"])
    def test_writer_rejects_non_finite(self, tmp_path, bad, column):
        # FeatureTrack refuses a non-finite value, so the bad track is a copy
        # whose column is swapped for a modified copy behind its checks
        values = getattr(_track(), column).copy()
        values[2] = bad
        track = copy.copy(_track())
        object.__setattr__(track, column, values)
        path = tmp_path / "bad.aftk"
        with pytest.raises(ValueError, match="non-finite"):
            write_feature_file(path, track)
        assert not path.exists()


class TestLasFile:
    def test_round_trip_at_float32(self, tmp_path):
        las = np.random.default_rng(38).standard_normal((9, 257))
        path = tmp_path / "x.lask"
        write_las_file(path, las, 80, 16000)
        loaded, shift, rate = read_las_file(path)
        assert (shift, rate) == (80, 16000)
        np.testing.assert_array_equal(loaded, las.astype(np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        las = np.zeros((4, 257))
        las[3, 100] = bad
        path = tmp_path / "bad_value.lask"
        rawfiles.write_container(path, b"LASK", las)
        with pytest.raises(ValueError, match="non-finite"):
            read_las_file(path)

    def test_signalling_nan_payload_rejected_without_warning(self, tmp_path):
        # casting a float32 signalling NaN to float64 raises numpy's invalid flag
        payload = np.zeros((4, 257), dtype="<f4")
        payload.view("<u4")[2, 9] = 0x7F800001
        path = tmp_path / "snan.lask"
        rawfiles.write_container(path, b"LASK", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                read_las_file(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_writer_rejects_non_finite(self, tmp_path, bad):
        las = np.zeros((4, 257))
        las[3, 100] = bad
        path = tmp_path / "bad_value.lask"
        with pytest.raises(ValueError, match="non-finite"):
            write_las_file(path, las, 80, 16000)
        assert not path.exists()

    @pytest.mark.parametrize("value", [1e39, -1e300])
    def test_value_beyond_float32_rejected(self, tmp_path, value):
        las = np.zeros((4, 257))
        las[2, 9] = value
        path = tmp_path / "big.lask"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float32 range"):
                write_las_file(path, las, 80, 16000)
        assert not path.exists()

    def test_largest_float32_round_trips(self, tmp_path):
        las = np.zeros((2, 257))
        las[1, 0] = -float(np.finfo(np.float32).max)
        path = tmp_path / "edge.lask"
        write_las_file(path, las, 80, 16000)
        assert np.array_equal(read_las_file(path)[0], las)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lask"
        path.write_bytes(b"WHAT" + b"\x00" * 40)
        with pytest.raises(ValueError, match="LASK"):
            read_las_file(path)

    @pytest.mark.parametrize("frames, dims", [(0, 257), (4, 0), (0, 0)])
    def test_empty_header_rejected(self, tmp_path, frames, dims):
        path = tmp_path / "empty.lask"
        path.write_bytes(struct.pack("<4sIIIII", b"LASK", 1, frames, dims, 80, 16000))
        with pytest.raises(ValueError, match="both must be positive"):
            read_las_file(path)

    def test_oversized_payload_rejected(self, tmp_path):
        las = np.zeros((3, 8))
        path = tmp_path / "big.lask"
        write_las_file(path, las, 80, 16000)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="inconsistent"):
            read_las_file(path)

    @pytest.mark.parametrize("shape", [(257,), (2, 4, 257), (0, 257), (4, 0)],
                             ids=["1-D", "3-D", "zero-frames", "zero-bins"])
    def test_writer_rejects_a_bad_shape_by_the_las_rule(self, tmp_path, shape):
        path = tmp_path / "shape.lask"
        with pytest.raises(ValueError, match=re.escape(
                f"LAS must be (frames >= 1, bins >= 1), got shape {shape}")):
            write_las_file(path, np.zeros(shape), 80, 16000)
        assert not path.exists()

    @pytest.mark.parametrize("frame_shift, sample_rate", [(0, 16000), (80, 0), (0, 0)])
    def test_writer_rejects_zero_geometry(self, tmp_path, frame_shift, sample_rate):
        path = tmp_path / "zero.lask"
        field = "sample_rate" if frame_shift else "frame_shift"
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: {field} must be an integer >= 1, got 0")):
            write_las_file(path, np.zeros((2, 3)), frame_shift, sample_rate)
        assert not path.exists()

    @pytest.mark.parametrize("frame_shift, sample_rate", [(0, 16000), (80, 0), (0, 0)])
    def test_reader_rejects_zero_geometry_naming_the_file(self, tmp_path, frame_shift,
                                                          sample_rate):
        path = tmp_path / "zero.lask"
        rawfiles.write_container(path, b"LASK", np.zeros((2, 3)), frame_shift, sample_rate)
        field = "sample_rate" if frame_shift else "frame_shift"
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: {field} must be an integer >= 1, got 0")) as exc:
            read_las_file(path)
        assert str(path) in str(exc.value)


class TestContainerCodec:
    """All three containers go through one writer: the bytes match the
    byte-by-byte builders, and a header field outside u32 is refused before
    the file opens."""

    @pytest.mark.parametrize("frames", [1, 6])
    def test_feature_file_bytes(self, tmp_path, frames):
        track = _track(frames, seed=40)
        write_feature_file(tmp_path / "lib.aftk", track)
        rows = np.hstack([track.f0[:, None], track.mcep])
        rawfiles.write_container(tmp_path / "raw.aftk", b"AFTK", rows)
        assert (tmp_path / "lib.aftk").read_bytes() == (tmp_path / "raw.aftk").read_bytes()

    @pytest.mark.parametrize("shape", [(1, 1), (7, 257)])
    def test_las_file_bytes(self, tmp_path, shape):
        las = np.random.default_rng(41).standard_normal(shape)
        write_las_file(tmp_path / "lib.lask", las, 96, 22050)
        rawfiles.write_container(tmp_path / "raw.lask", b"LASK", las, 96, 22050)
        assert (tmp_path / "lib.lask").read_bytes() == (tmp_path / "raw.lask").read_bytes()

    @pytest.mark.parametrize("bins", [1, 257])
    def test_refiner_file_bytes(self, tmp_path, bins):
        rng = np.random.default_rng(42)
        model = RefinerModel(gain=rng.standard_normal(bins), bias=rng.standard_normal(bins))
        save_refiner(model, tmp_path / "lib.alrf")
        rawfiles.write_refiner(tmp_path / "raw.alrf", model.gain, model.bias)
        assert (tmp_path / "lib.alrf").read_bytes() == (tmp_path / "raw.alrf").read_bytes()

    @staticmethod
    def _write(kind, path, value):
        if kind == "lask":
            write_las_file(path, np.zeros((2, 3)), value, 16000)
        else:
            write_las_file(path, np.zeros((2, 3)), 80, value)

    @pytest.mark.parametrize("existing", [None, b"earlier contents"])
    @pytest.mark.parametrize("value", [2**32, -1])
    @pytest.mark.parametrize("kind", ["lask", "lask-rate"])
    def test_header_field_outside_u32_leaves_the_path_alone(self, tmp_path, kind, value,
                                                            existing):
        path = tmp_path / "out.bin"
        if existing is not None:
            path.write_bytes(existing)
        # a negative field is refused by the LAS header rule, before the codec
        field = "frame_shift" if kind == "lask" else "sample_rate"
        message = (re.escape(f"{path}: {field} must be an integer >= 1, got {value}") if value < 0
                   else f"header fields must be integers.*={value}")
        with pytest.raises(ValueError, match=message):
            self._write(kind, path, value)
        assert (path.read_bytes() if path.exists() else None) == existing

    def test_negative_frame_shift_in_feature_file(self, tmp_path):
        # the track itself refuses the shift, so no file is written
        path = tmp_path / "neg.aftk"
        with pytest.raises(ValueError, match="^frame_shift must be an integer >= 1, got -1$"):
            write_feature_file(path, dataclasses.replace(_track(), frame_shift=-1))
        assert not path.exists()

    @pytest.mark.parametrize("damage, message", [
        ("magic", "bad magic b'LASK' (expected b'AFTK')"),
        ("version", "unsupported version 2"),
        ("cut", "truncated payload: 164 bytes, header implies 168"),
        ("grown", "payload size 172 inconsistent with header (168)"),
        ("dims", "feature file has 41 dims, expected 42"),
        ("f0", "f0 must be finite and nonnegative"),
    ])
    def test_format_errors_name_the_file(self, tmp_path, damage, message):
        path = tmp_path / "damaged.aftk"
        rows = np.zeros((1, 41 if damage == "dims" else 42))
        rows[0, 0] = -1.0 if damage == "f0" else 0.0
        rawfiles.write_container(path, b"LASK" if damage == "magic" else b"AFTK", rows)
        data = bytearray(path.read_bytes())
        if damage == "version":
            struct.pack_into("<I", data, 4, 2)
        path.write_bytes({"cut": data[:-4], "grown": data + b"\x00" * 4}.get(damage, data))
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            read_feature_file(path)

    @pytest.mark.parametrize("frame_shift, sample_rate", [(0, 16000), (80, 0)])
    def test_zero_geometry_in_feature_file_rejected(self, tmp_path, frame_shift, sample_rate):
        path = tmp_path / "zero.aftk"
        rawfiles.write_container(path, b"AFTK", np.zeros((3, 42)), frame_shift, sample_rate)
        field = "sample_rate" if frame_shift else "frame_shift"
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: {field} must be an integer >= 1, got 0")):
            read_feature_file(path)


class TestSpectrogramImage:
    def _read_pgm(self, path):
        data = path.read_bytes()
        magic, dims, maxval, rest = data.split(b"\n", 3)
        width, height = (int(v) for v in dims.split())
        assert magic == b"P5" and int(maxval) == 255
        return width, height, np.frombuffer(rest, dtype=np.uint8).reshape(height, width)

    def test_constant_matrix_is_mid_gray(self, tmp_path):
        path = tmp_path / "flat.pgm"
        emit_spectrogram_image(np.full((12, 9), 3.3), path)
        width, height, pixels = self._read_pgm(path)
        assert (width, height) == (12, 9)
        assert np.all(pixels == pixels[0, 0])
        assert 120 <= int(pixels[0, 0]) <= 135

    def test_range_past_float64_maximum(self, tmp_path):
        # before: overflow, invalid-divide and invalid-cast warnings, then an
        # all-black image
        path = tmp_path / "wide.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emit_spectrogram_image(np.array([[-1e308, 1e308], [0.0, 1.0]]), path)
        _, _, pixels = self._read_pgm(path)
        # rows top..bottom are bins 1, 0; columns are frames
        assert pixels.tolist() == [[255, 128], [0, 128]]

    def test_dimensions_match_matrix(self, tmp_path):
        path = tmp_path / "dims.pgm"
        emit_spectrogram_image(np.random.default_rng(39).standard_normal((31, 17)), path)
        width, height, _ = self._read_pgm(path)
        assert (width, height) == (31, 17)

    def test_harmonic_striping_visible(self, tmp_path, params):
        from alaskit import FeatureTrack, excitation_spectrum, recover_alas

        track = FeatureTrack(f0=np.full(40, 250.0), mcep=np.zeros((40, 41)), frame_shift=80,
                             sample_rate=16000)
        las = recover_alas(track, params)
        path = tmp_path / "comb.pgm"
        emit_spectrogram_image(las, path)
        _, height, pixels = self._read_pgm(path)
        k0 = int(np.nonzero(excitation_spectrum(250.0, params))[0][0])
        for i in range(2, 20):
            harmonic_row = height - 1 - i * k0
            midpoint_row = height - 1 - (i * k0 - k0 // 2)
            assert pixels[harmonic_row, 0] > pixels[midpoint_row, 0]
