"""WAV container handling and rate conversion."""

import io
import math
import os
import struct
import tempfile
import tracemalloc
import uuid
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxtrait import _blocks, audio_io
from voxtrait.audio_io import (
    DECODE_BLOCK_FRAMES,
    RESAMPLE_BLOCK_SAMPLES,
    AudioClip,
    load_wav,
    resample,
    write_wav,
)
from voxtrait.errors import EmptyAudioError, InputError, NonPcmError, WavReadError

from oracles import decode_pcm_reference, resample_reference

RATE = 11025
# blocks for which a loop is shared out over two threads
POOLED_BLOCKS = 2 * _blocks.MIN_BLOCKS_PER_WORKER

# hypothesis forbids function-scoped tmp_path; one shared scratch file is fine
_PROPERTY_DIR = tempfile.mkdtemp(prefix="voxtrait_prop_")


def _riff(fmt_body: bytes, data_body: bytes) -> bytes:
    chunks = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    if len(fmt_body) & 1:
        chunks += b"\x00"
    chunks += b"data" + struct.pack("<I", len(data_body)) + data_body
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def _fmt(audio_format, channels, rate, bits):
    block = channels * (bits // 8)
    return struct.pack("<HHIIHH", audio_format, channels, rate, rate * block, block, bits)


def test_clip_validation():
    with pytest.raises(InputError):
        AudioClip(np.zeros((2, 3)), RATE)
    with pytest.raises(InputError):
        AudioClip(np.array([2.0]), RATE)
    with pytest.raises(InputError):
        AudioClip(np.array([-1.5, 0.0]), RATE)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError):
            AudioClip(np.array([0.1, bad]), RATE)
    assert AudioClip(np.array([-1.0, 1.0]), RATE).samples.size == 2
    with pytest.raises(InputError):
        AudioClip(np.zeros(4), 0)
    clip = AudioClip(np.zeros(RATE), RATE)
    assert clip.duration == pytest.approx(1.0)
    assert not clip.samples.flags.writeable


def test_clip_leaves_callers_array_writable():
    a = np.zeros(10)
    clip = AudioClip(a, RATE)
    a[0] = 0.5  # the caller's array is not frozen
    assert np.shares_memory(clip.samples, a)  # and it was not copied either
    assert clip.samples[0] == 0.5
    assert not clip.samples.flags.writeable


def test_write_read_round_trip(tmp_path):
    t = np.arange(2000) / RATE
    x = 0.8 * np.sin(2.0 * math.pi * 220.0 * t)
    path = str(tmp_path / "tone.wav")
    write_wav(path, x, RATE)
    clip = load_wav(path)
    assert clip.sample_rate == RATE
    assert clip.samples.size == x.size
    # writer scales by 32767, reader by 32768: error <= (|x| + 0.5) / 32768
    assert np.max(np.abs(clip.samples - x)) <= 1.31 / 32768.0
    assert clip.source_id == path
    assert load_wav(path, source_id="tone").source_id == "tone"


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=32),
        min_size=1,
        max_size=200,
    )
)
def test_write_read_bound_holds_for_any_samples(samples):
    path = os.path.join(_PROPERTY_DIR, "prop.wav")
    x = np.asarray(samples, dtype=np.float64)
    write_wav(path, x, RATE)
    back = load_wav(path).samples
    assert back.size == x.size
    assert np.max(np.abs(back - x)) <= (np.max(np.abs(x)) + 0.5) / 32768.0


def test_eight_bit_decoding(tmp_path):
    # unsigned bytes center on 128
    data = bytes([128, 255, 0, 192])
    path = tmp_path / "u8.wav"
    path.write_bytes(_riff(_fmt(1, 1, 8000, 8), data))
    clip = load_wav(str(path))
    assert clip.sample_rate == 8000
    assert np.allclose(clip.samples, [0.0, 127 / 128, -1.0, 0.5])


def test_twenty_four_bit_decoding(tmp_path):
    vals = [0x7FFFFF, -0x800000, 0, 0x400000]
    body = b"".join(struct.pack("<i", v)[:3] for v in vals)
    path = tmp_path / "s24.wav"
    path.write_bytes(_riff(_fmt(1, 1, 22050, 24), body))
    clip = load_wav(str(path))
    expect = [v / float(1 << 23) for v in vals]
    assert np.allclose(clip.samples, expect)


def test_thirty_two_bit_decoding(tmp_path):
    vals = [0x7FFFFFFF, -0x80000000, 0, 0x40000000, -1]
    path = tmp_path / "s32.wav"
    path.write_bytes(_riff(_fmt(1, 1, 48000, 32), struct.pack("<5i", *vals)))
    clip = load_wav(str(path))
    assert clip.sample_rate == 48000
    assert clip.samples.tolist() == [v / 2**31 for v in vals]


def test_stereo_averaged_to_mono(tmp_path):
    frames = struct.pack("<4h", 16384, -16384, 8192, 8192)
    path = tmp_path / "st.wav"
    path.write_bytes(_riff(_fmt(1, 2, RATE, 16), frames))
    clip = load_wav(str(path))
    assert np.allclose(clip.samples, [0.0, 0.25])


def test_rejects_non_pcm_and_bad_depths(tmp_path):
    p1 = tmp_path / "float.wav"
    p1.write_bytes(_riff(_fmt(3, 1, RATE, 32), b"\x00" * 8))
    with pytest.raises(NonPcmError):
        load_wav(str(p1))
    p2 = tmp_path / "odd_depth.wav"
    for bits in (12, 64):
        p2.write_bytes(_riff(_fmt(1, 1, RATE, bits), b"\x00" * 16))
        with pytest.raises(NonPcmError):
            load_wav(str(p2))


_PCM_GUID = uuid.UUID("00000001-0000-0010-8000-00aa00389b71").bytes_le
_FLOAT_GUID = uuid.UUID("00000003-0000-0010-8000-00aa00389b71").bytes_le


def _fmt_extensible(channels, rate, bits, guid, cb_size=22):
    ext = struct.pack("<HI", bits, (1 << channels) - 1) + guid
    return _fmt(0xFFFE, channels, rate, bits) + struct.pack("<H", cb_size) + ext


@pytest.mark.parametrize(
    "channels,bits", [(1, 16), (2, 16), (2, 24), (1, 8), (1, 32), (2, 32)]
)
def test_extensible_pcm_matches_plain_pcm(tmp_path, channels, bits):
    body = np.random.default_rng(bits + channels).bytes(channels * (bits // 8) * 500)
    plain = tmp_path / "plain.wav"
    plain.write_bytes(_riff(_fmt(1, channels, RATE, bits), body))
    ext = tmp_path / "ext.wav"
    ext.write_bytes(_riff(_fmt_extensible(channels, RATE, bits, _PCM_GUID), body))
    a, b = load_wav(str(plain)), load_wav(str(ext))
    assert b.sample_rate == RATE
    assert np.array_equal(a.samples, b.samples)


def test_extensible_rejects_other_subformats_and_truncation(tmp_path):
    p = tmp_path / "ext.wav"
    p.write_bytes(_riff(_fmt_extensible(1, RATE, 32, _FLOAT_GUID), b"\x00" * 8))
    with pytest.raises(NonPcmError):
        load_wav(str(p))
    p.write_bytes(_riff(_fmt_extensible(1, RATE, 64, _PCM_GUID), b"\x00" * 16))
    with pytest.raises(NonPcmError):  # 64-bit integer PCM is unsupported
        load_wav(str(p))
    full = _fmt_extensible(1, RATE, 16, _PCM_GUID)
    for fmt in (
        full[:16],  # no cbSize
        full[:30],  # GUID cut short
        _fmt_extensible(1, RATE, 16, _PCM_GUID, cb_size=0),
    ):
        p.write_bytes(_riff(fmt, b"\x00" * 8))
        with pytest.raises(WavReadError):
            load_wav(str(p))
    misaligned = struct.pack("<HHIIHH", 0xFFFE, 1, RATE, 4 * RATE, 4, 16) + full[16:]
    p.write_bytes(_riff(misaligned, b"\x00" * 8))
    with pytest.raises(WavReadError):  # block align of 4 for one 16-bit channel
        load_wav(str(p))


def _full_scale_bodies(rng, bits, channels, n_frames):
    """Bodies of only the lowest, only the highest, and a random mix of both
    sample values: the largest channel sums the integer mixdown meets."""
    width = bits // 8
    lo, hi = (0, 255) if bits == 8 else (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    codes = [v.to_bytes(width, "little", signed=bits != 8) for v in (lo, hi)]
    n = n_frames * channels
    mixed = b"".join(codes[i] for i in rng.integers(0, 2, size=n))
    return [codes[0] * n, codes[1] * n, mixed]


# numpy's pairwise float sum changes regime at 8 elements, so the channel
# counts reach past it
@pytest.mark.parametrize("bits", [8, 16, 24, 32])
@pytest.mark.parametrize("channels", [1, 2, 3, 6, 8, 9])
def test_block_decode_matches_whole_array_decode(tmp_path, bits, channels):
    frame = channels * (bits // 8)
    rng = np.random.default_rng(bits * 10 + channels)
    path = tmp_path / "blocks.wav"
    bodies = [
        rng.bytes(n_frames * frame + tail)
        for n_frames, tail in (
            (1, 0),
            (DECODE_BLOCK_FRAMES - 1, 0),
            (DECODE_BLOCK_FRAMES, 0),
            (DECODE_BLOCK_FRAMES + 1, 0),
            (2 * DECODE_BLOCK_FRAMES + 17, frame - 1),  # trailing partial frame
        )
    ]
    bodies += _full_scale_bodies(rng, bits, channels, DECODE_BLOCK_FRAMES + 3)
    for body in bodies:
        path.write_bytes(_riff(_fmt(1, channels, RATE, bits), body))
        got = load_wav(str(path)).samples
        assert got.size == len(body) // frame
        assert np.array_equal(got, decode_pcm_reference(body, bits, channels))


@pytest.mark.parametrize("bits", [8, 16, 24, 32])
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_threaded_decode_matches_whole_array_decode(tmp_path, block_threads, bits, channels):
    # 16 blocks with the last one frame short, and 16 blocks and one frame:
    # the shortest loops shared out over two threads, the second one ending
    # in a one-frame block
    frame = channels * (bits // 8)
    rng = np.random.default_rng(bits * 10 + channels)
    path = tmp_path / "threads.wav"
    whole = POOLED_BLOCKS * DECODE_BLOCK_FRAMES
    for n_frames in (whole - 1, whole + 1):
        body = rng.bytes(n_frames * frame)
        path.write_bytes(_riff(_fmt(1, channels, RATE, bits), body))
        got = load_wav(str(path)).samples
        assert np.array_equal(got, decode_pcm_reference(body, bits, channels))
    assert block_threads.runs == 2


def _write_long_stereo(path, seconds, rate=44100):
    """A 16-bit stereo WAV of `seconds`, written one second at a time."""
    second = np.random.default_rng(seconds).integers(
        -32768, 32768, size=2 * rate, dtype="<i2"
    ).tobytes()
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        for _ in range(seconds):
            wf.writeframesraw(second)


@pytest.mark.parametrize("minutes", [1, 4])
def test_decode_memory_does_not_grow_with_the_file(tmp_path, minutes):
    # Only the mono output grows with the clip: the data chunk is read block
    # by block into one buffer, never held whole as bytes.
    path = tmp_path / "long.wav"
    _write_long_stereo(path, 60 * minutes)
    tracemalloc.start()
    try:
        clip = load_wav(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert clip.samples.size == 60 * minutes * 44100
    assert peak - clip.samples.nbytes < 8 * 2**20


def test_os_error_while_reading_data_is_a_wav_read_error(tmp_path, monkeypatch):
    path = tmp_path / "tone.wav"
    write_wav(str(path), np.zeros(100), RATE)

    class FailingReader(io.BufferedReader):
        def readinto(self, buf):
            raise OSError("device went away")

    # the header reads succeed; the first data block fails
    monkeypatch.setattr(
        audio_io, "open", lambda p, mode: FailingReader(io.FileIO(p, mode)), raising=False
    )
    with pytest.raises(WavReadError, match="device went away"):
        load_wav(str(path))


def test_error_in_a_decode_thread_is_a_wav_read_error(tmp_path, monkeypatch, block_threads):
    path = tmp_path / "long.wav"
    write_wav(str(path), np.zeros(POOLED_BLOCKS * DECODE_BLOCK_FRAMES), RATE)
    late = 44 + 2 * DECODE_BLOCK_FRAMES * (POOLED_BLOCKS - 1)  # in the second thread's run

    def failing(exc):
        class LateFailingReader(io.BufferedReader):
            def readinto(self, buf):
                if self.tell() >= late:
                    if exc is None:  # the file ends early
                        return 0
                    raise exc
                return super().readinto(buf)

        return lambda p, mode: LateFailingReader(io.FileIO(p, mode))

    monkeypatch.setattr(audio_io, "open", failing(OSError("device went away")), raising=False)
    with pytest.raises(WavReadError, match="device went away"):
        load_wav(str(path))
    monkeypatch.setattr(audio_io, "open", failing(None), raising=False)
    with pytest.raises(WavReadError, match="data chunk ended while being read"):
        load_wav(str(path))
    assert block_threads.runs == 2


def test_first_chunk_wins_and_short_data_is_cut_to_the_file(tmp_path):
    one = struct.pack("<h", 16384)
    fmt = _fmt(1, 1, RATE, 16)
    fmt_chunk = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    second_fmt = b"fmt " + struct.pack("<I", len(fmt)) + _fmt(1, 2, 8000, 16)
    body = (
        fmt_chunk
        + b"data" + struct.pack("<I", 2) + one
        + second_fmt
        + b"data" + struct.pack("<I", 4) + one + one
    )
    path = tmp_path / "two_of_each.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    clip = load_wav(str(path))
    assert clip.sample_rate == RATE
    assert clip.samples.tolist() == [0.5]

    # a data size that runs past the end of the file reads what is there
    cut = fmt_chunk + b"data" + struct.pack("<I", 1000) + one * 3 + b"\x01"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(cut)) + b"WAVE" + cut)
    assert load_wav(str(path)).samples.tolist() == [0.5, 0.5, 0.5]


def test_rejects_broken_containers(tmp_path):
    p = tmp_path / "junk.wav"
    p.write_bytes(b"RIFX" + b"\x00" * 40)
    with pytest.raises(WavReadError):
        load_wav(str(p))
    p.write_bytes(b"RIFF" + struct.pack("<I", 4) + b"WAVE")  # no chunks at all
    with pytest.raises(WavReadError):
        load_wav(str(p))
    with pytest.raises(WavReadError):
        load_wav(str(tmp_path / "absent.wav"))


def test_rejects_empty_data_chunk(tmp_path):
    p = tmp_path / "empty.wav"
    p.write_bytes(_riff(_fmt(1, 1, RATE, 16), b""))
    with pytest.raises(EmptyAudioError):
        load_wav(str(p))


def test_resample_preserves_tone():
    src_rate = 44100
    t = np.arange(src_rate) / src_rate
    x = 0.5 * np.sin(2.0 * math.pi * 440.0 * t)
    out = resample(AudioClip(x, src_rate, "tone"))
    assert out.sample_rate == RATE
    assert out.samples.size == round(x.size * RATE / src_rate)
    assert out.source_id == "tone"

    ref = 0.5 * np.sin(2.0 * math.pi * 440.0 * np.arange(out.samples.size) / RATE)
    # ignore filter edges when comparing
    a, b = out.samples[200:-200], ref[200:-200]
    r = float(np.dot(a, b) / math.sqrt(np.dot(a, a) * np.dot(b, b)))
    assert r > 0.999


def test_resample_upsamples():
    src_rate = 8000
    t = np.arange(4000) / src_rate
    x = 0.5 * np.sin(2.0 * math.pi * 300.0 * t)
    out = resample(AudioClip(x, src_rate))
    assert out.sample_rate == RATE
    assert abs(out.duration - 0.5) < 1.0 / RATE
    ref = 0.5 * np.sin(2.0 * math.pi * 300.0 * np.arange(out.samples.size) / RATE)
    a, b = out.samples[200:-200], ref[200:-200]
    r = float(np.dot(a, b) / math.sqrt(np.dot(a, a) * np.dot(b, b)))
    assert r > 0.999


def test_resample_identity_and_validation():
    clip = AudioClip(np.zeros(100), RATE)
    assert resample(clip) is clip
    with pytest.raises(InputError):
        resample(clip, target_rate=0)


# 16 blocks less one sample, exactly, and plus one: the last block runs
# short, full or one sample long; 24 blocks plus 5 share out over 3 threads
_POOLED_OUTPUTS = [
    POOLED_BLOCKS * RESAMPLE_BLOCK_SAMPLES + d for d in (-1, 0, 1)
] + [3 * _blocks.MIN_BLOCKS_PER_WORKER * RESAMPLE_BLOCK_SAMPLES + 5]


@pytest.mark.parametrize("src_rate", [44100, 48000, 22050, 16000, 8000])
def test_block_resample_matches_whole_array(src_rate, block_threads):
    rng = np.random.default_rng(src_rate)
    runs = 0
    for n_out in [1, 5, *_POOLED_OUTPUTS]:
        # the input length that resamples to n_out outputs
        x = np.clip(0.4 * rng.standard_normal(max(1, round(n_out * src_rate / RATE))), -1, 1)
        got = resample(AudioClip(x, src_rate)).samples
        assert np.array_equal(got, resample_reference(x, src_rate, RATE)), (src_rate, n_out)
        runs += block_threads.runs_for(-(-got.size // RESAMPLE_BLOCK_SAMPLES))
    assert block_threads.runs == runs == 5


def test_threaded_resample_holds_no_second_output(block_threads):
    # The output is allocated once and each block writes its slice of it,
    # so the peak above the output is one upfirdn block per thread in flight
    # (about 0.26 MB each) and the filter, never a second full-length array.
    x = np.clip(0.4 * np.random.default_rng(1).standard_normal(120 * 44100), -1, 1)
    clip = AudioClip(x, 44100)
    tracemalloc.start()
    try:
        out = resample(clip).samples
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block_threads.runs == 2
    assert peak - out.nbytes < 3 * 2 * RESAMPLE_BLOCK_SAMPLES * 8
