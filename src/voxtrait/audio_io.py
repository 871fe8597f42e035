"""WAV loading and sample-rate conversion.

Clips are canonicalized to mono float64 in [-1, 1]. Integer PCM is scaled by
2**(bits-1), so a 16-bit sample of 32767 maps to 32767/32768. Analysis
elsewhere assumes the canonical 11025 Hz rate; `resample` gets clips there.

Decoding reads the data chunk block by block, and `resample` filters the
clip block by block of output, each writing into one output array
allocated up front: they hold that output plus a few MB of per-block
temporaries per thread however long the clip is, and the file's bytes are
never held whole. Long clips share the blocks out over one thread per CPU
(`_blocks.run_blocks`); the samples are the serial ones, bit for bit.
"""

from __future__ import annotations

import math
import os
import struct
import uuid
import wave
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np
from scipy.signal import upfirdn

from ._blocks import run_blocks
from .errors import EmptyAudioError, InputError, NonPcmError, WavReadError

TARGET_RATE = 11025

# Half-length factor of the windowed-sinc prototype, in units of the larger
# of the up/down factors. 10 matches common polyphase practice.
_HALF_LEN_FACTOR = 10
_KAISER_BETA = 8.6
_CUTOFF_FRACTION = 0.45

# Sample frames decoded per block. Each block's integer and float
# temporaries take at most a few MB, whatever the clip length.
DECODE_BLOCK_FRAMES = 1 << 16
_PCM_DTYPES = {8: "u1", 16: "<i2", 32: "<i4"}
# Output samples `resample` computes per upfirdn call: 3 s at 11025 Hz.
RESAMPLE_BLOCK_SAMPLES = 1 << 15

_FORMAT_PCM = 1
_FORMAT_EXTENSIBLE = 0xFFFE
# KSDATAFORMAT_SUBTYPE_PCM as stored in the file (GUID fields little-endian)
_PCM_SUBFORMAT = uuid.UUID("00000001-0000-0010-8000-00aa00389b71").bytes_le


@dataclass(frozen=True)
class AudioClip:
    """Mono audio with its sampling rate and a label for reporting."""

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""

    def __post_init__(self) -> None:
        x = np.asarray(self.samples, dtype=np.float64)
        if x.ndim != 1:
            raise InputError("AudioClip samples must be one-dimensional")
        if self.sample_rate <= 0:
            raise InputError("sample_rate must be positive")
        # min/max rather than abs(x): no full-length temporary. NaN
        # propagates through both and fails the comparison.
        if x.size and not (
            -1.0 - 1e-9 <= float(x.min()) and float(x.max()) <= 1.0 + 1e-9
        ):
            raise InputError("AudioClip samples must be finite and lie within [-1, 1]")
        # Read-only through a view, so the caller's own array stays writable.
        x = x.view()
        x.setflags(write=False)
        object.__setattr__(self, "samples", x)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def _find_chunks(fh: BinaryIO) -> dict[bytes, tuple[int, int]]:
    """File offset and size of the first body of each chunk id.

    Reads only the 8-byte chunk headers. A size that runs past the end of
    the file is cut to the bytes that are there.
    """
    header = fh.read(12)
    if len(header) < 12 or header[:4] != b"RIFF" or header[8:12] != b"WAVE":
        raise WavReadError(f"{fh.name}: not a RIFF/WAVE file")
    file_size = os.fstat(fh.fileno()).st_size
    chunks: dict[bytes, tuple[int, int]] = {}
    pos = 12
    while pos + 8 <= file_size:
        fh.seek(pos)
        head = fh.read(8)
        if len(head) < 8:
            break
        cid = head[:4]
        (size,) = struct.unpack_from("<I", head, 4)
        if cid not in chunks:
            chunks[cid] = (pos + 8, min(size, file_size - pos - 8))
        pos += 8 + size + (size & 1)  # chunk bodies are word-aligned
    return chunks


def _decode_pcm(
    path: str, data_pos: int, bits: int, n_channels: int, n_frames: int
) -> np.ndarray:
    """Mono float64 samples of the interleaved integer PCM at data_pos.

    Reads DECODE_BLOCK_FRAMES frames at a time. The blocks are shared out
    in contiguous runs over threads (_blocks.run_blocks); each run opens
    the file for itself and reads its blocks into one reused buffer. Each
    frame's channels are summed exactly in int64 (8-bit samples less 128
    each), and the sum is divided once by n_channels * 2**(bits-1). Scaling
    each sample by the power of two is exact and so is summing the scaled
    samples, so this is the same single rounding as the float mean of the
    scaled channels, bit for bit.
    """
    mono = np.empty(n_frames)
    frame_size = (bits // 8) * n_channels
    scale = float(n_channels << (bits - 1))

    def decode(starts: range) -> None:
        buf = memoryview(bytearray(min(n_frames, DECODE_BLOCK_FRAMES) * frame_size))
        with open(path, "rb") as fh:
            fh.seek(data_pos + starts[0] * frame_size)
            for start in starts:
                stop = min(start + DECODE_BLOCK_FRAMES, n_frames)
                chunk = buf[: (stop - start) * frame_size]
                if fh.readinto(chunk) != len(chunk):
                    raise WavReadError(f"{path}: data chunk ended while being read")
                if bits == 24:  # assemble little-endian triplets and sign-extend
                    b = np.frombuffer(chunk, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
                    raw = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
                    raw -= (raw & 0x800000) << 1
                else:
                    raw = np.frombuffer(chunk, dtype=_PCM_DTYPES[bits])
                # one strided pass per channel beats a sum over a short last axis
                frames = raw.reshape(-1, n_channels)
                total = frames[:, 0].astype(np.int64)
                for c in range(1, n_channels):
                    total += frames[:, c]
                if bits == 8:
                    total -= 128 * n_channels
                np.divide(total, scale, out=mono[start:stop])

    run_blocks(decode, range(0, n_frames, DECODE_BLOCK_FRAMES))
    return mono


def load_wav(path: str, source_id: str | None = None) -> AudioClip:
    """Decode a linear PCM WAV file (8/16/24/32-bit, mono or multichannel).

    Plain PCM (format 1) and WAVE_FORMAT_EXTENSIBLE with the PCM SubFormat
    are read. Multichannel audio is averaged down to mono after scaling.
    Raises WavReadError for unreadable containers, NonPcmError for
    unsupported encodings and EmptyAudioError when the data chunk holds no
    samples.
    """
    try:
        with open(path, "rb") as fh:
            chunks = _find_chunks(fh)
            if b"fmt " not in chunks or b"data" not in chunks:
                raise WavReadError(f"{path}: missing fmt or data chunk")
            fmt_pos, fmt_size = chunks[b"fmt "]
            fh.seek(fmt_pos)
            # the longest layout checked below is the 40-byte extensible one
            fmt = fh.read(min(fmt_size, 40))
            if len(fmt) < 16:
                raise WavReadError(f"{path}: fmt chunk truncated")
            audio_format, n_channels, rate, _, block_align, bits = struct.unpack_from(
                "<HHIIHH", fmt
            )
            if audio_format == _FORMAT_EXTENSIBLE:
                # cbSize, then wValidBitsPerSample, dwChannelMask and the
                # SubFormat GUID; samples sit in containers of `bits`, so valid
                # bits and the channel mask do not change the decode.
                if len(fmt) < 40 or struct.unpack_from("<H", fmt, 16)[0] < 22:
                    raise WavReadError(f"{path}: extensible fmt chunk truncated")
                if fmt[24:40] != _PCM_SUBFORMAT:
                    raise NonPcmError(
                        f"{path}: extensible WAV SubFormat is not linear PCM"
                    )
            elif audio_format != _FORMAT_PCM:
                raise NonPcmError(
                    f"{path}: WAV format code {audio_format} is not linear PCM"
                )
            if bits not in (8, 16, 24, 32):
                raise NonPcmError(f"{path}: {bits}-bit PCM is not supported")
            if n_channels < 1 or rate <= 0:
                raise WavReadError(f"{path}: malformed fmt chunk")

            data_pos, data_size = chunks[b"data"]
            frame_size = (bits // 8) * n_channels
            if block_align and block_align != frame_size:
                raise WavReadError(
                    f"{path}: block alignment does not match sample layout"
                )
            n_frames = data_size // frame_size
            if n_frames == 0:
                raise EmptyAudioError(f"{path}: zero-length data chunk")
        mono = _decode_pcm(path, data_pos, bits, n_channels, n_frames)
    except OSError as exc:
        raise WavReadError(f"cannot read {path}: {exc}") from exc

    sid = source_id if source_id is not None else path
    return AudioClip(samples=mono, sample_rate=int(rate), source_id=sid)


def write_wav(path: str, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono float samples as 16-bit PCM."""
    x = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype("<i2")
    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(int(sample_rate))
        wf.writeframes(pcm.tobytes())


def _design_lowpass(n_taps: int, cutoff: float) -> np.ndarray:
    # cutoff in cycles per sample of the grid the filter runs on
    mid = (n_taps - 1) / 2
    t = np.arange(n_taps) - mid
    h = 2.0 * cutoff * np.sinc(2.0 * cutoff * t)
    return h * np.kaiser(n_taps, _KAISER_BETA)


def resample(clip: AudioClip, target_rate: int = TARGET_RATE) -> AudioClip:
    """Rate-convert with a Kaiser windowed-sinc polyphase filter.

    The anti-alias cutoff is 0.45x the lower of the two rates. A clip
    already at the target rate is returned unchanged. Output length is
    round(n * target / source), so duration is preserved to within one
    output sample period.
    """
    if int(target_rate) != target_rate or target_rate <= 0:
        raise InputError("target_rate must be a positive integer")
    target_rate = int(target_rate)
    if clip.sample_rate == target_rate:
        return clip

    src = clip.sample_rate
    g = math.gcd(src, target_rate)
    up, down = target_rate // g, src // g
    n_out = int(round(clip.samples.size * target_rate / src))
    if n_out == 0:
        return AudioClip(np.zeros(0), target_rate, clip.source_id)

    # Choose an odd tap count whose group delay is a whole number of output
    # steps on the upsampled grid, so the delay trim is exact.
    blocks = math.ceil(_HALF_LEN_FACTOR * max(up, down) / down)
    half = blocks * down
    cutoff_hz = _CUTOFF_FRACTION * min(src, target_rate)
    cutoff = cutoff_hz / (src * up)
    h = _design_lowpass(2 * half + 1, cutoff) * up

    # Output i is y[start + i] of y = upfirdn(h, x, up, down), computed
    # RESAMPLE_BLOCK_SAMPLES outputs at a time. upfirdn sums y[m] over the
    # inputs x[j] with 0 <= m*down - j*up < len(h) in rising j, so a block
    # that starts its input len(h) - 1 upsampled samples or more before
    # its first output, at a j that is a multiple of down (its output grid
    # is then y's, shifted by j*up/down samples), sums the same terms in
    # the same order: the blocks are the whole-array call, bit for bit.
    x = clip.samples
    start = half // down
    out = np.empty(n_out)

    def convert(blocks: range) -> None:
        for a in blocks:
            b = min(a + RESAMPLE_BLOCK_SAMPLES, n_out)
            m0, m1 = start + a, start + b
            j0 = max(0, (m0 * down - (h.size - 1)) // (up * down)) * down
            j1 = (m1 - 1) * down // up + 1  # past the last input of y[m1 - 1]
            shift = j0 * up // down
            y = upfirdn(h, x[j0:j1], up=up, down=down)[m0 - shift : m1 - shift]
            out[a : a + y.size] = y
            out[a + y.size : b] = 0.0  # guard; cannot happen for half >= down
            np.clip(out[a:b], -1.0, 1.0, out=out[a:b])

    run_blocks(convert, range(0, n_out, RESAMPLE_BLOCK_SAMPLES))
    return AudioClip(out, target_rate, clip.source_id)
