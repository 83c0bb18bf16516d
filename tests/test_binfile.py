"""Binary readers under hostile input: every file either reads back or
raises ConfigurationError (no MemoryError, OverflowError or bare
ValueError from a header that lies)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfclutter import binfile
from rfclutter.channel import ChannelImpulseResponse, read_ir, write_ir
from rfclutter.errors import ConfigurationError
from rfclutter.rxsim import DataCube, read_cube, write_cube
from rfclutter.waveform import Waveform, read_waveform, write_waveform

from oracles import HOSTILE_IR_FILES, IR_HEADER, ir_blob


def _write_waveform(path):
    write_waveform(path, Waveform(samples=np.exp(1j * np.arange(5.0)), sample_rate=5e6))


def _write_ir(path):
    """Taps 1 and 4 of 6 are zero, so K = 4 occupied taps are stored."""
    taps = (np.arange(36).reshape(2, 3, 6) * (1.0 - 0.5j)).astype(np.complex64)
    taps[:, :, [1, 4]] = 0.0
    write_ir(path, ChannelImpulseResponse.from_dense(taps, sample_rate=5e6, prf=1e3))


def _write_cube(path):
    samples = (np.arange(24).reshape(1, 2, 3, 4) * (0.5 + 1j)).astype(np.complex64)
    write_cube(path, DataCube(samples=samples, sample_rate=5e6, prf=1e3,
                              noise_power=0.1, carrier_hz=10e9))


# format -> (writer of a small valid file, reader, header layout, indices
# of the header fields that declare the payload dimensions, those
# dimensions as read back)
FORMATS = {
    "waveform": (_write_waveform, read_waveform, struct.Struct("<8sId"), (1,),
                 lambda wf: wf.samples.shape),
    "impulse-response": (_write_ir, read_ir, IR_HEADER, (1, 2, 3, 7),
                         lambda ir: (ir.num_channels, ir.num_pulses, ir.num_taps,
                                     ir.support.size)),
    "cube": (_write_cube, read_cube, struct.Struct("<8sIIIIdddd"), (1, 2, 3, 4),
             lambda cube: cube.samples.shape),
}
U32 = st.integers(0, 2 ** 32 - 1)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """fmt -> (a scratch path, the bytes of a small valid file)."""
    root = tmp_path_factory.mktemp("binfile")
    out = {}
    for fmt, (write, *_) in FORMATS.items():
        path = root / f"{fmt}.bin"
        write(path)
        out[fmt] = (path, path.read_bytes())
    return out


def read_or_reject(reader, path):
    """The oracle: the reader returns, or raises ConfigurationError."""
    try:
        return reader(path)
    except ConfigurationError:
        return None


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_valid_file_reads_back(fmt, valid):
    path, good = valid[fmt]
    path.write_bytes(good)
    assert FORMATS[fmt][1](path) is not None


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_truncated_file_is_rejected(fmt, data, valid):
    path, good = valid[fmt]
    path.write_bytes(good[:data.draw(st.integers(0, len(good) - 1))])
    with pytest.raises(ConfigurationError):
        FORMATS[fmt][1](path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=40, deadline=None)
@given(extra=st.binary(min_size=1, max_size=64))
def test_trailing_bytes_are_rejected(fmt, extra, valid):
    path, good = valid[fmt]
    path.write_bytes(good + extra)
    with pytest.raises(ConfigurationError, match="trailing bytes"):
        FORMATS[fmt][1](path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_size_lies_never_escape_the_oracle(fmt, data, valid):
    """Dimension fields rewritten to any u32 over the real payload, cut
    or padded: a result must have exactly the declared dimensions."""
    _, reader, header, dim_fields, dims_of = FORMATS[fmt]
    path, good = valid[fmt]
    fields = list(header.unpack(good[:header.size]))
    for k in dim_fields:
        fields[k] = data.draw(U32)
    payload = good[header.size:]
    payload = payload[:data.draw(st.integers(0, len(payload)))] + data.draw(st.binary(max_size=64))
    path.write_bytes(header.pack(*fields) + payload)
    got = read_or_reject(reader, path)
    if got is not None:
        assert list(dims_of(got)) == [fields[k] for k in dim_fields]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arbitrary_header_and_payload(fmt, data, valid):
    _, reader, header, *_ = FORMATS[fmt]
    path, good = valid[fmt]
    magic = good[:8] if data.draw(st.booleans()) else data.draw(st.binary(min_size=8, max_size=8))
    body = data.draw(st.binary(min_size=0, max_size=header.size + 96))
    path.write_bytes(magic + body)
    read_or_reject(reader, path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_all_ones_header_is_rejected(fmt, valid):
    """2^32 - 1 in every size field (and NaN in every float field)."""
    _, reader, header, *_ = FORMATS[fmt]
    path, good = valid[fmt]
    path.write_bytes(good[:8] + b"\xff" * (header.size - 8))
    with pytest.raises(ConfigurationError, match="truncated"):
        reader(path)


def test_header_claiming_4096_cubed_taps_is_rejected(tmp_path):
    head = struct.pack("<8sIIIdddI", b"RFGIR002", 4096, 4096, 4096, 5e6, 0.0, 1e3, 4096)
    assert len(head) == 48
    path = tmp_path / "lying.rfgir"
    path.write_bytes(head)
    with pytest.raises(ConfigurationError, match="truncated"):
        read_ir(path)


def test_header_with_no_occupied_taps_and_unaddressable_channels_is_rejected(tmp_path):
    """K = 0 leaves no payload to bound 2^30 x 2^30 channels and pulses."""
    head = struct.pack("<8sIIIdddI", b"RFGIR002", 2 ** 30, 2 ** 30, 1, 5e6, 0.0, 1e3, 0)
    path = tmp_path / "empty.rfgir"
    path.write_bytes(head)
    with pytest.raises(ConfigurationError, match="too many elements"):
        read_ir(path)


@pytest.mark.parametrize("field", [4, 6])      # the sample rate and the PRF
def test_impulse_response_with_nan_rate_is_rejected(field, valid):
    path, good = valid["impulse-response"]
    header = FORMATS["impulse-response"][2]
    fields = list(header.unpack(good[:header.size]))
    fields[field] = float("nan")
    path.write_bytes(header.pack(*fields) + good[header.size:])
    with pytest.raises(ConfigurationError):
        read_ir(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_non_finite_payload_is_rejected(fmt, value, valid):
    """One NaN or infinite I or Q value, at the start, the middle or the
    end of the payload, is rejected."""
    _, reader, header, *_ = FORMATS[fmt]
    path, good = valid[fmt]
    start = header.size
    if fmt == "impulse-response":       # the payload follows the K tap indices
        start += 4 * header.unpack(good[:header.size])[-1]
    count = (len(good) - start) // 4
    for index in (0, count // 2 + 1, count - 1):
        blob = bytearray(good)
        struct.pack_into("<f", blob, start + 4 * index, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigurationError, match="non-finite"):
            reader(path)


def test_the_valid_impulse_response_stores_its_occupied_taps_only(valid):
    path, good = valid["impulse-response"]
    path.write_bytes(good)
    ir = read_ir(path)
    assert ir.support.tolist() == [0, 2, 3, 5] and ir.num_taps == 6
    assert len(good) == IR_HEADER.size + 4 * 4 + 8 * 2 * 3 * 4


@pytest.mark.parametrize("name", sorted(HOSTILE_IR_FILES))
def test_hostile_impulse_response_is_rejected_before_its_payload_is_read(
        name, tmp_path, monkeypatch):
    """A support that is unsorted, repeated or out of range, more
    occupied taps than taps, a cut support section, and a header whose
    N M K disagrees with the file size: each raises ConfigurationError,
    and no payload byte is read or allocated first."""
    blob, message = HOSTILE_IR_FILES[name]
    path = tmp_path / f"{name}.rfgir"
    path.write_bytes(blob)
    reads = []
    read_exact = binfile._read_exact

    def recording(f, nbytes, *args):
        reads.append(nbytes)
        return read_exact(f, nbytes, *args)

    monkeypatch.setattr(binfile, "_read_exact", recording)
    with pytest.raises(ConfigurationError, match=message):
        read_ir(path)
    k = IR_HEADER.unpack(blob[:IR_HEADER.size])[-1] if len(blob) >= IR_HEADER.size else 0
    assert reads in ([], [4 * k])      # at most the support words


def test_an_empty_support_reads_back(tmp_path):
    """An all-shadowed channel stores no taps at all."""
    path = tmp_path / "empty.rfgir"
    path.write_bytes(ir_blob(2, 3, 6, []))
    ir = read_ir(path)
    assert ir.taps.shape == (2, 3, 0) and ir.num_taps == 6
    assert not ir.dense().any()
