"""FNV-1a 64 gives the published values and the byte-at-a-time loop's, at every length."""

import random

import numpy as np
import pytest

from claimaudit import _rng
from claimaudit._rng import fnv1a64


def reference_fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


@pytest.mark.parametrize(
    ("text", "expected"),
    [("", 0xCBF29CE484222325), ("a", 0xAF63DC4C8601EC8C), ("foobar", 0x85944171F73967E8)],
)
def test_published_vectors(text, expected):
    assert fnv1a64(text) == expected
    assert fnv1a64(text.encode("utf-8")) == expected


def test_every_length_up_to_300_matches_the_loop():
    # Crosses the cut-over from the plain loop to the table walk.
    stream = random.Random(13)
    data = bytes(stream.randrange(256) for _ in range(300))
    for length in range(301):
        assert fnv1a64(data[:length]) == reference_fnv1a64(data[:length]), length


@pytest.mark.parametrize("offset", [-1, 0, 1, _rng._BLOCK + 1])
def test_block_boundaries_match_the_loop(offset):
    stream = random.Random(offset)
    data = bytes(stream.randrange(256) for _ in range(_rng._BLOCK + offset))
    assert fnv1a64(data) == reference_fnv1a64(data)


def test_all_ones_and_all_zeros_match_the_loop():
    for byte in (0x00, 0xFF):
        data = bytes([byte]) * 1000
        assert fnv1a64(data) == reference_fnv1a64(data)


def test_non_ascii_text_hashes_its_utf8_bytes():
    text = 'Ärzte fanden „keine Wirkung“ — 効果なし \\ "quoted" ✓ ' * 8
    assert len(text.encode("utf-8")) > 300
    assert fnv1a64(text) == fnv1a64(text.encode("utf-8")) == reference_fnv1a64(text.encode("utf-8"))


def test_powers_table_is_read_only():
    # Bytes cannot be written, nor can the numpy view the long path takes of them.
    with pytest.raises(TypeError):
        _rng._POWERS[0] = 1
    table = np.frombuffer(_rng._POWERS, "<u8")
    with pytest.raises(ValueError):
        table[0] = 1
    prime = 0x100000001B3
    assert [int(power) for power in table[[0, -2, -1]]] == [pow(prime, e, 2**64) for e in (_rng._BLOCK, 2, 1)]
