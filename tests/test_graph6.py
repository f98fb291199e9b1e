import random

import pytest

from tokengraphs import (
    Graph,
    MalformedGraph6,
    build_token_graph,
    complete_graph,
    decode_graph6,
    empty_graph,
    encode_graph6,
    iter_graph6,
    path_graph,
)

from util import random_graph, reference_graph6


def test_known_small_encodings():
    assert encode_graph6(empty_graph(0)) == "?"
    assert encode_graph6(empty_graph(1)) == "@"
    assert encode_graph6(empty_graph(2)) == "A?"
    assert encode_graph6(Graph(2, [(0, 1)])) == "A_"
    assert encode_graph6(complete_graph(4)) == "C~"
    assert decode_graph6("C~") == complete_graph(4)
    assert decode_graph6("?").n == 0


def test_round_trip_small():
    rng = random.Random(606)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 20), rng.random())
        assert decode_graph6(encode_graph6(g)) == g


def test_round_trip_long_order_header():
    """Orders above 62 switch to the '~' + 3-byte header."""
    rng = random.Random(607)
    for n in (63, 64, 70):
        g = random_graph(rng, n, 0.1)
        text = encode_graph6(g)
        assert text.startswith("~")
        assert decode_graph6(text) == g


def test_encoding_matches_the_pair_by_pair_definition():
    """Every order up to 80, across the header switch at 62/63."""
    rng = random.Random(608)
    for n in range(81):
        for p in (0.0, rng.random(), 1.0):
            g = random_graph(rng, n, p)
            assert encode_graph6(g) == reference_graph6(g)


def test_round_trip_of_a_large_token_graph():
    """F_6(K_12): 924 vertices, a wide header and 426,426 edge bits."""
    g = build_token_graph(complete_graph(12), 6).graph
    text = encode_graph6(g)
    assert g.n == 924 and text.startswith("~")
    assert text == reference_graph6(g)
    assert decode_graph6(text) == g


def test_decode_accepts_bytes_newline_and_header():
    g = path_graph(5)
    text = encode_graph6(g)
    assert decode_graph6(text.encode("ascii")) == g
    assert decode_graph6(text + "\n") == g
    assert decode_graph6(text + "\r\n") == g
    assert decode_graph6(">>graph6<<" + text) == g


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "\n",
        "C",  # truncated edge bytes for n = 4
        "C~~",  # extra edge byte
        "C" + chr(30),  # byte below the printable range
        "~C",  # truncated long order header
        "B" + chr(63 + 1),  # n = 3 needs zero padding in the low bits
    ],
)
def test_malformed_inputs_rejected(bad):
    with pytest.raises(MalformedGraph6):
        decode_graph6(bad)


def test_malformed_error_carries_offset():
    try:
        decode_graph6("C" + chr(30))
    except MalformedGraph6 as exc:
        assert exc.offset == 1
    else:
        raise AssertionError("decode accepted a bad byte")


@pytest.mark.parametrize("text", ["B\u00e9", ">>graph6<<B\u00e9", "B\u2603"])
def test_non_ascii_text_is_rejected(text):
    """A non-ASCII character is not read as '?', which is valid graph6."""
    with pytest.raises(MalformedGraph6) as info:
        decode_graph6(text)
    assert info.value.offset == 1


def test_padding_bits_must_be_zero():
    # n = 3 has three edge bits; the trailing three bits must stay zero.
    g = decode_graph6("B" + chr(0b111000 + 63))
    assert g == complete_graph(3)
    with pytest.raises(MalformedGraph6):
        decode_graph6("B" + chr(0b111100 + 63))


def test_iter_graph6_skips_blank_lines():
    text = "\n".join(["C~", "", "  ", "A_", ""])
    graphs = list(iter_graph6(text))
    assert graphs == [complete_graph(4), Graph(2, [(0, 1)])]
