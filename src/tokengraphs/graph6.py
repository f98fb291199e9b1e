"""Bit-exact graph6 encoding and decoding.

Header: n+63 for n <= 62; '~' plus three 6-bit bytes for n <= 258047;
'~~' plus six 6-bit bytes beyond that. Edge bits walk the upper triangle
column by column: (0,1), (0,2), (1,2), (0,3), ... packed into 6-bit groups
(first bit is the most significant), each group offset by 63, zero-padded.

Both directions pass the upper triangle through base64 as one byte stream
(bit t of `_upper_bits` is bit t of the stream read little-endian, each byte
bit-reversed) with the alphabet shifted: encoding is `_graph6`, and decoding
is `_parse`, which checks a line and undoes `_graph6`, then `_unpack`, which
undoes `_upper_bits` one column at a time.
"""

from __future__ import annotations

import base64

from .errors import MalformedGraph6
from .graphs import Graph, _bits


# the wide order fields: t tildes, then 3t bytes of n, for n up to the bound
_WIDE_ORDERS = ((1, 258047), (2, 68719476735))

_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_BASE64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6_ALPHABET = bytes(range(63, 127))  # '?' .. '~', the 6-bit values plus 63
_BASE64_TO_GRAPH6 = bytes.maketrans(_BASE64_ALPHABET, _GRAPH6_ALPHABET)
_GRAPH6_TO_BASE64 = bytes.maketrans(_GRAPH6_ALPHABET, _BASE64_ALPHABET)


def _encode_n(n: int) -> list[int]:
    if n <= 62:
        return [n + 63]
    for tildes, top in _WIDE_ORDERS:
        if n <= top:
            shifts = range(18 * tildes - 6, -1, -6)
            return [126] * tildes + [(n >> s & 63) + 63 for s in shifts]
    raise ValueError(f"graph6 cannot encode n = {n}")


def _upper_bits(adj) -> int:
    """The edges ij, i < j, of rows `adj` as one int: bit j*(j-1)/2 + i per edge."""
    return sum((row & ((1 << j) - 1)) << (j * (j - 1) // 2) for j, row in enumerate(adj))


def _graph6(n: int, bits: int) -> str:
    """graph6 of order `n` whose upper triangle is `bits` (see `_upper_bits`)."""
    nbits = n * (n - 1) // 2
    # bytes whose bits, read most significant first, are bits 0, 1, 2, ... of
    # `bits`: base64 cuts them into 6-bit groups as graph6 does, so only the
    # alphabet differs; whole 3-byte blocks keep '=' padding out of it
    stream = bits.to_bytes((nbits + 23) // 24 * 3, "little").translate(_REVERSED_BYTE)
    groups = base64.b64encode(stream)[: (nbits + 5) // 6].translate(_BASE64_TO_GRAPH6)
    return bytes(_encode_n(n)).decode() + groups.decode()


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a single graph6 line (no trailing newline)."""
    return _graph6(g.n, _upper_bits(g._adj))


def _parse(text: str | bytes) -> tuple[int, int, bytes]:
    """Check one graph6 line and undo `_graph6`: its order, edge count and packed edge bits.

    Read little-endian, bit t of the returned stream is bit t of `_upper_bits`.
    Raises MalformedGraph6 with a byte offset.
    """
    header = b">>graph6<<"
    data = text
    if isinstance(text, str):
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            skip = len(header) if text.startswith(header.decode()) else 0
            message = f"character {text[exc.start]!r} is not ASCII"
            raise MalformedGraph6(message, exc.start - skip) from None
    data = data.rstrip(b"\r\n").removeprefix(header)
    if not data:
        raise MalformedGraph6("empty input", 0)
    stray = data.translate(None, _GRAPH6_ALPHABET)
    if stray:
        raise MalformedGraph6(f"byte {stray[0]!r} outside graph6 range", data.index(stray[0]))

    tildes = 2 if data.startswith(b"~~") else 1 if data.startswith(b"~") else 0
    pos = max(1, 4 * tildes)  # the order byte, or the tildes and 3 bytes of n per tilde
    if len(data) < pos:
        raise MalformedGraph6(f"truncated {pos}-byte order field", len(data))
    n = 0
    for b in data[tildes:pos]:
        n = (n << 6) | (b - 63)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise MalformedGraph6(
            f"expected {nbytes} edge bytes for n = {n}, got {len(data) - pos}",
            min(len(data), pos + nbytes),
        )
    if nbytes and (data[-1] - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise MalformedGraph6("nonzero padding bits", pos + nbytes - 1)
    # the edge bytes, padded with zero groups ('?') to whole 4-byte blocks;
    # rebinding `data` frees a line encoded here before the next copy is made
    data = b"".join((memoryview(data)[pos:], b"?" * (-nbytes % 4)))
    stream = base64.b64decode(data.translate(_GRAPH6_TO_BASE64)).translate(_REVERSED_BYTE)
    return n, int.from_bytes(stream, "little").bit_count(), stream


def _unpack(n: int, stream: bytes) -> list[int]:
    """The adjacency rows of order `n` whose upper triangle is `stream`; inverse of `_upper_bits`.

    Column j, the edges ij with i < j, is the next j bits of the stream and
    the low part of row j. The bits are read through a window a few columns
    wide, refilled a column's width of bytes at a time, so no shift touches
    the whole stream.
    """
    adj = [0] * n
    window = ahead = pos = 0  # `window` holds the `ahead` unread bits before byte `pos`
    for j in range(1, n):
        if ahead < j:
            window |= int.from_bytes(stream[pos : pos + j], "little") << ahead
            ahead += 8 * j
            pos += j
        adj[j] = col = window & ((1 << j) - 1)
        window >>= j
        ahead -= j
        for i in _bits(col):
            adj[i] |= 1 << j
    return adj


def decode_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 line; raises MalformedGraph6 with a byte offset."""
    n, m, stream = _parse(text)
    return Graph._from_adj(_unpack(n, stream), m)


def _lines(text: str):
    """The non-blank lines of a multi-line graph6 string, stripped."""
    for line in text.splitlines():
        line = line.strip()
        if line:
            yield line


def iter_graph6(text: str):
    """Yield graphs from a multi-line graph6 string, skipping blank lines."""
    return map(decode_graph6, _lines(text))
