"""Bit-exact graph6 encoding and decoding.

Header: n+63 for n <= 62; '~' plus three 6-bit bytes for n <= 258047;
'~~' plus six 6-bit bytes beyond that. Edge bits walk the upper triangle
column by column: (0,1), (0,2), (1,2), (0,3), ... packed into 6-bit groups
(first bit is the most significant), each group offset by 63, zero-padded.
"""

from __future__ import annotations

import base64

from .errors import MalformedGraph6
from .graphs import Graph


# the wide order fields: t tildes, then 3t bytes of n, for n up to the bound
_WIDE_ORDERS = ((1, 258047), (2, 68719476735))

_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)),
)


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


def decode_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 line; raises MalformedGraph6 with a byte offset."""
    header = b">>graph6<<"
    if isinstance(text, bytes):
        data = text
    else:
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            skip = len(header) if text.startswith(header.decode()) else 0
            raise MalformedGraph6(
                f"character {text[exc.start]!r} is not ASCII", exc.start - skip
            ) from None
    data = data.rstrip(b"\r\n")
    if data.startswith(header):
        data = data[len(header):]
    if not data:
        raise MalformedGraph6("empty input", 0)
    for i, b in enumerate(data):
        if not 63 <= b <= 126:
            raise MalformedGraph6(f"byte {b!r} outside graph6 range", i)

    if data[0] == 126:
        tildes = 2 if data[1:2] == b"~" else 1
        pos = 4 * tildes  # the tildes and 3 bytes of n per tilde
        if len(data) < pos:
            raise MalformedGraph6(f"truncated {pos}-byte order field", len(data))
        n = 0
        for b in data[tildes:pos]:
            n = (n << 6) | (b - 63)
    else:
        n = data[0] - 63
        pos = 1

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise MalformedGraph6(
            f"expected {nbytes} edge bytes for n = {n}, got {len(data) - pos}",
            min(len(data), pos + nbytes),
        )

    adj = [0] * n
    i, j = 0, 1
    done = 0
    for off in range(nbytes):
        group = data[pos + off] - 63
        take = min(6, nbits - done)
        if take < 6 and group & ((1 << (6 - take)) - 1):
            raise MalformedGraph6("nonzero padding bits", pos + off)
        for t in range(take):
            if group >> (5 - t) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            i += 1
            if i == j:
                i = 0
                j += 1
        done += take
    return Graph._from_adj(adj)


def iter_graph6(text: str):
    """Yield graphs from a multi-line graph6 string, skipping blank lines."""
    for line in text.splitlines():
        line = line.strip()
        if line:
            yield decode_graph6(line)
