"""Digit blocks and digit strings: construction, counting, enumeration, file IO.

A block is a finite string of digits drawn from ``{0, ..., base-1}``; a digit
string is a finite string of non-negative integers with no base attached.
Occurrence counting is always overlapping, with 1-based start positions.

Digits are arbitrary-precision integers at the API boundary.  Internally a
digit sequence is packed as ``bytes`` whenever every digit fits in one byte,
which keeps multi-megabyte blocks cheap and lets the counting routines use
C-speed scans; anything larger falls back to a tuple of ints.

A ``ConcatSpec`` (copies of a few distinct blocks) is never materialized
implicitly: ``tally_blocks`` counts its windows from the distinct blocks,
and only ``concat`` builds its digits, under the size cap.
"""
from __future__ import annotations

import itertools
import struct
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError, NeedsMoreDigitsError, SizeLimitError
from .limits import resolve_cap

_TALLY_CHUNK = 1 << 22
# byte strings from this length on are scanned with numpy, whose fixed cost
# per call outweighs the builtin scan on shorter ones
_NUMPY_SCAN = 256
# concat joins repeated references to one slab of about this many digits per
# part, so building a text takes little more memory than the text itself
_JOIN_SLAB = 1 << 20


def _pack_digits(digits) -> bytes | tuple[int, ...]:
    """Canonicalize a digit sequence: bytes iff every digit fits in a byte."""
    if isinstance(digits, bytes):
        return digits
    if isinstance(digits, bytearray):
        return bytes(digits)
    packed = tuple(int(d) for d in digits)
    for d in packed:
        if d < 0:
            raise ValueError(f"digits must be non-negative, got {d}")
    if packed and max(packed) <= 0xFF:
        return bytes(packed)
    if not packed:
        return b""
    return packed


def digit_data(x) -> bytes | tuple[int, ...]:
    """Raw packed digit sequence behind a Block/DigitString/plain sequence.

    A ConcatSpec is refused: its digits are built only by ``concat``, which
    honours the size cap.
    """
    if isinstance(x, (Block, DigitString)):
        return x.digits
    if isinstance(x, ConcatSpec):
        raise TypeError("a ConcatSpec is not materialized implicitly; use concat(spec, cap=...)")
    return _pack_digits(x)


def max_digit(x) -> int:
    """Largest digit of a nonempty packed sequence or of a ConcatSpec.

    Long packed bytes are scanned with numpy; a ConcatSpec is read from the
    distinct blocks of its nonzero parts.
    """
    if isinstance(x, ConcatSpec):
        return max(max_digit(b.digits) for m, b in x.parts if m and len(b))
    if isinstance(x, (bytes, bytearray)) and len(x) >= _NUMPY_SCAN:
        return int(np.frombuffer(x, dtype=np.uint8).max())
    return max(x)


@dataclass(frozen=True)
class DigitString:
    """Immutable string of non-negative integer digits, no base attached."""

    digits: bytes | tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", _pack_digits(self.digits))

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return DigitString(self.digits[idx])
        return self.digits[idx]

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.digits)


@dataclass(frozen=True)
class Block:
    """A digit string over ``{0, ..., base-1}`` for a fixed base >= 2."""

    base: int
    digits: bytes | tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.base, int) or self.base < 2:
            raise ValueError(f"block base must be an integer >= 2, got {self.base}")
        packed = _pack_digits(self.digits)
        if len(packed) > 0 and (top := max_digit(packed)) >= self.base:
            raise ValueError(f"digit {top} out of range for base {self.base}")
        object.__setattr__(self, "digits", packed)

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Block(self.base, self.digits[idx])
        return self.digits[idx]

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.digits)

    def to_json(self) -> dict:
        return {"digits": list(self.digits), "base": self.base}

    @classmethod
    def from_json(cls, obj: dict) -> "Block":
        return cls(base=int(obj["base"]), digits=obj["digits"])


@dataclass(frozen=True)
class ConcatSpec:
    """Concatenation recipe: ordered (multiplicity, block) parts.

    Multiplicities are >= 0 and at least one must be positive.
    ``length`` (and ``len`` while it fits an index) is the number of digits
    described, and iteration yields them lazily; neither materializes the
    concatenation.
    """

    parts: tuple[tuple[int, Block], ...]

    def __post_init__(self):
        parts = tuple((int(m), b) for m, b in self.parts)
        for m, b in parts:
            if m < 0:
                raise InvalidSpecError(f"multiplicity must be >= 0, got {m}")
            if not isinstance(b, (Block, DigitString)):
                raise InvalidSpecError("concat parts must pair an int with a Block")
        if not any(m > 0 for m, _ in parts):
            raise InvalidSpecError("at least one multiplicity must be positive")
        object.__setattr__(self, "parts", parts)

    @property
    def length(self) -> int:
        """Number of digits described, as an unbounded int."""
        return sum(m * len(b) for m, b in self.parts)

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        return itertools.chain.from_iterable(
            itertools.chain.from_iterable(itertools.repeat(b.digits, m)) for m, b in self.parts
        )


def concat(spec, cap: int | None = None) -> DigitString:
    """Concatenate blocks with multiplicities: m1*B1 then m2*B2, etc.

    ``spec`` is a ConcatSpec or a sequence of (multiplicity, block) pairs.
    Zero multiplicities contribute nothing; all-zero spec is rejected.
    The digits built count against the size cap.
    """
    if not isinstance(spec, ConcatSpec):
        spec = ConcatSpec(tuple(spec))
    total = spec.length
    limit = resolve_cap(cap)
    if total > limit:
        raise SizeLimitError(total, limit)
    raws = []
    for mult, blk in spec.parts:
        if mult == 0 or len(blk) == 0:
            continue
        raws.append((mult, digit_data(blk)))
    if all(isinstance(r, bytes) for _, r in raws):
        pieces: list[bytes] = []
        for mult, raw in raws:
            per = min(mult, max(1, _JOIN_SLAB // len(raw)))
            slabs, rest = divmod(mult, per)
            pieces += [raw * per] * slabs
            if rest:
                pieces.append(raw * rest)
        return DigitString(b"".join(pieces))
    out: list[int] = []
    for mult, raw in raws:
        out.extend(tuple(raw) * mult)
    return DigitString(tuple(out))


def count_occurrences(block, text) -> int:
    """Number of (overlapping) occurrences of ``block`` inside ``text``."""
    pat = digit_data(block)
    hay = digit_data(text)
    k = len(pat)
    if k == 0:
        raise ValueError("occurrence counting needs a nonempty block")
    if k > len(hay):
        return 0
    if isinstance(hay, bytes):
        if not isinstance(pat, bytes):
            return 0  # some pattern digit exceeds every text digit
        count = 0
        start = 0
        while True:
            idx = hay.find(pat, start)
            if idx < 0:
                return count
            count += 1
            start = idx + 1
    patt = tuple(pat)
    hayt = tuple(hay)
    return sum(1 for i in range(len(hayt) - k + 1) if hayt[i : i + k] == patt)


def count_prefix_occurrences(block, text, n: int) -> int:
    """Occurrences of ``block`` starting at positions 1..n of ``text``.

    Equals counting over the prefix of length n + len(block) - 1; raises
    NeedsMoreDigitsError when the text is shorter than that.
    """
    pat = digit_data(block)
    hay = digit_data(text)
    k = len(pat)
    if k == 0:
        raise ValueError("occurrence counting needs a nonempty block")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"position bound must be an integer >= 1, got {n}")
    required = n + k - 1
    if len(hay) < required:
        raise NeedsMoreDigitsError(required, available=len(hay))
    return count_occurrences(pat, hay[:required])


def count_top_digit(block, b: int) -> int:
    """How many digits of ``block`` equal ``b`` (the top digit of base b+1)."""
    if not isinstance(b, int) or b < 1:
        raise ValueError(f"top digit must be an integer >= 1, got {b}")
    raw = digit_data(block)
    if len(raw) > 0 and (top := max_digit(raw)) > b:
        raise ValueError(f"digit {top} exceeds top digit {b}")
    if isinstance(raw, bytes) and b <= 0xFF:
        return raw.count(b)
    return sum(1 for d in raw if d == b)


def enumerate_blocks(base: int, length: int, cap: int | None = None) -> Iterator[Block]:
    """Yield every base-``base`` block of ``length`` digits in lexicographic order."""
    if not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base}")
    if not isinstance(length, int) or length < 0:
        raise ValueError(f"length must be an integer >= 0, got {length}")
    total = base**length
    limit = resolve_cap(cap)
    if total > limit:
        raise SizeLimitError(total, limit, what="enumerated blocks")
    for tup in itertools.product(range(base), repeat=length):
        yield Block(base, tup)


def count_straddling(block, left, right) -> int:
    """Occurrences of ``block`` split across the boundary ``left | right``.

    Counts split indices s in [2, len(block)] where the first s-1 digits are
    a suffix of ``left`` and the rest are a prefix of ``right``.  A length-1
    block can never straddle.
    """
    b = tuple(digit_data(block))
    c = tuple(digit_data(left))
    d = tuple(digit_data(right))
    k = len(b)
    if k == 0:
        raise ValueError("straddle counting needs a nonempty block")
    total = 0
    for s in range(2, k + 1):
        head, tail = b[: s - 1], b[s - 1 :]
        if len(head) > len(c) or len(tail) > len(d):
            continue
        if c[len(c) - len(head) :] == head and d[: len(tail)] == tail:
            total += 1
    return total


def tally_blocks(text, length: int, alphabet_size: int | None = None) -> dict[tuple[int, ...], int]:
    """Exact counts of every length-``length`` window occurring in ``text``.

    Returns a dict keyed by digit tuples; absent keys mean count zero.
    ``text`` is a digit sequence or a ConcatSpec.  A ConcatSpec is counted
    from its blocks without building its digits, so the work grows with the
    total length of its parts' blocks, not with the length described, and
    the ``alphabet_size`` hint is not needed.  Byte-packed input with window
    length 1 or 2 takes a vectorized path, so multi-megadigit scans stay
    fast; counts are exact integers either way.
    """
    if not isinstance(length, int) or length < 1:
        raise ValueError(f"window length must be an integer >= 1, got {length}")
    if isinstance(text, ConcatSpec):
        return _tally_runs(text, length)
    return _tally_flat(digit_data(text), length, alphabet_size)


def _tally_flat(seq, length: int, alphabet_size: int | None = None) -> dict[tuple[int, ...], int]:
    """tally_blocks over one packed digit sequence."""
    n = len(seq)
    if n < length:
        return {}
    if isinstance(seq, bytes) and length <= 2:
        alpha = max_digit(seq) + 1
        if alphabet_size is not None:
            alpha = max(alpha, int(alphabet_size))
        if length == 1:
            counts = np.zeros(alpha, dtype=np.int64)
            for lo in range(0, n, _TALLY_CHUNK):
                arr = np.frombuffer(seq[lo : lo + _TALLY_CHUNK], dtype=np.uint8)
                counts += np.bincount(arr, minlength=alpha)
            return {(d,): int(c) for d, c in enumerate(counts) if c}
        counts = np.zeros(alpha * alpha, dtype=np.int64)
        for lo in range(0, n - 1, _TALLY_CHUNK):
            arr = np.frombuffer(seq[lo : lo + _TALLY_CHUNK + 1], dtype=np.uint8)
            codes = arr[:-1].astype(np.int64) * alpha + arr[1:]
            counts += np.bincount(codes, minlength=alpha * alpha)
        return {
            (code // alpha, code % alpha): int(c)
            for code, c in enumerate(counts)
            if c
        }
    seqt = tuple(seq)
    if length == 2:
        pairs = Counter(zip(seqt, seqt[1:]))
        return {pair: cnt for pair, cnt in pairs.items()}
    windows = Counter(seqt[i : i + length] for i in range(n - length + 1))
    return dict(windows)


def _cyclic(raw, start: int, k: int) -> tuple[int, ...]:
    """Digits start .. start+k-1 of ``raw`` repeated forever (0 <= start < len)."""
    if start + k <= len(raw):
        return tuple(raw[start : start + k])
    return tuple(raw[(start + i) % len(raw)] for i in range(k))


def _tally_runs(spec: ConcatSpec, k: int) -> dict[tuple[int, ...], int]:
    """Window counts of m1*B1 m2*B2 ... from the distinct blocks alone.

    Every window is counted at the part it starts in.  In a part of m
    copies of a length-L block, the window starting at offset p of copy j
    stays inside the part iff j*L + p + k <= m*L: that holds for
    m - (p+k-1)//L copies, i.e. all m when the window fits inside one copy,
    m - 1 when it crosses one seam between copies, and so on.  The at most
    k - 1 windows that start in a part and leave it are read off the
    part's last k - 1 digits and the next k - 1 digits of the text, each
    counted once.  Counts are exact Python ints.
    """
    counts: dict[tuple[int, ...], int] = defaultdict(int)
    follow: tuple[int, ...] = ()  # the first k-1 digits after the current part
    for m, blk in reversed(spec.parts):
        raw = blk.digits
        size = len(raw)
        if m == 0 or size == 0:
            continue
        for p in range(size):
            copies = m - (p + k - 1) // size
            if copies > 0:
                counts[_cyclic(raw, p, k)] += copies
        edge = min(k - 1, m * size)
        local = _cyclic(raw, -edge % size, edge) + follow
        for j in range(len(local) - k + 1):
            counts[local[j : j + k]] += 1
        follow = (_cyclic(raw, 0, edge) + follow)[: k - 1]
    return dict(counts)


# ---------------------------------------------------------------------------
# Binary digit files: 8-byte little-endian count, then unsigned LEB128 digits.
# ---------------------------------------------------------------------------


def _leb128_encode(value: int, out: bytearray) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def write_digit_file(path, digits, count: int | None = None) -> int:
    """Write digits to ``path`` in the length-prefixed binary format.

    ``digits`` may be a Block/DigitString/sequence, or any iterable when
    ``count`` is given.  Returns the number of digits written.
    """
    if count is None:
        try:
            count = len(digits)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ValueError("count is required for sizeless digit iterables") from exc
    count = int(count)
    if count < 0:
        raise ValueError(f"digit count must be >= 0, got {count}")
    if isinstance(digits, (Block, DigitString)):
        digits = digits.digits
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", count))
        if isinstance(digits, (bytes, bytearray)) and (
            len(digits) == 0 or max_digit(digits) < 0x80
        ):
            # every digit < 128 encodes as itself
            if len(digits) != count:
                raise ValueError(f"count {count} does not match {len(digits)} digits")
            fh.write(bytes(digits))
            return count
        buf = bytearray()
        written = 0
        for d in itertools.islice(iter(digits), count):
            d = int(d)
            if d < 0:
                raise ValueError(f"digits must be non-negative, got {d}")
            _leb128_encode(d, buf)
            written += 1
            if len(buf) >= _TALLY_CHUNK:
                fh.write(buf)
                buf.clear()
        fh.write(buf)
    if written != count:
        raise ValueError(f"iterable yielded {written} digits, expected {count}")
    return count


def read_digit_file(path) -> DigitString:
    """Read a digit file written by :func:`write_digit_file`."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated header")
        (count,) = struct.unpack("<Q", header)
        payload = fh.read()
    if len(payload) == count and (count == 0 or max_digit(payload) < 0x80):
        return DigitString(payload)
    digits: list[int] = []
    value = 0
    shift = 0
    for byte in payload:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            digits.append(value)
            value = 0
            shift = 0
    if shift != 0:
        raise ValueError(f"{path}: dangling LEB128 continuation")
    if len(digits) != count:
        raise ValueError(f"{path}: header says {count} digits, file holds {len(digits)}")
    return DigitString(tuple(digits))
