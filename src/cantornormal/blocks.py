"""Digit blocks and digit strings: construction, counting, enumeration, file IO.

A block is a finite string of digits drawn from ``{0, ..., base-1}``; a digit
string is a finite string of non-negative integers with no base attached.
Occurrence counting is always overlapping, with 1-based start positions.

Digits are arbitrary-precision integers at the API boundary.  Internally a
digit sequence is one read-only numpy array whose dtype is the smallest
unsigned type holding its top digit (uint8 up to uint64), or ``object``
past 2**64 - 1 so digits of any size still work.  ``_pack_digits`` is the
only place that looks at the input's type; every kernel below has one numpy
path for all dtypes, and digits leave the array as Python ints.

A ``ConcatSpec`` (copies of a few distinct blocks) is never materialized
implicitly: ``tally_blocks`` and ``count_run_occurrences`` count its
windows from the distinct blocks, and only ``concat`` builds its digits,
under the size cap.
"""
from __future__ import annotations

import dataclasses
import itertools
import struct
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, NeedsMoreDigitsError
from .limits import check_cap

# windows handled per numpy pass, so scans of long texts use bounded memory
_TALLY_CHUNK = 1 << 22


def _pack_digits(digits, base: int | None = None) -> np.ndarray:
    """The packed form of a digit sequence, validated.

    Accepts bytes, bytearray, an unsigned numpy array (shared when it is
    read-only, else copied) or any iterable of integers.  Digits must be
    non-negative, and below ``base`` when one is given.
    """
    top = None
    if isinstance(digits, np.ndarray) and digits.dtype.kind == "u":
        arr = digits.copy() if digits.flags.writeable else digits
    elif isinstance(digits, (bytes, bytearray)):
        arr = np.frombuffer(bytes(digits), dtype=np.uint8)
    else:
        vals = list(map(int, digits))
        low, top = (min(vals), max(vals)) if vals else (0, 0)
        if low < 0:
            raise ValueError(f"digits must be non-negative, got {low}")
        arr = np.array(vals, dtype=np.min_scalar_type(top))
    arr.setflags(write=False)
    if base is not None and len(arr):
        if top is None:
            top = int(arr.max())
        if top >= base:
            raise ValueError(f"digit {top} out of range for base {base}")
    return arr


def digit_data(x) -> np.ndarray:
    """Packed digit array behind a Block/DigitString/plain sequence.

    A ConcatSpec is refused: its digits are built only by ``concat``, which
    honours the size cap.
    """
    if isinstance(x, (Block, DigitString)):
        return x.digits
    if isinstance(x, ConcatSpec):
        raise TypeError("a ConcatSpec is not materialized implicitly; use concat(spec)")
    return _pack_digits(x)


def max_digit(x) -> int:
    """Largest digit of a nonempty digit sequence or of a ConcatSpec.

    A ConcatSpec is read from the distinct blocks of its nonzero parts.
    """
    if isinstance(x, ConcatSpec):
        x = np.concatenate([b.digits for m, b in x.parts if m])
    return int(digit_data(x).max())


class _Digits:
    """Read access shared by DigitString and Block over the packed array."""

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits.tolist())

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return dataclasses.replace(self, digits=self.digits[idx])
        return self.digits.item(idx)

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.digits.tolist())

    def _fields(self) -> tuple:
        """Fields other than the digits, compared and hashed with them."""
        return ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields() and np.array_equal(self.digits, other.digits)

    def __hash__(self) -> int:
        return hash((self._fields(), self.as_tuple()))


@dataclass(frozen=True, eq=False)
class DigitString(_Digits):
    """Immutable string of non-negative integer digits, no base attached."""

    digits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "digits", _pack_digits(self.digits))


@dataclass(frozen=True, eq=False)
class Block(_Digits):
    """A digit string over ``{0, ..., base-1}`` for a fixed base >= 2."""

    base: int
    digits: np.ndarray

    def __post_init__(self):
        if not isinstance(self.base, int) or self.base < 2:
            raise ValueError(f"block base must be an integer >= 2, got {self.base}")
        object.__setattr__(self, "digits", _pack_digits(self.digits, self.base))

    def _fields(self) -> tuple:
        return (self.base,)

    def to_json(self) -> dict:
        return {"digits": self.digits.tolist(), "base": self.base}

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
            itertools.chain.from_iterable(itertools.repeat(b.as_tuple(), m)) for m, b in self.parts
        )


def concat(spec) -> DigitString:
    """Concatenate blocks with multiplicities: m1*B1 then m2*B2, etc.

    ``spec`` is a ConcatSpec or a sequence of (multiplicity, block) pairs.
    Zero multiplicities contribute nothing; all-zero spec is rejected.
    The digits built count against the size cap.
    """
    if not isinstance(spec, ConcatSpec):
        spec = ConcatSpec(tuple(spec))
    total = spec.length
    check_cap(total)
    parts = [(m, b.digits) for m, b in spec.parts if m and len(b)]
    out = np.empty(total, dtype=np.result_type(np.uint8, *(raw.dtype for _, raw in parts)))
    pos = 0
    for m, raw in parts:
        # the m copies are the rows of an (m, len) view; the rows filled so
        # far are copied onward, so a part takes about log2(m) array copies
        rows = out[pos : pos + m * len(raw)].reshape(m, len(raw))
        rows[0] = raw
        done = 1
        while done < m:
            rows[done : 2 * done] = rows[: min(done, m - done)]
            done *= 2
        pos += m * len(raw)
    out.setflags(write=False)
    return DigitString(out)


def _windows(seq: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """Overlapping slices of ``seq`` that hold each length-k window once."""
    for lo in range(0, len(seq) - k + 1, _TALLY_CHUNK):
        yield seq[lo : lo + _TALLY_CHUNK + k - 1]


def _match_mask(pat: list[int], seq: np.ndarray, n: int) -> np.ndarray:
    """Mask of the starts 0..n-1 of ``seq`` at which ``pat`` occurs."""
    hit = seq[:n] == pat[0]
    for j in range(1, len(pat)):
        hit &= seq[j : j + n] == pat[j]
    return hit


def _pattern(block) -> list[int]:
    pat = digit_data(block).tolist()
    if not pat:
        raise ValueError("occurrence counting needs a nonempty block")
    return pat


def count_occurrences(block, text) -> int:
    """Number of (overlapping) occurrences of ``block`` inside ``text``."""
    pat = _pattern(block)
    k = len(pat)
    count = 0
    for part in _windows(digit_data(text), k):
        count += int(np.count_nonzero(_match_mask(pat, part, len(part) - k + 1)))
    return count


def count_run_occurrences(block, spec: ConcatSpec) -> int:
    """Occurrences of ``block`` in m1*B1 m2*B2 ... from the distinct blocks alone.

    The walk of ``_tally_runs`` with one vectorized pass per part: a match
    at offset p of a length-L block stays inside its part of m copies for
    m - (p+k-1)//L of them, and the at most k - 1 windows that leave the
    part are matched on its last k - 1 digits followed by the next k - 1
    digits of the text.  Counts are exact Python ints.
    """
    if not isinstance(spec, ConcatSpec):
        raise TypeError("count_run_occurrences counts a ConcatSpec; use count_occurrences on digits")
    pat = _pattern(block)
    k = len(pat)
    count = 0
    follow = np.empty(0, dtype=np.uint8)  # the first k-1 digits after the current part
    for m, blk in reversed(spec.parts):
        size = len(blk)
        if m == 0 or size == 0:
            continue
        # one copy, then the k - 1 digits that follow it while the copies repeat
        ext = np.resize(blk.digits, size + k - 1)
        seams = (np.flatnonzero(_match_mask(pat, ext, size)) + k - 1) // size
        for crossed, hits in enumerate(np.bincount(seams).tolist()):
            count += hits * max(0, m - crossed)
        edge = min(k - 1, m * size)
        local = np.concatenate((ext[-edge % size :][:edge], follow))
        if len(local) >= k:
            count += int(np.count_nonzero(_match_mask(pat, local, len(local) - k + 1)))
        follow = np.concatenate((ext[:edge], follow))[: k - 1]
    return count


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
    return int(np.count_nonzero(raw == b))


def enumerate_blocks(base: int, length: int) -> Iterator[Block]:
    """Yield every base-``base`` block of ``length`` digits in lexicographic order."""
    if not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base}")
    if not isinstance(length, int) or length < 0:
        raise ValueError(f"length must be an integer >= 0, got {length}")
    total = base**length
    check_cap(total, what="enumerated blocks")
    for tup in itertools.product(range(base), repeat=length):
        yield Block(base, tup)


def count_straddling(block, left, right) -> int:
    """Occurrences of ``block`` split across the boundary ``left | right``.

    Every window of the last len(block)-1 digits of ``left`` followed by the
    first len(block)-1 digits of ``right`` crosses the boundary, so those
    are counted.  A length-1 block can never straddle.
    """
    pat = digit_data(block)
    if len(pat) == 0:
        raise ValueError("straddle counting needs a nonempty block")
    tail, head = digit_data(left), digit_data(right)
    seam = np.concatenate((tail[max(0, len(tail) - len(pat) + 1) :], head[: len(pat) - 1]))
    return count_occurrences(pat, seam)


def tally_blocks(text, length: int, alphabet_size: int | None = None) -> dict[tuple[int, ...], int]:
    """Exact counts of every length-``length`` window occurring in ``text``.

    Returns a dict keyed by digit tuples; absent keys mean count zero.
    ``text`` is a digit sequence or a ConcatSpec.  A ConcatSpec is counted
    from its blocks without building its digits, so the work grows with the
    total length of its parts' blocks, not with the length described.  A
    digit sequence is counted by one vectorized pass per chunk at every
    window length; ``alphabet_size`` may only widen the alphabet its window
    codes are formed in.  Counts are exact integers either way.
    """
    if not isinstance(length, int) or length < 1:
        raise ValueError(f"window length must be an integer >= 1, got {length}")
    if isinstance(text, ConcatSpec):
        return _tally_runs(text, length)
    return _tally_flat(digit_data(text), length, alphabet_size)


def _tally_flat(seq: np.ndarray, k: int, alphabet_size: int | None = None) -> dict[tuple[int, ...], int]:
    """tally_blocks over one packed digit array.

    Each window is coded as a base-``alpha`` number (int64 while every code
    fits, Python ints in an object array past that).  Codes are counted with
    a dense ``bincount`` table while alpha**k is no longer than the chunk,
    else by sorting them with ``unique``; keys are decoded back to digits.
    """
    if len(seq) < k:
        return {}
    alpha = max(max_digit(seq) + 1, alphabet_size or 0)
    size = alpha**k
    code_type = np.int64 if size <= 1 << 63 else object
    totals: dict[int, int] = defaultdict(int)
    for part in _windows(seq, k):
        n = len(part) - k + 1
        codes = part[:n].astype(code_type)
        for j in range(1, k):
            codes *= alpha
            # digits are below alpha, so casting them to the code type is exact
            np.add(codes, part[j : j + n], out=codes, casting="unsafe")
        if size <= max(n, 1 << 16):
            table = np.bincount(codes)
            found = np.flatnonzero(table)
            counts = table[found]
        else:
            found, counts = np.unique(codes, return_counts=True)
        for code, c in zip(found.tolist(), counts.tolist()):
            totals[code] += c
    codes = np.array(list(totals), dtype=code_type)
    places = [(codes // alpha ** (k - 1 - j) % alpha).tolist() for j in range(k)]
    return dict(zip(zip(*places), totals.values()))


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
        size = len(blk)
        if m == 0 or size == 0:
            continue
        # copies enough that every window starting in the first is a slice
        raw = blk.as_tuple() * (k // size + 2)
        for p in range(size):
            copies = m - (p + k - 1) // size
            if copies > 0:
                counts[raw[p : p + k]] += copies
        edge = min(k - 1, m * size)
        local = raw[-edge % size :][:edge] + follow
        for j in range(len(local) - k + 1):
            counts[local[j : j + k]] += 1
        follow = (raw[:edge] + follow)[: k - 1]
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
    if isinstance(digits, (Block, DigitString, np.ndarray)):
        digits = digit_data(digits)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", count))
        if isinstance(digits, np.ndarray) and (len(digits) == 0 or max_digit(digits) < 0x80):
            # every digit < 128 encodes as itself
            if len(digits) != count:
                raise ValueError(f"count {count} does not match {len(digits)} digits")
            fh.write(digits.astype(np.uint8).tobytes())
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
