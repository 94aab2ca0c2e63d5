"""Named integer sequences: built-in fixtures, OEIS b-files, comparisons.

The central-coefficient sequences for k = 1, 2, 3 carry OEIS identifiers
(A002426, A005191, A025012).  This module holds fixtures for them, a small
b-file client with an on-disk cache, and a comparison routine that
recomputes terms through both the trace and the spectral paths.  Fixture
terms are the first ten terms of each OEIS entry, typed in from it and not
produced by the package, so a comparison against them checks the routes
against the sequence itself.
"""
from __future__ import annotations

import contextlib
import os
import re
import threading
from pathlib import Path
from typing import Callable, NamedTuple

from ._digits import unlimited_digits
from .circulant import coefficient_via_shift
from .params import Params
from .spectral import central_run

#: k -> OEIS identifier for the central (2k+1)-nomial coefficient sequence.
OEIS_BY_K = {1: "A002426", 2: "A005191", 3: "A025012"}

#: OEIS identifier -> k, inverse of :data:`OEIS_BY_K`.
K_BY_OEIS = {oeis_id: k for k, oeis_id in OEIS_BY_K.items()}

#: k -> the terms n = 0..9 of the sequence, from its OEIS entry.
_PREFIXES = {
    1: (1, 1, 3, 7, 19, 51, 141, 393, 1107, 3139),  # A002426
    2: (1, 1, 5, 19, 85, 381, 1751, 8135, 38165, 180325),  # A005191
    3: (1, 1, 7, 37, 231, 1451, 9331, 60691, 398567, 2636263),  # A025012
}

#: b-file resource for a given id; ids look like A002426, files like b002426.txt.
BFILE_URL = "https://oeis.org/{oeis_id}/b{digits}.txt"

_ID_PATTERN = re.compile(r"\AA\d{6}\Z")

HttpGet = Callable[[str], bytes]


class SequenceIdError(ValueError):
    """The OEIS identifier is not of the form 'A' followed by six digits."""


def validate_id(oeis_id: str) -> str:
    """Return the id unchanged, raising SequenceIdError when malformed."""
    if not _ID_PATTERN.match(oeis_id):
        raise SequenceIdError(f"expected 'A' plus six digits, got {oeis_id!r}")
    return oeis_id


class FetchError(RuntimeError):
    """No way to obtain the b-file: network failed and no cache exists."""


class BFileParseError(ValueError):
    """A b-file data line did not parse; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class _SequenceRecordFields(NamedTuple):
    oeis_id: str
    offset: int
    terms: tuple[int, ...]
    provenance: str
    k: int | None = None
    fetched_at: float | None = None
    cache_hit: bool = False


class SequenceRecord(_SequenceRecordFields):
    """A named integer sequence plus where its terms came from.

    ``provenance`` is ``fixture`` (built-in, from the OEIS entry) or
    ``fetched`` (b-file, possibly served from the on-disk cache, see
    ``cache_hit``).  ``offset`` is the index of the first term, following
    the OEIS convention.  A named tuple: ``_replace`` validates like the
    constructor.
    """

    __slots__ = ()

    def __new__(
        cls,
        oeis_id: str,
        offset: int,
        terms: tuple[int, ...],
        provenance: str,
        k: int | None = None,
        fetched_at: float | None = None,
        cache_hit: bool = False,
    ) -> SequenceRecord:
        validate_id(oeis_id)
        if provenance not in ("fixture", "fetched"):
            raise ValueError(f"unknown provenance {provenance!r}")
        if not terms:
            raise ValueError("a sequence record needs at least one term")
        return super().__new__(cls, oeis_id, offset, terms, provenance, k, fetched_at, cache_hit)

    @classmethod
    def _make(cls, iterable) -> SequenceRecord:
        return cls(*iterable)


class ComparisonReport(NamedTuple):
    """Outcome of checking recomputed terms against a sequence record.

    ``computed[i]`` is M^(2k, start_n + i) obtained from the trace path and
    ``spectral[i]`` the same term from the spectral path; ``matches[i]`` is
    True when both paths and the record agree.  Mismatches are report
    content, not errors.
    """

    oeis_id: str
    k: int
    start_n: int
    expected: tuple[int, ...]
    computed: tuple[int, ...]
    matches: tuple[bool, ...]
    spectral: tuple[int, ...] = ()

    @property
    def count(self) -> int:
        return len(self.matches)

    @property
    def all_equal(self) -> bool:
        return all(self.matches)

    @property
    def first_mismatch(self) -> int | None:
        """Index n of the first disagreeing term, or None."""
        for i, ok in enumerate(self.matches):
            if not ok:
                return self.start_n + i
        return None


_FIXTURES = {
    k: SequenceRecord(oeis_id=OEIS_BY_K[k], offset=0, terms=terms, provenance="fixture", k=k)
    for k, terms in _PREFIXES.items()
}


def fixture_for_k(k: int) -> SequenceRecord | None:
    """The built-in fixture for this k, or None when no id is registered."""
    return _FIXTURES.get(k)


def fixture_for_id(oeis_id: str) -> SequenceRecord | None:
    """The built-in fixture with this identifier, or None."""
    validate_id(oeis_id)
    return _FIXTURES.get(K_BY_OEIS.get(oeis_id))


def cache_dir() -> Path:
    """On-disk cache location; CNOMIAL_CACHE_DIR overrides the default."""
    override = os.environ.get("CNOMIAL_CACHE_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "cnomial"


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse b-file text into (index, value) pairs.

    Blank lines and '#' comments are ignored; data lines must be exactly
    two integer fields with consecutive indices.  Terms may have any number
    of digits.  Errors report the 1-based line number.
    """
    pairs: list[tuple[int, int]] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileParseError(
                f"expected 'index value', got {raw.strip()!r}", line_number
            )
        try:
            with unlimited_digits():
                index, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise BFileParseError(
                f"non-integer field in {raw.strip()!r}", line_number
            ) from None
        if pairs and index != pairs[-1][0] + 1:
            raise BFileParseError(
                f"index {index} does not follow {pairs[-1][0]}", line_number
            )
        pairs.append((index, value))
    if not pairs:
        raise BFileParseError("no data lines found", 1)
    return pairs


def _default_http_get(url: str) -> bytes:
    # Imported here: urllib.request pulls in http.client, a large share of
    # the package's import time, and only a fetch from the network needs it.
    import urllib.request

    request = urllib.request.Request(url, headers={"User-Agent": "cnomial/0.1"})
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return response.read()


# One writer per id; reads of a finished cache entry need no coordination.
_FETCH_LOCKS: dict[str, threading.Lock] = {}
_FETCH_LOCKS_GUARD = threading.Lock()


def _lock_for(oeis_id: str) -> threading.Lock:
    with _FETCH_LOCKS_GUARD:
        return _FETCH_LOCKS.setdefault(oeis_id, threading.Lock())


def _cache_path(oeis_id: str, directory: Path) -> Path:
    return directory / f"{oeis_id}.txt"


def _write_cache(oeis_id: str, body: bytes, directory: Path) -> float:
    """Cache ``body`` for ``oeis_id``; its mtime, the fetch's ``fetched_at``."""
    # Imported here: only a fetch from the network writes the cache.
    import tempfile

    target = _cache_path(oeis_id, directory)
    directory.mkdir(parents=True, exist_ok=True)
    # The body goes to a temporary file of its own, then replaces its
    # target: no reader sees a half-written file, and two writers of one id
    # (two processes) never share a temporary file.  The rename keeps the
    # mtime, so the body carries its own fetched_at.
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(body)
        fetched_at = os.stat(tmp).st_mtime
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return fetched_at


def _read_cache(oeis_id: str, directory: Path) -> tuple[str, float] | None:
    """The cached body, decoded as a fetched one is, and its mtime; or None.

    The mtime is read off the open file, so it is the mtime of the body read.
    """
    try:
        with _cache_path(oeis_id, directory).open("rb") as cached:
            fetched_at = os.fstat(cached.fileno()).st_mtime
            raw = cached.read()
    except FileNotFoundError:
        return None
    return raw.decode("utf-8", errors="replace"), fetched_at


def fetch_bfile(
    oeis_id: str,
    limit: int,
    *,
    offline: bool = False,
    http_get: HttpGet | None = None,
    directory: Path | None = None,
) -> SequenceRecord:
    """First ``limit`` terms of an OEIS sequence from its b-file.

    Performs one HTTP GET and caches the raw body on disk keyed by id; on
    any network failure, or a fetched body that does not parse, a warm
    cache is served instead (``cache_hit`` True) and left as it was.  With
    no cache, an unparsable body raises :class:`BFileParseError`.
    ``offline`` skips the network entirely.  ``http_get`` is the
    transport, injectable for tests.
    """
    validate_id(oeis_id)
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    directory = directory if directory is not None else cache_dir()
    getter = http_get if http_get is not None else _default_http_get
    url = BFILE_URL.format(oeis_id=oeis_id, digits=oeis_id[1:])

    with _lock_for(oeis_id):
        body: str | None = None
        fetched_at: float | None = None
        cache_hit = False
        parse_error: BFileParseError | None = None
        if not offline:
            try:
                raw = getter(url)
            except OSError:  # URLError and TimeoutError are OSErrors
                raw = None
            if raw is not None:
                text = raw.decode("utf-8", errors="replace")
                try:
                    parsed = parse_bfile(text)  # validate before poisoning the cache
                except BFileParseError as error:
                    parse_error = error
                else:
                    body = text
                    fetched_at = _write_cache(oeis_id, raw, directory)
        if body is None:
            cached = _read_cache(oeis_id, directory)
            if cached is None and parse_error is not None:
                raise parse_error
            if cached is None:
                raise FetchError(
                    f"cannot fetch b-file for {oeis_id}: "
                    + ("offline requested" if offline else "network unavailable")
                    + " and no cache present"
                )
            body, fetched_at = cached
            cache_hit = True
            parsed = parse_bfile(body)

    parsed = parsed[:limit]
    return SequenceRecord(
        oeis_id=oeis_id,
        offset=parsed[0][0],
        terms=tuple(value for _, value in parsed),
        provenance="fetched",
        k=K_BY_OEIS.get(oeis_id),
        fetched_at=fetched_at,
        cache_hit=cache_hit,
    )


def compare(record: SequenceRecord, k: int, count: int) -> ComparisonReport:
    """Recompute ``count`` central coefficients for this k and diff them.

    Each term is computed through the exact trace path
    (:func:`cnomial.circulant.coefficient_via_shift` at l = kn) and the
    certified spectral path, the latter as one run over the window
    (:func:`cnomial.spectral.central_run`); an index matches only when
    both agree with the record.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > len(record.terms):
        raise ValueError(
            f"count {count} exceeds the {len(record.terms)} available terms"
        )
    expected = record.terms[:count]
    first = record.offset
    spectral = [result.value for result in central_run(k, first, first + count - 1)]
    computed = [coefficient_via_shift(Params(k, n), k * n) for n in range(first, first + count)]
    matches = [
        via_trace == want == via_spectrum
        for via_trace, via_spectrum, want in zip(computed, spectral, expected)
    ]
    return ComparisonReport(
        oeis_id=record.oeis_id,
        k=k,
        start_n=record.offset,
        expected=tuple(expected),
        computed=tuple(computed),
        matches=tuple(matches),
        spectral=tuple(spectral),
    )
