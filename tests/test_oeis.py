"""Sequence fixtures, b-file client, cache behavior, and comparisons."""
import threading
import time
import urllib.error

import pytest

from cnomial import (
    OEIS_BY_K,
    BFileParseError,
    FetchError,
    Params,
    SequenceIdError,
    SequenceRecord,
    central_coefficient,
    central_via_trace,
    compare,
    fetch_bfile,
    fixture_for_k,
)
from cnomial import oeis, spectral

TRINOMIAL_BFILE = b"# comment\n\n0 1\n1 1\n2 3\n3 7\n4 19\n5 51\n6 141\n"


def test_registry_mapping():
    assert OEIS_BY_K == {1: "A002426", 2: "A005191", 3: "A025012"}


def fixtures():
    return [fixture_for_k(k) for k in sorted(OEIS_BY_K)]


def test_registered_sequences_shape():
    records = fixtures()
    assert [r.oeis_id for r in records] == ["A002426", "A005191", "A025012"]
    assert [r.k for r in records] == [1, 2, 3]
    for record in records:
        assert record.provenance == "fixture"
        assert record.offset == 0
        assert len(record.terms) == 10


def test_fixture_prefixes():
    assert fixture_for_k(1).terms[:7] == (1, 1, 3, 7, 19, 51, 141)
    assert fixture_for_k(2).terms[:4] == (1, 1, 5, 19)
    assert fixture_for_k(3).terms[:5] == (1, 1, 7, 37, 231)


def test_fixture_terms_match_independent_path():
    # fixtures are typed in from the OEIS entries; each term against the
    # circulant trace route
    for record in fixtures():
        for i, term in enumerate(record.terms):
            assert term == central_via_trace(Params(record.k, record.offset + i))


def test_unregistered_k_absent():
    assert fixture_for_k(4) is None


def test_fixture_by_id():
    assert oeis.fixture_for_id("A005191").k == 2
    assert oeis.fixture_for_id("A999999") is None
    with pytest.raises(SequenceIdError):
        oeis.fixture_for_id("X123")


def test_record_validation():
    with pytest.raises(SequenceIdError):
        SequenceRecord("bogus", 0, (1,), "fixture")
    with pytest.raises(ValueError):
        SequenceRecord("A002426", 0, (), "fixture")
    with pytest.raises(ValueError):
        SequenceRecord("A002426", 0, (1,), "dreamt")


def test_compare_fixture_matches():
    report = compare(fixture_for_k(1), 1, 10)
    assert report.all_equal
    assert report.first_mismatch is None
    assert report.count == 10


def test_compare_cross_sequence_mismatch():
    # trinomial terms against k=2: first divergence is n=2 (3 vs 5)
    report = compare(fixture_for_k(1), 2, 5)
    assert not report.all_equal
    assert report.first_mismatch == 2
    assert report.matches[:2] == (True, True)
    assert report.expected[2] == 3
    assert report.computed[2] == 5


def test_compare_count_guards():
    with pytest.raises(ValueError):
        compare(fixture_for_k(1), 1, 0)
    with pytest.raises(ValueError):
        compare(fixture_for_k(1), 1, len(fixture_for_k(1).terms) + 1)


def test_parse_bfile_skips_comments_and_blanks():
    pairs = oeis.parse_bfile("# header\n\n0 1\n1 5\n\n# tail\n")
    assert pairs == [(0, 1), (1, 5)]


def test_parse_bfile_term_over_int_str_digit_limit():
    digits = "7" + "0" * 4998 + "3"  # 5000 digits, over the default 4300
    assert oeis.parse_bfile(f"0 1\n1 {digits}\n") == [(0, 1), (1, 7 * 10**4999 + 3)]


def test_parse_bfile_field_count_error():
    with pytest.raises(BFileParseError) as info:
        oeis.parse_bfile("0 1\n1 2\nthree fields here\n")
    assert info.value.line_number == 3


def test_parse_bfile_non_integer_error():
    with pytest.raises(BFileParseError) as info:
        oeis.parse_bfile("0 x\n")
    assert info.value.line_number == 1


def test_parse_bfile_gap_error():
    with pytest.raises(BFileParseError) as info:
        oeis.parse_bfile("0 1\n5 2\n")
    assert info.value.line_number == 2


def test_parse_bfile_empty_error():
    with pytest.raises(BFileParseError):
        oeis.parse_bfile("# nothing but comments\n")


def test_fetch_parses_and_caches(tmp_path):
    urls = []

    def fake_get(url):
        urls.append(url)
        return TRINOMIAL_BFILE

    record = fetch_bfile("A002426", 5, http_get=fake_get, directory=tmp_path)
    assert urls == ["https://oeis.org/A002426/b002426.txt"]
    assert record.terms == (1, 1, 3, 7, 19)
    assert record.offset == 0
    assert record.k == 1
    assert record.provenance == "fetched"
    assert not record.cache_hit
    assert record.fetched_at is not None
    assert (tmp_path / "A002426.txt").read_bytes() == TRINOMIAL_BFILE
    assert record.fetched_at == (tmp_path / "A002426.txt").stat().st_mtime
    assert [path.name for path in tmp_path.iterdir()] == ["A002426.txt"]


def test_cached_body_reads_back_as_it_was_fetched(tmp_path):
    # A body that is not UTF-8 decodes with replacement on the network
    # path, and so does its cached copy when it is read back.
    body = b"# A002426 caf\xe9\n0 1\n1 1\n2 3\n"
    assert fetch_bfile("A002426", 3, http_get=lambda url: body, directory=tmp_path).terms == (1, 1, 3)

    def broken_get(url):
        raise OSError("network down")

    for record in (
        fetch_bfile("A002426", 3, offline=True, directory=tmp_path),
        fetch_bfile("A002426", 3, http_get=broken_get, directory=tmp_path),
    ):
        assert record.terms == (1, 1, 3)
        assert record.cache_hit


def test_fetch_serves_cache_when_network_fails(tmp_path):
    def fake_get(url):
        return TRINOMIAL_BFILE

    def broken_get(url):
        raise OSError("network down")

    first = fetch_bfile("A002426", 6, http_get=fake_get, directory=tmp_path)
    second = fetch_bfile("A002426", 6, http_get=broken_get, directory=tmp_path)
    assert second.terms == first.terms
    assert second.cache_hit


@pytest.mark.parametrize("error", [
    urllib.error.URLError("unreachable"), TimeoutError("timed out"), ConnectionResetError(),
])
def test_fetch_serves_cache_on_every_network_error(tmp_path, error):
    # URLError and TimeoutError are OSErrors: one clause catches them all.
    def broken_get(url):
        raise error

    fetch_bfile("A002426", 6, http_get=lambda url: TRINOMIAL_BFILE, directory=tmp_path)
    record = fetch_bfile("A002426", 6, http_get=broken_get, directory=tmp_path)
    assert record.terms == (1, 1, 3, 7, 19, 51)
    assert record.cache_hit


def test_fetch_offline_uses_cache_only(tmp_path):
    def explode(url):
        raise AssertionError("offline fetch must not touch the network")

    fetch_bfile("A002426", 3, http_get=lambda url: TRINOMIAL_BFILE, directory=tmp_path)
    record = fetch_bfile("A002426", 7, offline=True, http_get=explode, directory=tmp_path)
    assert record.terms == (1, 1, 3, 7, 19, 51, 141)
    assert record.cache_hit


def test_fetch_without_cache_or_network(tmp_path):
    with pytest.raises(FetchError):
        fetch_bfile("A002426", 3, offline=True, directory=tmp_path)
    with pytest.raises(FetchError):
        fetch_bfile(
            "A002426",
            3,
            http_get=lambda url: (_ for _ in ()).throw(OSError("down")),
            directory=tmp_path,
        )


def test_fetch_malformed_body_does_not_poison_cache(tmp_path):
    with pytest.raises(BFileParseError):
        fetch_bfile(
            "A002426", 3, http_get=lambda url: b"not a bfile", directory=tmp_path
        )
    assert not (tmp_path / "A002426.txt").exists()

    # With a warm cache, a corrupt body falls back to the cached copy.
    first = fetch_bfile(
        "A002426", 6, http_get=lambda url: TRINOMIAL_BFILE, directory=tmp_path
    )
    second = fetch_bfile(
        "A002426", 6, http_get=lambda url: b"not a bfile", directory=tmp_path
    )
    assert second.terms == first.terms
    assert second.cache_hit
    assert (tmp_path / "A002426.txt").read_bytes() == TRINOMIAL_BFILE


def test_fetch_input_guards(tmp_path):
    with pytest.raises(SequenceIdError):
        fetch_bfile("X123", 3, directory=tmp_path)
    with pytest.raises(ValueError):
        fetch_bfile("A002426", 0, directory=tmp_path)


def test_fetch_concurrent_same_id(tmp_path):
    def slow_get(url):
        time.sleep(0.01)
        return TRINOMIAL_BFILE

    results = []
    errors = []

    def worker():
        try:
            results.append(
                fetch_bfile("A002426", 4, http_get=slow_get, directory=tmp_path).terms
            )
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert results == [(1, 1, 3, 7)] * 4
    assert (tmp_path / "A002426.txt").read_bytes() == TRINOMIAL_BFILE


@pytest.mark.parametrize("between", [1, 2])
def test_interleaved_writers_keep_each_file_whole(monkeypatch, tmp_path, between):
    # Two processes fetch one id at once: each has its own per-id lock, so
    # nothing orders their cache writes.  One writer runs whole between
    # the other's writing of its temporary file and its os.replace: B
    # within A's (between=1) or A within B's (between=2).  Both bodies
    # stay whole, each fetch returns its own terms, the outer writer's
    # body survives, the reader's fetched_at is that body's mtime and the
    # outer fetch's own, and no temporary file is left.
    body_a = TRINOMIAL_BFILE
    body_b = b"0 1\n1 1\n2 3\n"
    monkeypatch.setattr(oeis, "_lock_for", lambda oeis_id: threading.Lock())
    replace, calls, records = oeis.os.replace, [], {}
    fetches = {"a": (7, body_a), "b": (3, body_b)}
    outer, inner = ("a", "b") if between == 1 else ("b", "a")

    def fetch(name):
        limit, body = fetches[name]
        records[name] = fetch_bfile("A002426", limit, http_get=lambda url: body, directory=tmp_path)

    def interleaving(src, dst):
        calls.append(dst)
        if len(calls) == 1:
            fetch(inner)
        replace(src, dst)

    monkeypatch.setattr(oeis.os, "replace", interleaving)
    fetch(outer)
    monkeypatch.setattr(oeis.os, "replace", replace)
    assert len(calls) == 2
    assert records["a"].terms == (1, 1, 3, 7, 19, 51, 141)
    assert records["b"].terms == (1, 1, 3)
    path = tmp_path / "A002426.txt"
    assert path.read_bytes() == fetches[outer][1]
    _, fetched_at = oeis._read_cache("A002426", tmp_path)
    assert fetched_at == path.stat().st_mtime == records[outer].fetched_at
    assert [entry.name for entry in tmp_path.iterdir()] == ["A002426.txt"]


def test_compare_crosses_into_the_ball_rung(tmp_path):
    # A 60-term b-file of exact terms, served by a fake transport: the
    # spectral run over it escalates part way, and every term matches.
    terms = [central_coefficient(Params(1, n)) for n in range(60)]
    body = "".join(f"{n} {term}\n" for n, term in enumerate(terms)).encode()
    record = fetch_bfile("A002426", 60, http_get=lambda url: body, directory=tmp_path)
    report = compare(record, 1, 60)
    assert report.all_equal and report.computed == tuple(terms)
    rungs = [result.policy_used.strategy for result in spectral.central_run(1, 0, 59)]
    assert rungs[0] == "double" and rungs[-1] == "arbitrary"


def test_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("CNOMIAL_CACHE_DIR", str(tmp_path / "alt"))
    assert oeis.cache_dir() == tmp_path / "alt"


@pytest.mark.network
def test_fetched_prefixes_match_fixtures(tmp_path):
    for record in fixtures():
        fetched = fetch_bfile(record.oeis_id, 15, directory=tmp_path)
        assert fetched.terms[:15] == record.terms[:15]
