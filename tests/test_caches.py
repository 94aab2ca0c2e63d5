"""The route caches: what they share within a request, that every request
starts with them empty but for the two row caches, that those two keep one
row, and the README's table of every cache."""
import functools
import re
from pathlib import Path

from cnomial import Params, circulant, cli, exact, spectral
from cnomial.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def recorded(monkeypatch, module, name):
    """Rebuild the functools cache ``module.name`` around a recorder of its
    misses, at the same size; returns the list of the missed arguments."""
    cached = getattr(module, name)
    build, size = cached.__wrapped__, cached.cache_parameters()["maxsize"]
    misses = []

    def recording(*args):
        misses.append(args)
        return build(*args)

    monkeypatch.setattr(module, name, functools.lru_cache(maxsize=size)(recording))
    return misses


def route_caches():
    """Every functools cache of the route modules, by ``module.name``."""
    return {f"{module.__name__.rpartition('.')[2]}.{name}": value
            for module in (circulant, exact, spectral)
            for name, value in vars(module).items()
            if callable(getattr(value, "cache_info", None))}


def test_sequence_forms_each_window_once_and_even_ones_by_a_square(capsys, monkeypatch):
    # Every power by steps: the half powers of consecutive n, and their own
    # half powers, come from the cache; each even window is the square of
    # its half, and no window is formed twice.
    monkeypatch.setattr(circulant, "POW_MAX_BITS", 0)
    windows = recorded(monkeypatch, circulant, "_window")
    square, squares = circulant._square, []

    def recording_square(values, bound):
        squares.append(len(values))
        return square(values, bound)

    monkeypatch.setattr(circulant, "_square", recording_square)
    k, count = 2, 40
    code, out, _ = run(capsys, "sequence", "--k", str(k), "--count", str(count), "--method", "trace")
    assert code == 0
    assert out.split() == [str(exact.coefficient(Params(k, n), k * n)) for n in range(count)]
    assert len(windows) == len(set(windows))
    assert sorted(e for _, e in windows) == list(range(count // 2))
    # A square of the window of e/2 (2k(e/2)+1 entries) for every even e > 0.
    halves = [(width - 1) // (2 * k) for width in squares]
    assert sorted(2 * h for h in halves) == [e for _, e in windows if e and e % 2 == 0]


def test_verify_grid_builds_one_sine_table_per_dimension(capsys, monkeypatch):
    # The largest grid the benchmark sends: every N the central sums, the
    # seeded coefficients and the eigen-ratios check meet is built once.
    tables = recorded(monkeypatch, spectral, "_sine_table")
    code, out, _ = run(capsys, "verify", "--k-max", "4", "--n-max", "13", "--seed", "5")
    assert (code, out) == (0, "52 cases, 0 failures\n")
    assert len(tables) == len(set(tables))
    assert spectral._sine_table.cache_info().hits > len(tables)


def test_a_central_sum_and_the_eigen_ratios_check_share_one_ratio_row(capsys, monkeypatch):
    # Each (2k+1, N) of the grid's central sums has its ratios formed once,
    # for the sum and for verify's eigen-ratios check alike.
    ratios, formed = spectral._ratios, []

    def recording(m, sines):
        formed.append((m, 2 * len(sines) - 1))
        return ratios(m, sines)

    monkeypatch.setattr(spectral, "_ratios", recording)
    assert run(capsys, "verify", "--k-max", "2", "--n-max", "6")[:2] == (0, "12 cases, 0 failures\n")
    dims = {(2 * k + 1, spectral.dimension(Params(k, n), 0)) for k in (1, 2) for n in range(1, 7)}
    assert sorted(formed) == sorted(dims)


def test_each_request_starts_with_every_cache_but_the_row_caches_empty(capsys):
    # The same requests twice in one process build the same entries and hit
    # the same ones: apart from the two row caches, nothing is carried from
    # one request to the next.  verify --seed fills the double rung's
    # spectra and phase weights, oeis the trace windows.
    caches = {name: cache for name, cache in route_caches().items() if name not in cli.KEPT_CACHES}
    requests = (["oeis", "--k", "1", "--offline"],
                ["verify", "--k-max", "2", "--n-max", "4", "--seed", "1"])
    counts = []
    for _ in range(2):
        for argv in requests:
            assert run(capsys, *argv)[0] == 0
            counts.append({name: cache.cache_info()[:2] for name, cache in caches.items()})
    assert counts[:2] == counts[2:]
    assert {name for count in counts[:2] for name, (_, misses) in count.items() if misses} == set(caches)


def test_the_two_row_caches_outlive_a_request(capsys):
    # Two l of one row in two requests: the second reads the trace route's
    # half-power windows and the ball rung's row form the first one left.
    assert cli.KEPT_CACHES == {"circulant._half_power_windows", "spectral._phase_form"}
    for l in (7, 8):
        assert run(capsys, "compute", "--k", "1", "--n", "60", "--l", str(l), "--method", "all")[0] == 0
    caches = route_caches()
    assert {name: caches[name].cache_info().hits for name in cli.KEPT_CACHES} == dict.fromkeys(cli.KEPT_CACHES, 1)


def test_clear_route_caches_empties_every_route_cache(capsys, monkeypatch):
    # Fill what a mixed set of requests fills, then clear: every functools
    # cache of the route modules is empty again, a test's rebinding too.
    recorded(monkeypatch, spectral, "_double_spectrum")
    for argv in (["sequence", "--k", "1", "--count", "6", "--method", "trace"],
                 ["sequence", "--k", "2", "--count", "6", "--method", "spectral"],
                 ["compute", "--k", "3", "--n", "40", "--l", "7", "--method", "all"],
                 ["verify", "--k-max", "2", "--n-max", "4", "--seed", "1"]):
        assert run(capsys, *argv)[0] == 0
    caches = route_caches()
    filled = {name for name, cache in caches.items() if cache.cache_info().currsize}
    assert {"circulant._window", "spectral._sine_table", "spectral._ratio_row",
            "spectral._double_spectrum"} | cli.KEPT_CACHES <= filled
    cli._clear_route_caches()
    assert {name: cache.cache_info().currsize for name, cache in caches.items()} == dict.fromkeys(caches, 0)


def test_a_row_read_around_another_equals_a_cold_rebuild(cold_caches):
    # (1, 60) and (2, 30) share N = 121 at different F, and neither's
    # double rung certifies.  Four l of the first row, each read on a
    # fresh build, again on the kept row, and after the other row's phase
    # sum has evicted it, equal a cold rebuild field for field, and so
    # does the other row's sum in between: the one kept row, cosines
    # included, belongs to the row that asks.
    p, other = Params(1, 60), Params(2, 30)
    bits = spectral.required_bits(p)
    assert p.dim == other.dim and bits != spectral.required_bits(other)
    ls, row = (0, 1, 59, 97), exact.expand_power(p)
    cold = {}
    for l in ls:
        cold_caches()
        cold[l] = spectral.coefficient_via_spectrum(p, l)
        assert cold[l].escalations and cold[l].value == row[l]
    cold_caches()
    cold_other = spectral.coefficient_via_spectrum(other, 7)
    assert cold_other.escalations and cold_other.value == exact.expand_power(other)[7]
    cold_caches()
    for l in ls:
        assert spectral.coefficient_via_spectrum(p, l) == cold[l]
        assert spectral.coefficient_via_spectrum(p, l) == cold[l]
        assert spectral.coefficient_via_spectrum(other, 7) == cold_other
    info = spectral._phase_form.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (len(ls), 2 * len(ls), 1)
    # The kept cosines are the ones folded from the row's own rotation table.
    _, cosines, _, _ = spectral._phase_form(p, p.dim, bits)
    assert cosines == spectral._cosine_table(spectral._rotation_table(p.dim, bits), bits)[0]


def test_readme_lists_every_route_cache_at_its_size():
    # The README's table of caches names every functools cache of the
    # route modules, gives each its maxsize, and marks as kept exactly the
    # caches that cli.main leaves filled between requests: a cache added,
    # removed, resized or kept without the table fails here.
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text[text.index("### Caches\n"):]
    section = section[:section.index("\n#", 1)]
    rows = re.findall(r"^\| `(\w+\.\w+)` \| [^|]+ \| (\d+) \| (kept|no)\b[^|]* \|", section, re.M)
    caches = route_caches()
    assert {name: int(size) for name, size, _ in rows} == {
        name: cache.cache_parameters()["maxsize"] for name, cache in caches.items()}
    assert {name for name, _, kept in rows if kept == "kept"} == cli.KEPT_CACHES
