"""The public surface: what ``cnomial`` exports, and the README's example of it."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cnomial

README = Path(__file__).resolve().parent.parent / "README.md"

DOCUMENTED = {
    # the route entry points, one per route and the exact row
    "coefficient",
    "expand_power",
    "coefficient_via_shift",
    "coefficient_via_spectrum",
    # parameters, policy and the certified result
    "Params",
    "PrecisionPolicy",
    "CertifiedInteger",
    # the errors
    "CertificationError",
    "BFileParseError",
    "FetchError",
    "SequenceIdError",
    # the oeis entry points and what they return
    "OEIS_BY_K",
    "compare",
    "fetch_bfile",
    "fixture_for_k",
    "SequenceRecord",
    "ComparisonReport",
    "__version__",
}


def test_all_is_the_documented_api():
    assert len(cnomial.__all__) == len(set(cnomial.__all__))
    assert set(cnomial.__all__) == DOCUMENTED


def test_star_import_binds_every_name():
    namespace = {}
    exec("from cnomial import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == DOCUMENTED
    assert all(namespace[name] is getattr(cnomial, name) for name in DOCUMENTED)


def test_readme_quick_start_runs():
    # The first Python block under "Library quick start", run as written.
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README quick start has no python block"
    exec(compile(block.group(1), "README quick start", "exec"), {})


#: What ``import cnomial.cli`` must not load: ``dataclasses`` and the
#: ``inspect`` it pulls in, and what one command or format alone uses.
DEFERRED = ("dataclasses", "inspect", "cnomial.oeis", "json", "csv", "random", "statistics")


def test_cli_import_defers_what_one_command_uses():
    # -S: no site hook, so nothing but the package loads these first.
    script = (
        "import sys\n"
        "import cnomial.cli\n"
        f"print(sorted(set({DEFERRED!r}) & sys.modules.keys()))\n"
        "import cnomial\n"
        "print(cnomial.compare(cnomial.fixture_for_k(1), 1, 10).all_equal)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True"]


def test_unknown_names_raise_attribute_error():
    assert getattr(cnomial, "active_backend", None) is None
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        cnomial.nonesuch
