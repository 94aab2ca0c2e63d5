"""The public surface: what ``cnomial`` exports, and the README's example of it."""
import re
from pathlib import Path

import cnomial

README = Path(__file__).resolve().parent.parent / "README.md"

DOCUMENTED = {
    # the six route entry points
    "central_coefficient",
    "expand_power",
    "central_via_trace",
    "coefficient_via_shift",
    "central_via_spectrum",
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
