"""The CLI's output over the grid of ``tools/cli_digest.py`` equals the digests
committed in ``tests/golden/cli_digest.jsonl``.

A change that moves output on purpose regenerates the file with the tool
and names the groups that moved.
"""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_digest.jsonl"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_cli_output_matches_the_golden_digests():
    # Every group's stdout without residuals matches on any Python; on the
    # golden file's own minor version, every stream of every group does.
    golden = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    records, status = load_tool().grid_digests()
    assert status == 0

    def values(rows):
        return {row["group"]: (row["requests"], row["values"]) for row in rows}

    assert values(records) == values(golden)
    if records[0]["python"] == golden[0]["python"]:
        assert records == golden
