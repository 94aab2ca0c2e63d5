"""The timing scripts under tools/ run and print the records they document."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Each script's record keys, as its docstring names them.
KEYS = {
    "bench_step.py": {"type", "k", "e", "size_bits", "fields", "packed_bits", "bytes_us",
                      "decimal_us", "pow_us", "steps_us", "odd_window_us"},
    "bench_row.py": {"type", "k", "n", "l", "repetitions", "one_l_min_s", "one_l_median_s",
                     "four_l_min_s", "four_l_median_s"},
    "bench_import.py": {"type", "case", "argv", "repetitions", "min_ms", "median_ms",
                        "modules"},
    "cli_digest.py": {"type", "group", "requests", "repetitions", "python", "stdout", "stderr",
                      "exit_codes", "values"},
}

#: Arguments past ``--repetitions 1``: the digest grid's smallest group, since
#: ``tests/test_golden.py`` runs the whole grid in process.
ARGS = {"cli_digest.py": ["--group", "errors"]}


@pytest.mark.parametrize("script", list(KEYS))
def test_tool_runs_and_prints_its_records(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / script), "--repetitions", "1", *ARGS.get(script, [])],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines
    for line in lines:
        assert set(json.loads(line)) == KEYS[script], line
    source = (ROOT / "tools" / script).read_text()
    docstring = source[: source.index('"""', 3)]
    assert all(f"``{key}``" in docstring for key in KEYS[script])


def test_cli_digest_runs_the_groups_named():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = [sys.executable, str(ROOT / "tools" / "cli_digest.py")]
    done = subprocess.run([*script, "--group", "errors", "--group", "oeis"], capture_output=True,
                          text=True, env=env, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert [json.loads(line)["group"] for line in done.stdout.splitlines()] == ["oeis", "errors", "all"]
    done = subprocess.run([*script, "--group", "nope"], capture_output=True, text=True, env=env,
                          timeout=120, check=False)
    assert (done.returncode, done.stdout) == (2, "")
