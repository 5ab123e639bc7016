"""The README's python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    # Later blocks reuse names from earlier ones, so they share a namespace.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_flag_table_matches_the_commands():
    # Each row lists a command's config keys in the order of its options.
    from acmmd.cli import cli

    text = README.read_text(encoding="utf-8")
    table = text.split("| Command | Flags and config keys |\n| --- | --- |\n",
                       1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", table, re.M)
    assert [name for name, _ in rows] == list(cli.commands)
    for name, keys in rows:
        params = [p.name for p in cli.commands[name].params
                  if p.name not in ("input_path", "out_path", "config_path")]
        assert re.findall(r"`(\w+)`", keys) == params, name
