"""README's examples run as written."""

from __future__ import annotations

import re
import shutil

from kcn.config import load_config

from conftest import DATA

README = DATA.parent.parent / "README.md"
# a heading line, or a whole fenced block with its language and text
_PARTS = re.compile(r"^(#+ .*?|```(\w*)\n(.*?)^```)$", re.M | re.S)


def _blocks(heading: str, language: str) -> list[str]:
    """The ``language`` blocks between README's ``heading`` and the next heading."""
    current, blocks = None, []
    for part in _PARTS.finditer(README.read_text("utf-8")):
        if part[2] is None:
            current = part[1]
        elif current == heading and part[2] == language:
            blocks.append(part[3])
    return blocks


def test_readme_config_and_library_examples_run(tmp_path, monkeypatch):
    shutil.copy(DATA / "synthetic_corpus.jsonl", tmp_path / "corpus.jsonl")
    [config] = _blocks("### Config file", "json")
    (tmp_path / "config.json").write_text(config, "utf-8")
    loaded = load_config(tmp_path / "config.json")
    assert loaded.inputs[0].path == tmp_path / "corpus.jsonl"
    assert [s.label for s in loaded.slices] == ["2020", "all"]
    monkeypatch.chdir(tmp_path)
    blocks = _blocks("## Library", "python")
    assert len(blocks) >= 2
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md Library block {i}", "exec"), {})
    assert (tmp_path / "results" / "manifest.json").is_file()
