import re
from pathlib import Path

import slummap

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in slummap.__all__ if not hasattr(slummap, name)]
    assert missing == []
    sentence = re.search(r"Lower-level pieces are importable too:(.*?)\.\n", README.read_text(), re.S)
    named = re.findall(r"`(\w+)`", sentence.group(1))
    assert named
    assert [name for name in named if not hasattr(slummap, name)] == []
