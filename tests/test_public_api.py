"""The package exports no name that only the tests read."""

import re
from pathlib import Path
from types import ModuleType

import stripmwis

ROOT = Path(__file__).resolve().parents[1]
# The independent oracles: tests are their readers.
ORACLES = {"mwis_bruteforce", "verify_solution", "matching_bruteforce"}


def test_every_exported_name_has_a_reader_outside_the_tests():
    texts = [p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "src" / "stripmwis").glob("*.py"))
             if p.name != "__init__.py"]
    texts += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    unread = []
    for name in stripmwis.__all__:
        if isinstance(getattr(stripmwis, name), ModuleType) or name in ORACLES:
            continue
        # a definition does not count as a reader
        use = re.compile(rf"(?<!def )(?<!class )\b{name}\b")
        if not any(use.search(text) for text in texts):
            unread.append(name)
    assert unread == []
