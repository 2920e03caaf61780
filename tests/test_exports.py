"""Every public name resolves to its listed submodule and has a consumer
besides its own definition and unit tests."""
import importlib
import re
from pathlib import Path

import qoptkit

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "qoptkit"


def test_export_table_is_all_and_each_name_resolves_to_its_module():
    table = qoptkit._EXPORTS
    assert table and list(table) == qoptkit.__all__
    for name, module in table.items():
        obj, source = getattr(qoptkit, name), f"qoptkit.{module}"
        assert obj is vars(importlib.import_module(source))[name], name
        if hasattr(obj, "__module__"):
            assert obj.__module__ == source, name
        else:  # a constant: its module assigns it
            assert re.search(rf"^{name}\s*[:=]", (PKG / f"{module}.py")
                             .read_text(), re.M), name
    namespace = {}
    exec("from qoptkit import *", namespace)
    assert set(table) <= set(namespace)


def test_every_export_has_a_consumer():
    exports = [(module, name) for name, module in qoptkit._EXPORTS.items()]
    modules = [p.read_text().splitlines() for p in PKG.glob("*.py")
               if p.name != "__init__.py"]
    others = {p: p.read_text() for p in (*(ROOT / "bench").glob("*.py"),
                                         ROOT / "README.md",
                                         *(ROOT / "tests").glob("*.py"))}
    unused = []
    for module, name in exports:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(def|class)\s+{name}\b|^{name}\s*[:=]")
        texts = [line for lines in modules for line in lines
                 if not own.match(line)]
        texts += [text for path, text in others.items()
                  if path != ROOT / "tests" / f"test_{module}.py"]
        if not any(word.search(text) for text in texts):
            unused.append(f"{module}.{name}")
    assert unused == []
