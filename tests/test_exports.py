"""Every public name has a consumer besides its own definition and unit tests."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "qoptkit"


def test_every_export_has_a_consumer():
    exports = [(node.module, alias.name)
               for node in ast.parse((PKG / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
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
