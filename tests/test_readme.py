"""Every backticked ``module.name`` in README.md, written bare, with call
arguments or after ``projconn.``, names an attribute of
``projconn.<module>``: a rename or a deletion cannot leave the README
pointing at nothing."""

import importlib
import pkgutil
import re
from pathlib import Path

import projconn
from projconn.catalog import builtin, entry_document
from projconn.geometry import load_spec

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {module.name for module in pkgutil.iter_modules(projconn.__path__)}
REFERENCE = re.compile(r"`(?:projconn\.)?([a-z_]+)\.([A-Za-z_][\w.]*)[`(]")


def test_readme_references_resolve():
    text = README.read_text(encoding="utf-8")
    references = sorted({ref for ref in REFERENCE.findall(text) if ref[0] in MODULES})
    assert len(references) >= 16, references
    missing = []
    for module, name in references:
        obj = importlib.import_module(f"projconn.{module}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{name}")
    assert not missing, missing


def test_all_entries_resolve():
    # a stale __all__ entry fails only `from module import *`, which nothing else runs
    checked, missing = 0, []
    for name in sorted(MODULES):
        module = importlib.import_module(f"projconn.{name}")
        for entry in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, entry):
                missing.append(f"{name}.{entry}")
    assert checked >= 40, checked
    assert not missing, missing


def test_manifold_example_is_the_shipped_chart():
    section = README.read_text(encoding="utf-8").split("## Manifold files", 1)[1]
    block = section.split("```\n", 2)[1]
    assert load_spec(block) == builtin("cylinder_s2xr").spec
    assert block == entry_document("cylinder_s2xr")
