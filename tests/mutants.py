"""Mutants of the engine's rules, rebuilt from their source, for showing that
a test tells a wrong rule apart from the right one."""

import inspect


def mutant(func, old: str, new: str):
    """``func`` rebuilt from its source with the one occurrence of ``old``
    replaced by ``new``, resolving names in a copy of its module's globals.
    Monkeypatch the result in where the rule is looked up."""
    source = inspect.getsource(func)
    assert source.count(old) == 1, (func.__name__, old)
    namespace = dict(func.__globals__)
    code = compile("from __future__ import annotations\n" + source.replace(old, new),
                   inspect.getsourcefile(func), "exec")
    exec(code, namespace)
    return namespace[func.__name__]
