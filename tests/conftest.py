from __future__ import annotations

import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) counts calls of module.name.

    The counter replaces the attribute on module itself and in every weaklab
    module that binds the same function, so calls through either are seen.
    """

    def count(module, name):
        original = getattr(module, name)
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("weaklab") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
        return calls

    return count
