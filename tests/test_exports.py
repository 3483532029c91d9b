"""Every ``repro`` module imports, and every name in its ``__all__`` resolves.

A module deleted or renamed while a package still re-exports one of its
names would otherwise fail only when someone imports that name.
"""

import importlib
import pkgutil

import repro


def repro_modules():
    """Every module under ``repro`` except the ``python -m repro`` entry
    point, which runs the CLI on import."""
    names = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.name != "repro.__main__"
    ]
    return ["repro", *sorted(names)]


def test_every_all_name_resolves():
    checked = 0
    stale = []
    for name in repro_modules():
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, export):
                stale.append(f"{name}.{export}")
    assert stale == []
    assert checked > 0
