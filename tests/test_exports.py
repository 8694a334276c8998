import importlib


def test_every_exported_name_resolves():
    for name in ("expr", "exterior", "phase", "legendre", "brackets"):
        module = importlib.import_module(f"polyfield.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"polyfield.{name}.__all__ names {missing}"
    package = importlib.import_module("polyfield")
    missing = [attr for attr in package.__all__ if not hasattr(package, attr)]
    assert not missing, f"polyfield.__all__ names {missing}"
