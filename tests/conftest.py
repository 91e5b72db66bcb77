"""Suite-wide hooks: every test in ``test_acceptance.py`` is marked
``slow``, so ``pytest -m "not slow"`` runs everything else as a quick
loop."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.slow)
