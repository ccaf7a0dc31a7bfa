"""Package surface: every exported name resolves."""
from __future__ import annotations

import importlib

import pytest

import peflow


@pytest.mark.parametrize("module", peflow.__all__)
def test_public_names_resolve(module):
    mod = importlib.import_module(f"peflow.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
