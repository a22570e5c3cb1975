"""Fixtures shared by the test modules."""

import pytest

from volformer import tensor as T


@pytest.fixture(params=["chunk", "index"])
def conv_gather(request, monkeypatch):
    """Run a test once with every ``conv3d`` gathering through the patch
    chunks and once with every one gathering through the cached flat
    index, whatever its shape."""
    monkeypatch.setattr(T, "_indexed", lambda *shape: request.param == "index")
    return request.param
