from contextlib import contextmanager

import pytest

from circlekit import poly
from circlekit.poly import parse_polynomial


@pytest.fixture
def P():
    """Shortcut: build a polynomial from its text form."""
    return parse_polynomial


@pytest.fixture
def enum_limit(monkeypatch):
    """``with enum_limit(k):`` sets the one enumeration limit,
    ``poly.DEFAULT_ENUM_BUDGET``, to k for every module inside the block."""
    @contextmanager
    def limit(k):
        with monkeypatch.context() as m:
            m.setattr(poly, "DEFAULT_ENUM_BUDGET", k)
            yield
    return limit


def text_poly(s):
    return parse_polynomial(s)
