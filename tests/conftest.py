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


@pytest.fixture
def each_path(monkeypatch):
    """``for steps in each_path():`` runs its body twice: with
    ``poly._SMALL_STEPS`` 0, which sends every histogram, scan and
    regularity grid to numpy, then with 2^40, which keeps them all in
    Python integers."""
    def paths():
        for steps in (0, 1 << 40):
            with monkeypatch.context() as m:
                m.setattr(poly, "_SMALL_STEPS", steps)
                yield steps
    return paths


def text_poly(s):
    return parse_polynomial(s)
