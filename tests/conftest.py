import pytest

from hermiwitt import padic
from hermiwitt.padic import FieldConfig, QuadExtElement
from hermiwitt.quaternion import QuaternionElement


@pytest.fixture(scope="session")
def cfg5():
    return FieldConfig(5, 32)


@pytest.fixture(scope="session")
def cfg3():
    return FieldConfig(3, 32)


@pytest.fixture(scope="session")
def cfg7():
    return FieldConfig(7, 32)


def _products(monkeypatch, cls):
    """count(fn, *args): how many times fn(*args) calls cls.__mul__."""
    def count(fn, *args):
        calls = [0]
        mul = cls.__mul__

        def counting_mul(x, y):
            calls[0] += 1
            return mul(x, y)

        monkeypatch.setattr(cls, "__mul__", counting_mul)
        try:
            fn(*args)
        finally:
            monkeypatch.setattr(cls, "__mul__", mul)
        return calls[0]

    return count


@pytest.fixture
def quaternion_products(monkeypatch):
    """count(fn, *args): how many quaternion multiplies fn(*args) makes."""
    return _products(monkeypatch, QuaternionElement)


@pytest.fixture
def quadext_products(monkeypatch):
    """count(fn, *args): how many L- or E-multiplies fn(*args) makes."""
    return _products(monkeypatch, QuadExtElement)


@pytest.fixture
def modular_inverses(monkeypatch):
    """count(fn, *args): how many modular inverses pow(x, -1, m) padic's
    arithmetic takes while fn(*args) runs."""
    def count(fn, *args):
        calls = [0]

        def counting_pow(x, e, *m):
            if e == -1:
                calls[0] += 1
            return pow(x, e, *m)

        monkeypatch.setattr(padic, "pow", counting_pow, raising=False)
        try:
            fn(*args)
        finally:
            monkeypatch.delattr(padic, "pow")
        return calls[0]

    return count
