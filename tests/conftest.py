import pytest
from hypothesis import settings

from hermiwitt import hermitian, padic
from hermiwitt.padic import FieldConfig, QuadExtElement
from hermiwitt.quaternion import QuaternionElement

# a wider search for CI: python -m pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000)


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
    """count(fn, *args): how many times fn(*args) calls cls.__mul__, plus
    the products that hermitian's own bindings of the kernels take: for
    quaternions, one per pair of entries its D dot is given, a row_dot or
    an elimination update e - c*f alike; for L and E, one per _e_mul call
    of an elimination update or of a row_dot term after the first.  No
    product counts twice: __mul__ calls padic's or quaternion's own binding
    of the kernel, and only hermitian's binding is patched here."""
    def count(fn, *args):
        calls = [0]

        def counting(f, products):
            def g(*a):
                calls[0] += products(*a)
                return f(*a)
            return g

        with monkeypatch.context() as m:
            m.setattr(cls, "__mul__", counting(cls.__mul__, lambda x, y: 1))
            if cls is QuaternionElement:
                m.setattr(hermitian, "_d_dot", counting(
                    hermitian._d_dot,
                    lambda cfg, r, xs, ys, e=None: min(len(xs), len(ys))))
            else:
                m.setattr(hermitian, "_e_mul", counting(
                    hermitian._e_mul, lambda cfg, d, x, y, e=None: 1))
            fn(*args)
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
