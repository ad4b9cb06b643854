"""One rule for recording an outcome, and one registry of the pins: seeded
lists of outcomes, answers and refusals alike, whose reprs hash to recorded
digests.  tools/pin_diff.py names the outcomes that move between checkouts."""

import hashlib
import importlib

from hermiwitt.errors import HermiwittError


class Refused(tuple):
    """(class name, message) of a HermiwittError; its repr is a plain tuple's."""


def outcome(fn, *args):
    """fn(*args), or the Refused of the HermiwittError it raises."""
    try:
        return fn(*args)
    except HermiwittError as exc:
        return Refused((type(exc).__name__, str(exc)))


# name: (module.builder of (label, outcome) pairs, count, encoding, sha256).
# Hashed: "outcome" as it is, "class" a refusal as its class name alone, "named"
# the operation (the label's last part), then the answer or the refusal
PINS = {
    "enumeration": ("test_endo._enumeration_outcomes", 1500, "outcome",
        "233d878c1bbfa5f97f16c2e2fc82f05aeb0d666a92ec8142341b182074becd23"),
    "form_layer": ("test_hermitian._form_layer_outcomes",
        3 * (12 * 8 + 18 + 16), "named",
        "76604b4a5656f5bd4ff8c601bdff0b47913ec0d42e3fb20b282217cd33edbedb"),
    "elimination": ("test_hermitian._elimination_outcomes",
        3 * (2 * 3 * 5 * 2 * 3 + 2 * 4 * 2 * 5), "named",
        "ec2cc88234161561793d8a2d4e16825041ff7584fb00d79581f87008d062c483"),
    "htilde_beta": ("test_morita._htilde_beta_outcomes", 288, "class",
        "e40d6d7a3e49b1b12c53e1737caddf1e293a41d4645e9540b90f5dc9e626489c"),
    "htilde_beta_outcomes": ("test_morita._htilde_outcomes", 576, "outcome",
        "d50825e1fcbc0dcd27fd16fcc7dccdf791c7cffcdbc505b89e667851bae53924"),
    "tower_outcomes": ("test_morita._tower_outcomes", 576, "outcome",
        "7c83c82a714be77d6b31fc2912aeb39bc9929a010a8ed3b1337494c6ff622978"),
    "element_arithmetic": ("test_padic._pinned_batch", 11700, "class",
        "addfe90687c814a14eeb701f4a5709860c34017cbb5d45d3cf2fd00946f25c43"),
    "refusal_messages": ("test_padic._refusal_batch", 3 * (4 * 5 + 1) * 40, "outcome",
        "d987fcd8b5a2bf0e53434bf718bf8dddb39978f3eb6eb158b35de7cc971dab30"),
    "dot_refusal_messages": ("test_padic._dot_refusal_batch", 3 * 2 * 150, "outcome",
        "699c7af6d0fb19212e09034058ccd16c29ad2eeecf70f1a90514a96ccc6ca99a"),
    "workload_outputs": ("test_cli._workload_outputs", 3 * (18 + 12 + 17 + 25), "outcome",
        "93012c7e7ab27af9cba2a9a6d6763719549b7adfbe8213d0697ee8d30b62f21d"),
}


def builder(path):
    module, name = path.split(".")
    return getattr(importlib.import_module(module), name)


def _encode(encoding, label, o):
    if encoding == "named":
        return (label[-1], *o) if isinstance(o, Refused) else (label[-1], o)
    return o[0] if encoding == "class" and isinstance(o, Refused) else o


def check(name):
    """The hashed list of one pin, once its count and digest are checked."""
    path, count, encoding, sha = PINS[name]
    out = [_encode(encoding, label, o) for label, o in builder(path)()]
    assert len(out) == count, (name, len(out), count)
    got = hashlib.sha256(repr(out).encode()).hexdigest()
    assert got == sha, f"{name}: {got}; tools/pin_diff.py names the moved outcomes"
    return out
