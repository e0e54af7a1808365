"""The benchmark's trace targets must exist where its wrappers look for them.

``perfbench/child.py`` wraps named functions of ``koopbilevel`` to time each
stage and layer; a renamed or moved function would raise there. This test
installs every target on a tracer and checks that each is restored.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


@pytest.fixture
def child(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("child")


def test_every_trace_target_installs_and_restores(child):
    targets = child.STAGE_TARGETS + child.LAYER_TARGETS
    owners, originals = [], []
    for module_name, class_name, attr, _ in targets:
        owner = importlib.import_module(f"koopbilevel.{module_name}")
        owner = getattr(owner, class_name) if class_name else owner
        owners.append(owner)
        originals.append(vars(owner)[attr])

    tracer = child.Tracer()
    try:
        child.install(tracer, targets)
        for owner, original, (_, _, attr, _) in zip(owners, originals, targets):
            assert vars(owner)[attr].__wrapped__ is original, attr
    finally:
        tracer.restore()
    for owner, original, (_, _, attr, _) in zip(owners, originals, targets):
        assert vars(owner)[attr] is original, attr
