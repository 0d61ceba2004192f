"""The benchmark's span hooks still name live bindings of the program.

``perfbench/tracing.py`` wraps every entry point in its ``HOOKS`` table
at the binding callers use: a method found in its class's own
``__dict__``, or a module global.  A rename or deletion in ``src/``
that strands a hook breaks ``perfbench/run.py --trace 1``; this test
resolves every hook the way ``Tracer.install`` does, so the fast lane
catches it.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" \
    / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing()


@pytest.mark.parametrize(
    "hook", TRACING_MODULE.HOOKS,
    ids=lambda h: ".".join(p for p in h[:3] if p))
def test_hook_binding_resolves(hook):
    module_name, owner_name, attr, _span, _counter = hook
    module = importlib.import_module(module_name)
    if owner_name:
        owner = getattr(module, owner_name)
        assert attr in owner.__dict__, (
            f"{owner_name}.{attr} is not defined on {owner_name} itself")
        assert callable(owner.__dict__[attr])
    else:
        assert callable(getattr(module, attr))


def test_tracer_installs_and_restores(tmp_path):
    tracer = TRACING_MODULE.Tracer(str(tmp_path))
    before = []
    for module_name, owner_name, attr, *_ in TRACING_MODULE.HOOKS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        before.append((owner, attr, getattr(owner, attr)))
    tracer.install()
    try:
        for owner, attr, original in before:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in before:
        assert getattr(owner, attr) is original
