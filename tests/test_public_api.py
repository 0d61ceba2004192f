"""Public API integrity: every promised name resolves and documents."""

import importlib
import inspect

import pytest

PACKAGES = ["repro", "repro.core", "repro.dram", "repro.sim",
            "repro.dcref", "repro.mitigate", "repro.analysis",
            "repro.runtime", "repro.ecc", "repro.robust", "repro.obs",
            "repro.service"]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} missing __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_callables_documented(package):
    module = importlib.import_module(package)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(f"{package}.{name}")
    assert not undocumented, f"missing docstrings: {undocumented}"


def test_version_string():
    import repro
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_modules_have_docstrings():
    import pathlib

    import repro
    root = pathlib.Path(repro.__file__).parent
    missing = []
    for path in root.rglob("*.py"):
        text = path.read_text()
        stripped = text.lstrip()
        if not (stripped.startswith('"""') or stripped.startswith("'''")):
            missing.append(str(path.relative_to(root)))
    assert not missing, f"modules without docstrings: {missing}"
