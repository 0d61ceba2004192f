#!/usr/bin/env python
"""Documentation consistency checks (the CI docs job).

Five passes:

1. **Relative links resolve.** Every ``[text](target)`` markdown link
   in the top-level docs and ``docs/*.md`` whose target is not an URL
   or a pure anchor must point at an existing file or directory.
2. **Documented CLI invocations parse.** Every ``python -m repro ...``
   line inside a fenced code block must be accepted by the real
   argument parser (``repro.cli.build_parser``), so command renames or
   flag removals cannot silently strand the docs.
3. **Referenced files exist.** Backtick references to
   ``benchmarks/...``, ``tests/...``, ``examples/...`` and
   ``scripts/...`` paths must exist — including
   ``benchmarks/results/*.txt``, which are tracked in the repository.
4. **Kernel-contract cross-references.** The modules that carry the
   packed/unpacked equivalence invariant (``repro._kernels``,
   ``repro.dram.bank``) must cite ``docs/KERNELS.md`` in their module
   docstrings, and ``docs/KERNELS.md`` must exist — the layout
   contract cannot silently detach from the code that implements it.
5. **Code names resolve.** Every backticked ``Class.attr`` reference
   whose ``Class`` is a class defined in ``src/repro`` must name a
   method, class attribute, field or ``self.attr`` assignment of that
   class (or of a ``src/repro`` class it derives from), and every
   backticked private name (``_name``) must be defined in
   ``src/repro`` or ``tests/oracle.py``, so deleted or renamed code
   cannot linger in the docs.

Run from the repository root:

    PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import ast
import pathlib
import re
import shlex
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [ROOT / name for name in
     ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")
     if (ROOT / name).exists()]
    + list((ROOT / "docs").glob("*.md")))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
CLI_RE = re.compile(r"^\s*python -m repro\b(.*)$")
FILE_REF_RE = re.compile(r"`((?:benchmarks|tests|examples|scripts)/"
                         r"[\w./-]+\.(?:py|txt))`")
CLASS_REF_RE = re.compile(r"`([A-Z]\w*)\.(\w+)")
PRIVATE_REF_RE = re.compile(r"`(_[a-z]\w*)`")


def check_links(path: pathlib.Path, text: str) -> list:
    errors = []
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#")[0]).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(ROOT)}: broken link "
                          f"-> {target}")
    return errors


def check_cli_commands(path: pathlib.Path, text: str) -> list:
    from repro.cli import build_parser

    errors = []
    for block in FENCE_RE.findall(text):
        for line in block.splitlines():
            match = CLI_RE.match(line)
            if not match:
                continue
            argv = shlex.split(match.group(1), comments=True)
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                errors.append(f"{path.relative_to(ROOT)}: documented "
                              f"command does not parse: "
                              f"python -m repro {' '.join(argv)}")
    return errors


def check_file_refs(path: pathlib.Path, text: str) -> list:
    errors = []
    for ref in FILE_REF_RE.findall(text):
        if not (ROOT / ref).exists():
            errors.append(f"{path.relative_to(ROOT)}: referenced file "
                          f"missing -> {ref}")
    return errors


# Modules whose docstrings must cite the kernel contract: they hold
# the two halves of the packed/unpacked equivalence invariant.
KERNEL_CONTRACT_MODULES = ("src/repro/_kernels.py",
                           "src/repro/dram/bank.py")


def check_kernel_contract() -> list:
    errors = []
    contract = ROOT / "docs" / "KERNELS.md"
    if not contract.exists():
        return [f"missing kernel contract document -> "
                f"{contract.relative_to(ROOT)}"]
    for rel in KERNEL_CONTRACT_MODULES:
        module = ROOT / rel
        if not module.exists():
            errors.append(f"{rel}: kernel-contract module missing")
            continue
        doc = ast.get_docstring(ast.parse(module.read_text())) or ""
        if "docs/KERNELS.md" not in doc:
            errors.append(f"{rel}: module docstring does not cite "
                          f"docs/KERNELS.md (the packed-layout "
                          f"contract)")
    return errors


def _assigned(node) -> list:
    """Targets of an assignment node (none for other nodes)."""
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    return []


def _self_attrs(node) -> set:
    return {t.attr for sub in ast.walk(node) for t in _assigned(sub)
            if isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name) and t.value.id == "self"}


def code_names() -> tuple:
    """What the docs may name: ``(classes, names)``.

    ``classes`` maps each class defined in ``src/repro`` to ``(its
    attributes, its base names)``: methods, class-level assignments
    and annotations, and every ``self.<name>`` it assigns; same-named
    classes merge.  The names are every function, class, assignment
    and ``self`` attribute in ``src/repro`` and ``tests/oracle.py``.
    """
    classes: dict = {}
    names: set = set()
    modules = sorted((ROOT / "src" / "repro").rglob("*.py"))
    for module in modules + [ROOT / "tests" / "oracle.py"]:
        tree = ast.parse(module.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            names.update(t.id for t in _assigned(node)
                         if isinstance(t, ast.Name))
            if not isinstance(node, ast.ClassDef):
                continue
            names.update(_self_attrs(node))
            if module not in modules:
                continue
            attrs, bases = classes.setdefault(node.name, (set(), set()))
            bases.update(b.id for b in node.bases
                         if isinstance(b, ast.Name))
            attrs.update(_self_attrs(node))
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    attrs.add(item.name)
                attrs.update(t.id for t in _assigned(item)
                             if isinstance(t, ast.Name))
    return classes, names


def check_code_refs(path: pathlib.Path, text: str, classes: dict,
                    names: set) -> list:
    def has(name: str, attr: str, seen: frozenset = frozenset()) -> bool:
        attrs, bases = classes[name]
        return attr in attrs or any(
            has(b, attr, seen | {name}) for b in bases
            if b in classes and b not in seen)

    rel = path.relative_to(ROOT)
    return ([f"{rel}: `{name}.{attr}` names no member of class {name}"
             for name, attr in CLASS_REF_RE.findall(text)
             if name in classes and not has(name, attr)]
            + [f"{rel}: `{name}` is defined nowhere in src/repro or "
               f"tests/oracle.py"
               for name in PRIVATE_REF_RE.findall(text)
               if name not in names])


def main() -> int:
    errors = []
    classes, names = code_names()
    for path in DOC_FILES:
        text = path.read_text()
        errors += check_links(path, text)
        errors += check_cli_commands(path, text)
        errors += check_file_refs(path, text)
        errors += check_code_refs(path, text, classes, names)
    errors += check_kernel_contract()
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    checked = ", ".join(str(p.relative_to(ROOT)) for p in DOC_FILES)
    print(f"checked {len(DOC_FILES)} documents ({checked}): "
          f"{len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
