#!/usr/bin/env python
"""Unified repo lint gate: imports, docstrings, verifier rule catalog.

One entry point for every source-hygiene check the CI lint job runs:

* ``lint_imports`` — unused/duplicate imports and import-group ordering
  (see ``tools/lint_imports.py``);
* ``lint_docstrings`` — module docstrings and package contracts (see
  ``tools/lint_docstrings.py``);
* ``rule catalog sync`` — every rule ID registered in
  ``repro.verify.diagnostics.RULES`` must be documented in
  ``docs/verification.md``, and every rule-shaped ID mentioned there
  (``RB001``, ``RR003``, ``RP001``, ``RE002``, …) must exist in the
  registry.  Adding a verifier rule without documenting it — or
  documenting a rule that was removed — fails the lint.
* ``rule-family index sync`` — the rule-family index table at the top
  of ``docs/verification.md`` must have one row per registered family
  (RB/RR/RC/RL/RP/RM/RE) and no rows for families with no rules.
* ``analyzer RULES sync`` — every analyzer module in
  ``src/repro/verify/`` must declare a module-level ``RULES`` tuple
  covering every rule ID its source emits (string literals shaped like
  rule IDs), and the union of all module tables must equal the central
  registry.  An analyzer emitting an ID missing from its own table — or
  claiming an ID no module emits and no registry entry backs — fails.
* ``recipe catalog sync`` — every schedule transform registered in
  ``repro.schedule.transforms.CATALOG`` must be documented in the
  transform catalog of ``docs/schedules.md`` (a ``` `op(...)` ```
  heading per transform), and every transform documented there must
  exist in the catalog.
* ``one cache`` — every bounded in-process memo goes through
  ``repro.pipeline.cache.LRU``: ``OrderedDict`` or ``.popitem(``
  anywhere under ``src/repro/`` outside ``pipeline/cache.py`` is a
  hand-rolled store and fails, naming the file and line.

Exit status is unified: 0 when every check is clean, 1 when any check
reports findings.  Run as ``python tools/lint.py`` from the repository
root (the rule-catalog check imports ``repro.verify`` from ``src/``
directly, so no ``PYTHONPATH`` is needed); this is what the CI lint job
executes, and it stays dependency-free.
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "src"))

import lint_docstrings  # noqa: E402
import lint_imports  # noqa: E402

RULE_ID = re.compile(r"\bR[BRCLPEM]\d{3}\b")
#: a string literal that *is* a rule ID (not merely mentions one)
RULE_LITERAL = re.compile(r"^R[BRCLPEM]\d{3}$")

#: a rule-family row in the docs/verification.md index table: ``| RB |``
FAMILY_ROW = re.compile(r"^\|\s*(R[A-Z])\s*\|", re.MULTILINE)

#: modules in src/repro/verify/ that are not analyzers (no RULES table)
NON_ANALYZERS = {"__init__", "diagnostics"}


def check_rule_catalog() -> int:
    """docs/verification.md and verify.diagnostics.RULES agree exactly."""
    from repro.verify.diagnostics import RULES

    doc_path = ROOT / "docs" / "verification.md"
    documented = set(RULE_ID.findall(doc_path.read_text()))
    registered = set(RULES)
    findings = []
    for rule in sorted(registered - documented):
        findings.append(
            f"{doc_path}: rule {rule} is registered in "
            "repro.verify.diagnostics.RULES but not documented"
        )
    for rule in sorted(documented - registered):
        findings.append(
            f"{doc_path}: rule {rule} is mentioned but not registered in "
            "repro.verify.diagnostics.RULES"
        )
    for f in findings:
        print(f)
    print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


def _emitted_rule_ids(path: Path) -> set:
    """Rule IDs appearing as whole string literals in one module."""
    tree = ast.parse(path.read_text())
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and RULE_LITERAL.match(node.value)
    }


def check_analyzer_rules() -> int:
    """Each analyzer's RULES table covers the IDs its source emits."""
    from repro.verify.diagnostics import RULES as registry

    findings = []
    claimed = set()
    for path in sorted((ROOT / "src" / "repro" / "verify").glob("*.py")):
        if path.stem in NON_ANALYZERS:
            continue
        emitted = _emitted_rule_ids(path)
        table = getattr(
            importlib.import_module(f"repro.verify.{path.stem}"), "RULES", None
        )
        if table is None:
            if emitted:
                findings.append(
                    f"{path}: emits rule IDs {sorted(emitted)} but declares "
                    "no module-level RULES table"
                )
            continue
        claimed.update(table)
        for rule in sorted(emitted - set(table)):
            findings.append(
                f"{path}: emits rule ID {rule} missing from its RULES table"
            )
    for rule in sorted(claimed - set(registry)):
        findings.append(
            f"rule {rule} is claimed by an analyzer RULES table but not "
            "registered in repro.verify.diagnostics.RULES"
        )
    for rule in sorted(set(registry) - claimed):
        findings.append(
            f"rule {rule} is registered in repro.verify.diagnostics.RULES "
            "but no analyzer RULES table claims it"
        )
    for f in findings:
        print(f)
    print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


def check_family_index() -> int:
    """The rule-family index table covers every registered family."""
    from repro.verify.diagnostics import RULES

    doc_path = ROOT / "docs" / "verification.md"
    indexed = set(FAMILY_ROW.findall(doc_path.read_text()))
    registered = {rule[:2] for rule in RULES}
    findings = []
    for fam in sorted(registered - indexed):
        findings.append(
            f"{doc_path}: rule family {fam} has registered rules but no "
            "row in the rule-family index table"
        )
    for fam in sorted(indexed - registered):
        findings.append(
            f"{doc_path}: rule family {fam} is indexed but has no "
            "registered rules"
        )
    for f in findings:
        print(f)
    print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


#: a catalog entry line in docs/schedules.md: ``- `op(...)` — ...``
TRANSFORM_DOC = re.compile(r"^- `([a-z_]+)\(", re.MULTILINE)


def _catalog_section(text: str) -> str:
    """The ``## Transform catalog`` section of docs/schedules.md."""
    m = re.search(r"^## Transform catalog$(.*?)(?=^## |\Z)", text,
                  re.MULTILINE | re.DOTALL)
    return m.group(1) if m else ""


def check_recipe_catalog() -> int:
    """docs/schedules.md and schedule.transforms.CATALOG agree exactly."""
    from repro.schedule.transforms import CATALOG

    doc_path = ROOT / "docs" / "schedules.md"
    findings = []
    if not doc_path.exists():
        findings.append(
            f"{doc_path}: missing (the transform catalog lives there)"
        )
    else:
        section = _catalog_section(doc_path.read_text())
        if not section:
            findings.append(
                f"{doc_path}: no '## Transform catalog' section found"
            )
        documented = set(TRANSFORM_DOC.findall(section))
        for op in sorted(set(CATALOG) - documented):
            findings.append(
                f"{doc_path}: transform {op!r} is registered in "
                "repro.schedule.transforms.CATALOG but not documented"
            )
        for op in sorted(documented - set(CATALOG)):
            findings.append(
                f"{doc_path}: transform {op!r} is documented but not "
                "registered in repro.schedule.transforms.CATALOG"
            )
    for f in findings:
        print(f)
    print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


#: a hand-rolled bounded store: the LRU idiom outside pipeline/cache.py
HAND_ROLLED_CACHE = re.compile(r"OrderedDict|\.popitem\(")


def check_one_cache() -> int:
    """No bounded store is hand-rolled outside ``pipeline/cache.py``."""
    src = ROOT / "src" / "repro"
    home = src / "pipeline" / "cache.py"
    findings = []
    for path in sorted(src.rglob("*.py")):
        if path == home:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if HAND_ROLLED_CACHE.search(line):
                findings.append(
                    f"{path.relative_to(ROOT)}:{lineno}: hand-rolled "
                    f"bounded store ({line.strip()!r}); use "
                    "repro.pipeline.cache.LRU"
                )
    for f in findings:
        print(f)
    print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


def main() -> int:
    status = 0
    for title, check in [
        ("import lint", lint_imports.main),
        ("docstring lint", lint_docstrings.main),
        ("verifier rule catalog", check_rule_catalog),
        ("rule-family index", check_family_index),
        ("analyzer RULES sync", check_analyzer_rules),
        ("recipe catalog sync", check_recipe_catalog),
        ("one cache", check_one_cache),
    ]:
        print(f"== {title} ==")
        status |= check()
    print("lint: " + ("FAIL" if status else "OK"))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
