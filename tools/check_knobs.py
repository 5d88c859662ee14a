#!/usr/bin/env python3
"""Environment-knob drift check (CI `docs` job + `check_knobs` ctest).

A knob is a `YF_*` environment variable that the code reads. Three rules
keep the code, README's operator knob table, and the test/CI setup in
step:

  1. every `"YF_*"` string literal in src/, bench/ and examples/ has a
     row in README's knob table;
  2. every row of that table names a knob some source reads (rule 1's
     literals);
  3. every `YF_*` variable set by a CMake `ENVIRONMENT` test property, by
     an `env:` block of a CI workflow, or by a shell assignment / `export`
     in a workflow is a knob some source reads.

So a deleted knob cannot linger as a README row, a ctest variant or a CI
setting that silently does nothing. CMake `-DYF_*` cache options are not
environment variables and are not checked. Exits non-zero listing every
violation.
"""

import argparse
import os
import pathlib
import re
import sys

SOURCE_DIRS = ("src", "bench", "examples")
SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc", ".py")
LITERAL_RE = re.compile(r'"(YF_[A-Z0-9_]+)"')
README_ROW_RE = re.compile(r"^\|\s*`(YF_[A-Z0-9_]+)`\s*\|")
CMAKE_ENV_RE = re.compile(r'\bENVIRONMENT\s+"([^"]*)"')
ASSIGN_RE = re.compile(r"(?<![\w-])(YF_[A-Z0-9_]+)=")
YAML_ENV_RE = re.compile(r"^(\s*)env:\s*$")
YAML_KEY_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*:")


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def source_reads(root):
    """knob -> first file:line that names it as a string literal."""
    reads = {}
    for top in SOURCE_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8")
            for m in LITERAL_RE.finditer(text):
                where = f"{path.relative_to(root)}:{line_of(text, m.start())}"
                reads.setdefault(m.group(1), where)
    return reads


def readme_rows(root):
    """knob -> README line of its knob-table row."""
    rows = {}
    for lineno, line in enumerate((root / "README.md").read_text(encoding="utf-8").splitlines(), 1):
        m = README_ROW_RE.match(line)
        if m:
            rows.setdefault(m.group(1), f"README.md:{lineno}")
    return rows


def cmake_files(root):
    """CMakeLists.txt / *.cmake in the repo, skipping build trees and
    hidden directories."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d
            for d in dirnames
            if not d.startswith(".") and not (pathlib.Path(dirpath, d, "CMakeCache.txt")).exists()
        )
        for name in sorted(filenames):
            if name == "CMakeLists.txt" or name.endswith(".cmake"):
                yield pathlib.Path(dirpath, name)


def cmake_sets(root):
    """(knob, file:line) for every YF_* set by a CMake ENVIRONMENT property."""
    out = []
    for path in cmake_files(root):
        text = path.read_text(encoding="utf-8")
        for m in CMAKE_ENV_RE.finditer(text):
            where = f"{path.relative_to(root)}:{line_of(text, m.start())}"
            for var in re.findall(r"(YF_[A-Z0-9_]+)=", m.group(1)):
                out.append((var, where))
    return out


def workflow_sets(root):
    """(knob, file:line) for every YF_* a CI workflow sets: keys of `env:`
    blocks, plus shell assignments (`export YF_X=...`, `YF_X=... cmd`)."""
    out = []
    workflows = root / ".github" / "workflows"
    if not workflows.is_dir():
        return out
    for path in sorted(workflows.iterdir()):
        if path.suffix not in (".yml", ".yaml"):
            continue
        rel = path.relative_to(root)
        env_indent = None
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            stripped = line.strip()
            if env_indent is not None and stripped and not stripped.startswith("#"):
                indent = len(line) - len(line.lstrip())
                if indent <= env_indent:
                    env_indent = None
                else:
                    m = YAML_KEY_RE.match(line)
                    if m and m.group(1).startswith("YF_"):
                        out.append((m.group(1), f"{rel}:{lineno}"))
                    continue
            m = YAML_ENV_RE.match(line)
            if m:
                env_indent = len(m.group(1))
                continue
            for var in ASSIGN_RE.findall(line):
                out.append((var, f"{rel}:{lineno}"))
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root (default: cwd)")
    root = pathlib.Path(parser.parse_args(argv).root).resolve()

    reads = source_reads(root)
    rows = readme_rows(root)
    errors = []
    for knob, where in sorted(reads.items()):
        if knob not in rows:
            errors.append(f"{where}: {knob} is read but has no row in README's knob table")
    for knob, where in sorted(rows.items()):
        if knob not in reads:
            errors.append(f"{where}: {knob} has a README row but no source reads it")
    for knob, where in cmake_sets(root) + workflow_sets(root):
        if knob not in reads:
            errors.append(f"{where}: sets {knob}, which no source reads")

    if errors:
        print(f"check_knobs: {len(errors)} problem(s):", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    print(f"check_knobs: OK ({len(reads)} knobs, all documented and all settings live)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
