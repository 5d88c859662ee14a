#!/usr/bin/env python3
"""Compare the paper reproductions of two builds byte for byte.

    python3 tools/repro_diff.py PARENT_BUILD CHANGE_BUILD [BINARY ...] \\
        [--env NAME=VALUE ...]

Runs each reproduction binary once per build, in quick mode, every run in
its own fresh temporary directory; the two sides of a binary run one after
the other. For every binary it prints whether stdout, stderr and each file
the run wrote (the CSVs) are byte-identical across the two builds, and the
wall time of each side.

Without BINARY arguments it runs every fig*, table*, lemma5* and
ablation* executable of PARENT_BUILD. YF_FULL is dropped from the
inherited environment, so runs use the quick protocol; --env adds a
variable to both sides, e.g. --env YF_ENGINE=server --env YF_WORKERS=1.

Exits 1 when any output differs, a binary is missing, or a run exits
non-zero or outlasts RUN_TIMEOUT_S. The default set runs for minutes
(table2 alone takes about a minute and a half per side on a 4-vCPU host),
so this is a tool to run by hand, not a ctest.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DEFAULT_PREFIXES = ("fig", "table", "lemma5", "ablation")
RUN_TIMEOUT_S = 1800


def default_binaries(build):
    return sorted(p.name for p in build.iterdir()
                  if p.is_file() and os.access(p, os.X_OK) and p.name.startswith(DEFAULT_PREFIXES))


def run(binary, env):
    """One run in a fresh directory: (exit code, stdout, stderr, files, wall s)."""
    with tempfile.TemporaryDirectory(prefix="repro_diff_") as tmp:
        start = time.monotonic()
        try:
            proc = subprocess.run([str(binary)], cwd=tmp, env=env, capture_output=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            return "timeout", e.stdout or b"", e.stderr or b"", {}, time.monotonic() - start
        wall = time.monotonic() - start
        files = {p.relative_to(tmp).as_posix(): p.read_bytes()
                 for p in sorted(Path(tmp).rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, proc.stderr, files, wall


def compare(name, a, b):
    """Report line for one binary and whether both sides match."""
    code_a, out_a, err_a, files_a, wall_a = a
    code_b, out_b, err_b, files_b, wall_b = b
    parts = [f"stdout {'same' if out_a == out_b else 'DIFFERS'}",
             f"stderr {'same' if err_a == err_b else 'DIFFERS'}"]
    ok = out_a == out_b and err_a == err_b
    for f in sorted(files_a.keys() | files_b.keys()):
        if f not in files_b:
            parts.append(f"{f} only in parent")
        elif f not in files_a:
            parts.append(f"{f} only in change")
        else:
            parts.append(f"{f} {'same' if files_a[f] == files_b[f] else 'DIFFERS'}")
        ok = ok and files_a.get(f) == files_b.get(f)
    if code_a != 0 or code_b != 0:
        parts.append(f"EXIT {code_a} / {code_b}")
        ok = False
    return f"{name}: {', '.join(parts)}; wall {wall_a:.1f} s -> {wall_b:.1f} s", ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_build", type=Path)
    ap.add_argument("change_build", type=Path)
    ap.add_argument("binaries", nargs="*", help="binary names (default: every reproduction)")
    ap.add_argument("--env", action="append", default=[], metavar="NAME=VALUE",
                    help="extra environment for both sides (repeatable)")
    args = ap.parse_args()

    env = {k: v for k, v in os.environ.items() if k != "YF_FULL"}
    for item in args.env:
        name, sep, value = item.partition("=")
        if not sep or not name:
            ap.error(f"--env expects NAME=VALUE, got {item!r}")
        env[name] = value

    builds = [args.parent_build.resolve(), args.change_build.resolve()]
    names = args.binaries or default_binaries(builds[0])
    if not names:
        ap.error(f"no reproduction binaries in {builds[0]}")

    failures = 0
    for name in names:
        paths = [b / name for b in builds]
        missing = [str(p) for p in paths if not p.is_file()]
        if missing:
            print(f"{name}: MISSING {', '.join(missing)}", flush=True)
            failures += 1
            continue
        line, ok = compare(name, *(run(p, env) for p in paths))
        print(line, flush=True)
        failures += not ok
    print(f"{len(names) - failures} of {len(names)} binaries identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
