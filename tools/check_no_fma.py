#!/usr/bin/env python3
"""Fail if any of the given object files contains a fused multiply-add.

The kernel backends promise bit-identical results because every mul and
every add rounds on its own (DESIGN.md §4): an FMA rounds once where the
scalar reference rounds twice. The AVX2 and AVX-512 kernel objects are
built with FMA-capable ISA flags, so only -ffp-contract=off and the
kernels' own care keep the compiler from contracting. This disassembles
each object with objdump and fails on any vfmadd, vfmsub, vfnmadd or
vfnmsub instruction (their add/sub and scalar forms included).

Usage: check_no_fma.py OBJECT...   (CMake passes $<TARGET_OBJECTS:yf>)

Exit status: 0 clean, 1 FMA found or objdump failed, 77 (ctest's skip
code) when objdump is not installed.
"""
import re
import shutil
import subprocess
import sys

FMA = re.compile(r"\bvfn?m(add|sub)\w*")


def main(argv):
    objects = [p for arg in argv[1:] for p in arg.split(";") if p]
    if not objects:
        print("check_no_fma: no object files given", file=sys.stderr)
        return 1
    objdump = shutil.which("objdump")
    if objdump is None:
        print("check_no_fma: objdump not found, skipping")
        return 77
    found = []
    for path in objects:
        proc = subprocess.run([objdump, "-d", "--no-show-raw-insn", path],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"check_no_fma: objdump failed on {path}: {proc.stderr.strip()}",
                  file=sys.stderr)
            return 1
        function = "?"
        for line in proc.stdout.splitlines():
            if line.endswith(">:"):
                function = line
            elif FMA.search(line):
                found.append(f"{path}: {function} {line.strip()}")
    if found:
        print(f"check_no_fma: {len(found)} FMA instruction(s):", file=sys.stderr)
        for entry in found[:50]:
            print("  " + entry, file=sys.stderr)
        return 1
    kernels = sum("kernels_" in p for p in objects)
    print(f"check_no_fma: {len(objects)} objects ({kernels} kernel objects), no FMA")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
