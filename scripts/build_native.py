#!/usr/bin/env python3
"""Rebuild the Rust SAT bridge and copy it into the package tree.

Run after changing native/abi/src/ or native/cdcl/src/:

    python3 scripts/build_native.py [--profile release]

Builds the built-in CDCL solver of native/cdcl offline (it has no
dependencies outside native/), which implements the `Backend` trait of
native/abi, whose `satbridge_abi!` macro writes the one C ABI.
"""

from __future__ import annotations

import argparse
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRATE = ROOT / "native" / "cdcl"
TARGET = ROOT / "native" / "target"  # the native/ workspace's output
DEST = ROOT / "src" / "alcfit" / "_native"

_LIB_NAMES = {
    "Linux": "libsatbridge.so",
    "Darwin": "libsatbridge.dylib",
    "Windows": "satbridge.dll",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=("release", "debug"),
                        default="release")
    args = parser.parse_args(argv)

    lib_name = _LIB_NAMES.get(platform.system(), "libsatbridge.so")
    cmd = ["cargo", "build", "--offline"]
    if args.profile == "release":
        cmd.append("--release")
    print("+", " ".join(cmd), f"(in {CRATE})", flush=True)
    try:
        proc = subprocess.run(cmd, cwd=CRATE)
    except OSError as exc:
        print(f"error: cannot run cargo: {exc}", file=sys.stderr)
        return 1
    built = TARGET / args.profile / lib_name
    if proc.returncode != 0 or not built.exists():
        print(f"error: {CRATE.relative_to(ROOT)} did not build",
              file=sys.stderr)
        return 1
    DEST.mkdir(parents=True, exist_ok=True)
    shutil.copy2(built, DEST / lib_name)
    print(f"copied {built} -> {DEST / lib_name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
