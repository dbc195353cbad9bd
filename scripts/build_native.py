#!/usr/bin/env python3
"""Rebuild the Rust SAT bridge and copy it into the package tree.

Run after changing native/abi/src/, native/cdcl/src/ or
native/satbridge/src/lib.rs:

    python3 scripts/build_native.py [--profile release]

The CaDiCaL bridge (native/satbridge) is tried first; it needs its `cadical`
crate, which cargo fetches from the registry.  If that build fails, the
built-in CDCL solver (native/cdcl, no dependencies outside native/) is built
offline instead.  Both implement the `Backend` trait of native/abi, whose
`satbridge_abi!` macro writes the one C ABI; the script prints which crate
it used.
"""

from __future__ import annotations

import argparse
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CADICAL_CRATE = ROOT / "native" / "satbridge"
BUILTIN_CRATE = ROOT / "native" / "cdcl"
# cargo's output directory per crate: the built-in solver is a member of the
# native/ workspace, the CaDiCaL bridge a workspace of its own
TARGETS = {CADICAL_CRATE: CADICAL_CRATE / "target",
           BUILTIN_CRATE: ROOT / "native" / "target"}
DEST = ROOT / "src" / "alcfit" / "_native"

_LIB_NAMES = {
    "Linux": "libsatbridge.so",
    "Darwin": "libsatbridge.dylib",
    "Windows": "satbridge.dll",
}


def build(crate: Path, profile: str, lib_name: str,
          offline: bool) -> Path | None:
    """Run cargo in the crate; the built library, or None on failure."""
    cmd = ["cargo", "build"]
    if profile == "release":
        cmd.append("--release")
    if offline:
        cmd.append("--offline")
    print("+", " ".join(cmd), f"(in {crate})", flush=True)
    try:
        proc = subprocess.run(cmd, cwd=crate)
    except OSError as exc:
        print(f"error: cannot run cargo: {exc}", file=sys.stderr)
        return None
    built = TARGETS[crate] / profile / lib_name
    if proc.returncode != 0 or not built.exists():
        return None
    return built


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=("release", "debug"),
                        default="release")
    args = parser.parse_args(argv)

    lib_name = _LIB_NAMES.get(platform.system(), "libsatbridge.so")
    crate = CADICAL_CRATE
    built = build(crate, args.profile, lib_name, offline=False)
    if built is None:
        print(f"{crate.relative_to(ROOT)} (CaDiCaL) did not build; "
              "falling back to the built-in CDCL solver", flush=True)
        crate = BUILTIN_CRATE
        built = build(crate, args.profile, lib_name, offline=True)
    if built is None:
        print(f"error: {crate.relative_to(ROOT)} did not build",
              file=sys.stderr)
        return 1
    DEST.mkdir(parents=True, exist_ok=True)
    shutil.copy2(built, DEST / lib_name)
    print(f"used {crate.relative_to(ROOT)}: copied {built} -> "
          f"{DEST / lib_name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
