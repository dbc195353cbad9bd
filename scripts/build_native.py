#!/usr/bin/env python3
"""Rebuild the Rust SAT bridge and copy it into the package tree.

Run after changing native/cdcl/src/:

    python3 scripts/build_native.py [--profile release]

Builds the one crate native/cdcl offline (it has no dependencies): the
built-in CDCL solver and the seven `satbridge_*` C calls of its lib.rs.
The library is copied from where cargo reports it built it, so a
`CARGO_TARGET_DIR` is honoured and no stale build is picked up.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRATE = ROOT / "native" / "cdcl"
DEST = ROOT / "src" / "alcfit" / "_native"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=("release", "debug"),
                        default="release")
    args = parser.parse_args(argv)

    cmd = ["cargo", "build", "--offline",
           "--message-format=json-render-diagnostics"]
    if args.profile == "release":
        cmd.append("--release")
    print("+", " ".join(cmd), f"(in {CRATE})", flush=True)
    try:
        proc = subprocess.run(cmd, cwd=CRATE, stdout=subprocess.PIPE,
                              text=True)
    except OSError as exc:
        print(f"error: cannot run cargo: {exc}", file=sys.stderr)
        return 1
    built = None
    for line in proc.stdout.splitlines():
        message = json.loads(line)
        if (message.get("reason") == "compiler-artifact"
                and "cdylib" in message["target"]["kind"]):
            built = next(Path(name) for name in message["filenames"]
                         if Path(name).suffix in (".so", ".dylib", ".dll"))
    if proc.returncode != 0 or built is None:
        print(f"error: {CRATE.relative_to(ROOT)} did not build",
              file=sys.stderr)
        return 1
    DEST.mkdir(parents=True, exist_ok=True)
    shutil.copy2(built, DEST / built.name)
    print(f"copied {built} -> {DEST / built.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
