#!/usr/bin/env python3
"""Byte-compare the SimMachine bench reports of two build trees.

SimMachine runs in virtual time, so a change that claims to leave the
simulated runtime alone must leave every Sim bench's BENCH_<name>.json
byte-identical. This script runs each listed bench binary from both build
trees (each in its own empty working directory, with every HAL_* variable
removed from the environment so the benches take their defaults) and
compares the reports file by file.

Usage: sim_identity.py BASE_BUILD NEW_BUILD

BASE_BUILD and NEW_BUILD are CMake build directories (the binaries are
read from <build>/bench/<name>); the reports go to a temporary directory
that is deleted afterwards.

stdlib only; exit 0 when every report is identical, 1 when any differs,
is missing, or a bench fails.
"""
import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIM_BENCHES = [
    "table1_cholesky",
    "table2_primitives",
    "table3_dispatch",
    "table4_fib",
    "table5_matmul",
    "ablation_aliases",
    "ablation_flowcontrol",
    "ablation_namecache",
    "ablation_broadcast",
    "ablation_network",
    "ablation_faults",
]


def run_bench(build: Path, name: str, workdir: Path) -> dict:
    """Run one bench in `workdir`; return {report file name: bytes}."""
    workdir.mkdir(parents=True)
    binary = (build / "bench" / name).resolve()
    env = {k: v for k, v in os.environ.items() if not k.startswith("HAL_")}
    proc = subprocess.run(
        [str(binary)], cwd=workdir, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{binary} exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return {p.name: p.read_bytes() for p in sorted(workdir.glob("BENCH_*.json"))}


def first_difference(a: bytes, b: bytes) -> str:
    """Byte offset of the first difference, with a little context."""
    i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    lo = max(0, i - 30)
    return (f"byte {i}: {a[lo:i + 30].decode(errors='replace')!r} vs "
            f"{b[lo:i + 30].decode(errors='replace')!r}")


def compare(base: Path, new: Path, out: Path) -> bool:
    ok = True
    for name in SIM_BENCHES:
        try:
            a = run_bench(base, name, out / "base" / name)
            b = run_bench(new, name, out / "new" / name)
        except (OSError, RuntimeError) as e:
            print(f"FAIL      {name}: {e}")
            ok = False
            continue
        if not a and not b:
            print(f"FAIL      {name}: wrote no BENCH_*.json")
            ok = False
        for fname in sorted(set(a) | set(b)):
            if fname not in a or fname not in b:
                side = "base" if fname not in a else "new"
                print(f"MISSING   {fname} (not written by the {side} tree)")
                ok = False
            elif a[fname] != b[fname]:
                print(f"DIFFERS   {fname}: {first_difference(a[fname], b[fname])}")
                ok = False
            else:
                print(f"identical {fname} ({len(a[fname])} bytes)")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="baseline CMake build directory")
    ap.add_argument("new", type=Path, help="changed CMake build directory")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="sim_identity_") as tmp:
        ok = compare(args.base, args.new, Path(tmp))
    print("sim identity: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
