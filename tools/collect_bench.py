#!/usr/bin/env python3
"""Aggregate bench/ machine-readable results into one pinned JSON baseline.

Two kinds of binaries live under <build>/bench:

  exp_*          experiment harnesses — accept `--trials N --json FILE` and
                 write a single document (title, seed, trials, tables).
  bench_hotpath  hot-path timing harness — same `--json` document shape,
                 plus `--max-history` / `--rounds` size knobs.
  bench_*        google-benchmark micros — dumped via
                 `--benchmark_out=FILE --benchmark_out_format=json`.

This driver runs whichever of them are present (or aggregates pre-existing
per-binary JSON files from a directory) and merges everything into one file
— by convention BENCH_sim.json, the committed perf baseline that
tools/bench_diff.py compares future runs against. The header records the
git SHA, whether tracked files differed from it (git_dirty), and the CMake
build type the numbers were produced from, so a diff against a mismatched
build is detectable.

Standalone documents produced outside the bench/ binaries — e.g.
tools/cluster_test.py --json — fold in via --extra NAME=FILE; they merge
under experiments[NAME] exactly like a harness document, so their [B]
columns are diffable by bench_diff.py too.

Usage:
  tools/collect_bench.py --build-dir build --out BENCH_sim.json [--trials 3]
  tools/collect_bench.py --build-dir build --only 'e10' --extra cluster_loopback=c.json \\
      --out BENCH_net.json
  tools/collect_bench.py --from-dir results/ --out BENCH_sim.json
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

MICRO_PREFIXES = ("bench_memory", "bench_chain", "bench_sim")


def git(repo_root: Path, *args: str) -> str | None:
    """Stripped stdout of `git <args>` in repo_root; None outside a checkout."""
    try:
        out = subprocess.run(["git", *args], cwd=repo_root, capture_output=True, timeout=10)
    except OSError:
        return None
    return out.stdout.decode().strip() if out.returncode == 0 else None


def build_type(build_dir: Path) -> str:
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file():
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(), re.MULTILINE)
        if m and m.group(1):
            return m.group(1)
    return "unknown"


def run_binaries(build_dir: Path, trials: int, only: str | None,
                 hotpath_args: list[str], micro_min_time: float,
                 allow_empty: bool = False) -> dict[str, dict]:
    bench_dir = build_dir / "bench"
    binaries = sorted(
        p for p in bench_dir.glob("*")
        if p.is_file() and (p.name.startswith("exp_") or p.name.startswith("bench_"))
    )
    if only:
        binaries = [p for p in binaries if re.search(only, p.name)]
    if not binaries:
        # A document built purely from --extra files (e.g. CI folding a
        # swarm_smoke run for bench_diff) runs no binaries at all.
        if allow_empty:
            return {}
        sys.exit(f"error: no exp_*/bench_* binaries under {bench_dir} (build the repo first)")

    docs: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="amm_bench_") as tmp:
        for binary in binaries:
            out_path = Path(tmp) / f"{binary.name}.json"
            if binary.name.startswith(MICRO_PREFIXES):
                cmd = [str(binary), f"--benchmark_out={out_path}",
                       "--benchmark_out_format=json",
                       f"--benchmark_min_time={micro_min_time}"]
            elif binary.name == "bench_hotpath":
                cmd = [str(binary), "--json", str(out_path), *hotpath_args]
            else:
                cmd = [str(binary), "--trials", str(trials), "--json", str(out_path)]
            print(f"[collect_bench] {' '.join(cmd)}", flush=True)
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            if proc.returncode != 0:
                sys.exit(
                    f"error: {binary.name} exited {proc.returncode}:\n"
                    f"{proc.stderr.decode(errors='replace')}"
                )
            docs[binary.name] = json.loads(out_path.read_text())
    return docs


def load_from_dir(from_dir: Path) -> dict[str, dict]:
    files = sorted(from_dir.glob("*.json"))
    if not files:
        sys.exit(f"error: no .json files in {from_dir}")
    return {p.stem: json.loads(p.read_text()) for p in files}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", type=Path, default=Path("build"))
    ap.add_argument("--out", type=Path, default=Path("BENCH_sim.json"))
    ap.add_argument("--trials", type=int, default=3,
                    help="Monte-Carlo trials per configuration (small default: smoke baseline)")
    ap.add_argument("--only", help="regex filter on binary names, e.g. 'e10|hotpath'")
    ap.add_argument("--from-dir", type=Path,
                    help="aggregate existing per-binary JSON files instead of running")
    ap.add_argument("--hotpath-args", default="",
                    help="extra args for bench_hotpath, e.g. '--max-history 10000'")
    ap.add_argument("--micro-min-time", type=float, default=0.01,
                    help="google-benchmark --benchmark_min_time for bench_* micros")
    ap.add_argument("--extra", action="append", default=[], metavar="NAME=FILE",
                    help="fold a standalone JSON document in as experiments[NAME] "
                         "(e.g. cluster_loopback=cluster.json); repeatable")
    args = ap.parse_args()

    if args.from_dir:
        docs = load_from_dir(args.from_dir)
    else:
        docs = run_binaries(args.build_dir, args.trials, args.only,
                            args.hotpath_args.split(), args.micro_min_time,
                            allow_empty=bool(args.extra))
    for spec in args.extra:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            sys.exit(f"error: --extra expects NAME=FILE, got {spec!r}")
        docs[name] = json.loads(Path(path).read_text())

    repo_root = Path(__file__).resolve().parent.parent
    status = git(repo_root, "status", "--porcelain", "--untracked-files=no")
    merged = {
        "generated_by": "tools/collect_bench.py",
        "git_sha": git(repo_root, "rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else status != "",
        "build_type": build_type(args.build_dir) if not args.from_dir else "unknown",
        "experiments": {name: docs[name] for name in sorted(docs)},
    }
    args.out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    total_tables = sum(len(d.get("tables", [])) for d in docs.values())
    print(f"[collect_bench] wrote {args.out}: {len(docs)} binaries, {total_tables} tables "
          f"(sha={merged['git_sha'][:12]}, dirty={merged['git_dirty']}, "
          f"build={merged['build_type']})")


if __name__ == "__main__":
    main()
