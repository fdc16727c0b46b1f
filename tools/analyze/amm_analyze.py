#!/usr/bin/env python3
"""amm_analyze — the repository's static analyzer.

Seven checks, one module each (tools/analyze/checks/), documented rule by
rule in docs/ANALYSIS.md §4:

  codec_bounds  codec-bounds, codec-consistency
  exhaustive    switch-exhaustive, switch-default
  determinism   determinism-taint
  lockorder     lock-cycle, lock-blocking
  loopblock     loop-blocking
  growth        unbounded-growth
  hygiene       banned-sleep, pragma-once, include-order, no-artifacts

Every rule but no-artifacts reads src/ and tools/; the layout rules
(pragma-once, include-order) also read bench/ and tests/, and no-artifacts
reads the git index. The front end (cpp_model.py) is a pure-Python C++ tokenizer +
structural extractors with no dependency beyond the standard library.

Usage:
  amm_analyze.py [--root DIR] [--checks a,b] [--github] [--cache-dir DIR]
  amm_analyze.py --self-test     # run the seeded-violation corpus
  amm_analyze.py --list-rules

Exit status: 0 clean, 1 findings, 2 usage/corpus error.

Suppression: `// analyze:allow(rule[, rule]): reason` on the finding line
or the line above. The reason is mandatory by convention — reviewers treat
a bare allow as a defect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Set

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cpp_model  # noqa: E402
from analysis import AnalysisModel, Finding  # noqa: E402
from checks import ALL_RULES, CHECKS  # noqa: E402

ANALYZE_DIRS = ("src", "tools")
LAYOUT_DIRS = ("bench", "tests")  # read by the layout rules only
EXCLUDE_DIRS = ("selftest",)  # the seeded-violation corpus is not production code
CACHE_VERSION = "1"

# ---- self-test corpus expectations ----
#
# bad_* files must fire exactly the listed rules; clean_* twins must be
# silent. Exact-set matching catches false positives on the bad files too.
# A *.ls-files file is a `git ls-files` listing (the input of no-artifacts);
# every other file is C++ source, read as both a parsed and a layout file.
SELF_TEST_EXPECT: Dict[str, Set[str]] = {
    "bad_codec_bounds.cpp": {"codec-bounds"},
    "clean_codec_bounds.cpp": set(),
    "bad_codec_pair.cpp": {"codec-consistency"},
    "clean_codec_pair.cpp": set(),
    "bad_codec_kinds.cpp": {"codec-consistency", "codec-bounds"},
    "clean_codec_kinds.cpp": set(),
    "bad_codec_frame.cpp": {"codec-bounds"},
    "clean_codec_frame.cpp": set(),
    "bad_switch.cpp": {"switch-exhaustive", "switch-default"},
    "clean_switch.cpp": set(),
    "bad_taint.cpp": {"determinism-taint"},
    "clean_taint.cpp": set(),
    "bad_lock.cpp": {"lock-cycle", "lock-blocking"},
    "clean_lock.cpp": set(),
    "bad_loop.cpp": {"loop-blocking"},
    "clean_loop.cpp": set(),
    "bad_growth.cpp": {"unbounded-growth"},
    "clean_growth.cpp": set(),
    "bad_rand.cpp": {"determinism-taint"},
    "clean_rand.cpp": set(),
    "bad_sleep.cpp": {"banned-sleep"},
    "clean_sleep.cpp": set(),
    "bad_pragma.hpp": {"pragma-once"},
    "clean_pragma.hpp": set(),
    "bad_order.cpp": {"include-order"},
    "clean_order.cpp": set(),
    "bad_order_test.cpp": {"include-order"},
    "clean_order_test.cpp": set(),
    "bad_artifacts.ls-files": {"no-artifacts"},
    "clean_artifacts.ls-files": set(),
}


def run_checks(model: AnalysisModel, only: Optional[Set[str]]) -> List[Finding]:
    findings: List[Finding] = []
    for mod in CHECKS:
        if only is not None and mod.NAME not in only:
            continue
        findings.extend(mod.run(model))
    return sorted(set(findings), key=lambda f: (f.path, f.line, f.rule, f.message))


def self_test() -> int:
    corpus = os.path.join(HERE, "selftest")
    failures: List[str] = []
    for name in sorted(SELF_TEST_EXPECT):
        path = os.path.join(corpus, name)
        if not os.path.exists(path):
            failures.append(f"{name}: corpus file missing")
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        # Each corpus file is a self-contained model.
        if name.endswith(".ls-files"):
            model = AnalysisModel([], tracked=[p for p in text.splitlines()
                                               if p and not p.startswith("#")])
        else:
            model = AnalysisModel([cpp_model.SourceFile(path, text, display=name)])
        fired = {f.rule for f in run_checks(model, None)}
        expected = SELF_TEST_EXPECT[name]
        if fired != expected:
            for f in run_checks(model, None):
                print(f"    {f.render()}")
            failures.append(f"{name}: expected rules {sorted(expected) or '{}'}, "
                            f"got {sorted(fired) or '{}'}")
    unknown = {r for rules in SELF_TEST_EXPECT.values() for r in rules} - set(ALL_RULES)
    if unknown:
        failures.append(f"corpus expects unknown rules: {sorted(unknown)}")
    if failures:
        print("amm_analyze self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 2
    print(f"amm_analyze self-test OK ({len(SELF_TEST_EXPECT)} corpus files, "
          f"{len(ALL_RULES)} rules)")
    return 0


def tracked_paths(root: str) -> List[str]:
    """The paths in root's git index; none outside a git checkout (a
    tarball has no index to check)."""
    try:
        out = subprocess.run(["git", "ls-files"], cwd=root, capture_output=True,
                             text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return []
    return out.splitlines()


def _cache_key(texts: List[cpp_model.TextFile], tracked: List[str]) -> str:
    """Hashes everything the checks read: the analyzer's own sources, every
    file's path and text, and the git index (a tracked `build/x.o` changes
    no source, but it changes what no-artifacts must report)."""
    h = hashlib.sha256()
    h.update(CACHE_VERSION.encode())
    for mod_dir in (HERE, os.path.join(HERE, "checks")):
        for fn in sorted(os.listdir(mod_dir)):
            if fn.endswith(".py"):
                with open(os.path.join(mod_dir, fn), "rb") as fh:
                    h.update(fh.read())
    for tf in texts:
        h.update(tf.display.encode())
        h.update(hashlib.sha256(tf.text.encode()).digest())
    h.update(hashlib.sha256("\n".join(tracked).encode()).digest())
    return h.hexdigest()


def analyze(root: str, only: Optional[Set[str]], cache_dir: Optional[str]) -> List[Finding]:
    # Read every file raw first: a cache hit needs only the texts, and only
    # a miss pays for lexing src/ and tools/.
    sources = cpp_model.load_tree(root, ANALYZE_DIRS, exclude=EXCLUDE_DIRS,
                                  make=cpp_model.TextFile)
    if not sources:
        raise SystemExit(f"amm_analyze: no sources under {root}/{{{','.join(ANALYZE_DIRS)}}}")
    layout = cpp_model.load_tree(root, LAYOUT_DIRS, exclude=EXCLUDE_DIRS,
                                 make=cpp_model.TextFile)
    tracked = tracked_paths(root)
    cache_path = None
    if cache_dir:
        key = _cache_key(sources + layout, tracked)
        if only:
            key = hashlib.sha256((key + ",".join(sorted(only))).encode()).hexdigest()
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, f"findings-{key}.json")
        if os.path.exists(cache_path):
            with open(cache_path, encoding="utf-8") as fh:
                return [Finding(**f) for f in json.load(fh)]
    files = [cpp_model.SourceFile(tf.path, tf.text, tf.display) for tf in sources]
    findings = run_checks(AnalysisModel(files, layout, tracked), only)
    if cache_path:
        with open(cache_path, "w", encoding="utf-8") as fh:
            json.dump([f._asdict() for f in findings], fh)
    return findings


def main() -> int:
    ap = argparse.ArgumentParser(prog="amm_analyze", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=os.path.normpath(os.path.join(HERE, "..", "..")),
                    help="repository root (default: two levels above this script)")
    ap.add_argument("--checks", default=None,
                    help="comma-separated module subset ("
                         + ", ".join(mod.NAME for mod in CHECKS) + ")")
    ap.add_argument("--github", action="store_true",
                    help="also emit ::error GitHub annotations")
    ap.add_argument("--cache-dir", default=None,
                    help="directory for the findings cache (keyed by content)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the seeded-violation corpus and exit")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for mod in CHECKS:
            for rule, desc in mod.RULES.items():
                print(f"{rule:20s} [{mod.NAME}] {desc}")
        return 0
    if args.self_test:
        return self_test()

    known = {mod.NAME for mod in CHECKS}
    only: Optional[Set[str]] = None
    if args.checks:
        only = {c.strip() for c in args.checks.split(",") if c.strip()}
        bad = only - known
        if bad:
            print(f"amm_analyze: unknown checks {sorted(bad)}; known: {sorted(known)}",
                  file=sys.stderr)
            return 2

    findings = analyze(args.root, only, args.cache_dir)
    for f in findings:
        print(f.render())
        if args.github:
            print(f.render_github())
    if findings:
        print(f"amm_analyze: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
