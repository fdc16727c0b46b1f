#!/usr/bin/env python3
"""Repo-invariant lint for the append-memory library.

Enforces the handful of rules the compiler cannot check but the paper's
reproduction depends on (docs/ANALYSIS.md):

  banned-rand       no std::rand/srand/time(nullptr) seeding in src/ or
                    tools/ — every random draw must come from
                    support/rng.hpp so trials are reproducible per
                    (master seed, stream).
  banned-sleep      no wall-clock sleeps in src/ or tools/ — simulated
                    time (or the transport's poll deadline) is the only
                    clock; a sleep makes results machine-dependent.
  pragma-once       every header under src/, tools/, bench/ or tests/
                    starts with `#pragma once` before its first #include.
  include-order     within a file, system includes (<...>) precede project
                    includes ("..."); a .cpp may lead with its own header,
                    and a *_test.cpp with the header under test.
  no-artifacts      no build artifacts tracked by git (build*/, *.o,
                    CMakeCache.txt, CMakeFiles/, CTest Testing/).

Iteration over unordered containers is checked by the AST-level
`determinism-taint` rule of tools/analyze/amm_analyze.py, not here.

Exit status: 0 = clean, 1 = violations found, 2 = usage error.
`--self-test` runs the checker against seeded violations and known-clean
snippets and exits 0 only if every rule both fires and stays quiet
correctly.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from typing import Iterable, List, NamedTuple


class Violation(NamedTuple):
    path: str
    line: int  # 1-based; 0 = whole file
    rule: str
    message: str

    def render(self) -> str:
        loc = f"{self.path}:{self.line}" if self.line else self.path
        return f"{loc}: [{self.rule}] {self.message}"


SOURCE_EXTS = (".hpp", ".cpp")

ALLOW_RE = re.compile(r"//\s*lint:allow\((?P<rules>[\w,\s-]+)\)")

BANNED_RAND_PATTERNS = [
    (re.compile(r"\bstd::rand\b"), "std::rand — use amm::Rng (support/rng.hpp)"),
    (re.compile(r"\bsrand\s*\("), "srand — use amm::Rng::for_stream for seeding"),
    (re.compile(r"(?<!_)\brand\s*\(\s*\)"), "rand() — use amm::Rng (support/rng.hpp)"),
    (
        re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
        "time(nullptr) seeding — seeds must be explicit and reproducible",
    ),
]

BANNED_SLEEP_PATTERNS = [
    (re.compile(r"\bsleep_for\s*\("), "sleep_for — simulated time only, no wall-clock waits"),
    (re.compile(r"\bsleep_until\s*\("), "sleep_until — simulated time only"),
    (re.compile(r"(?<![\w.])\busleep\s*\("), "usleep — simulated time only"),
    (re.compile(r"\bnanosleep\s*\("), "nanosleep — simulated time only"),
    (re.compile(r"(?<![\w.:])sleep\s*\(\s*\d"), "sleep() — simulated time only"),
]

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*(?P<kind>[<"])(?P<target>[^>"]+)[>"]')

ARTIFACT_RES = [
    re.compile(r"(^|/)build[^/]*/"),
    re.compile(r"(^|/)cmake-build[^/]*/"),
    re.compile(r"\.(o|obj|a|so|gcda|gcno|profraw)$"),
    re.compile(r"(^|/)CMakeCache\.txt$"),
    re.compile(r"(^|/)CMakeFiles/"),
    re.compile(r"(^|/)CTestTestfile\.cmake$"),
    re.compile(r"(^|/)Testing/"),
    re.compile(r"(^|/)compile_commands\.json$"),
]


def allowed(line: str, rule: str) -> bool:
    m = ALLOW_RE.search(line)
    if not m:
        return False
    return rule in {r.strip() for r in m.group("rules").split(",")}


def strip_comment(line: str) -> str:
    """Removes a trailing // comment so prose never triggers code rules."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def check_banned_calls(path: str, lines: List[str]) -> Iterable[Violation]:
    for i, raw in enumerate(lines, 1):
        line = strip_comment(raw)
        for pattern, msg in BANNED_RAND_PATTERNS:
            if pattern.search(line) and not allowed(raw, "banned-rand"):
                yield Violation(path, i, "banned-rand", msg)
        for pattern, msg in BANNED_SLEEP_PATTERNS:
            if pattern.search(line) and not allowed(raw, "banned-sleep"):
                yield Violation(path, i, "banned-sleep", msg)


def check_pragma_once(path: str, lines: List[str]) -> Iterable[Violation]:
    if not path.endswith(".hpp"):
        return
    for raw in lines:
        stripped = raw.strip()
        if stripped == "#pragma once":
            return
        if INCLUDE_RE.match(raw) or stripped.startswith(("namespace", "class", "struct")):
            break
    yield Violation(path, 0, "pragma-once", "header must start with #pragma once")


def check_include_order(path: str, lines: List[str]) -> Iterable[Violation]:
    includes = []
    for i, raw in enumerate(lines, 1):
        m = INCLUDE_RE.match(raw)
        if m:
            includes.append((i, m.group("kind"), m.group("target"), raw))
    start = 0
    if path.endswith("_test.cpp") and includes and includes[0][1] == '"':
        start = 1  # header-under-test-first convention (mirrors own-header)
    elif path.endswith(".cpp") and includes and includes[0][1] == '"':
        own = os.path.basename(path)[: -len(".cpp")] + ".hpp"
        if includes[0][2].endswith(own):
            start = 1  # own-header-first convention
    seen_project = False
    for i, kind, target, raw in includes[start:]:
        if kind == '"':
            seen_project = True
        elif seen_project and not allowed(raw, "include-order"):
            yield Violation(
                path,
                i,
                "include-order",
                f"system include <{target}> after a project include — order is: "
                "own header (cpp only), system <...>, then project \"...\"",
            )
            return  # one report per file keeps the output readable


def check_no_artifacts(root: str) -> Iterable[Violation]:
    try:
        out = subprocess.run(
            ["git", "ls-files"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return  # not a git checkout (e.g. a tarball) — nothing to check
    for tracked in out.splitlines():
        for pattern in ARTIFACT_RES:
            if pattern.search(tracked):
                yield Violation(
                    tracked, 0, "no-artifacts", "build artifact tracked by git — `git rm --cached` it"
                )
                break


FILE_CHECKS = [
    check_banned_calls,
    check_pragma_once,
    check_include_order,
]

#: Hygiene-only checks applied to bench/ and tests/: benchmarks and tests
#: legitimately do things production code may not (sleep in socket tests),
#: so only the layout rules apply.
LAYOUT_CHECKS = [
    check_pragma_once,
    check_include_order,
]


def lint_file(path: str, display_path: str | None = None,
              checks: list | None = None) -> List[Violation]:
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    shown = display_path or path
    violations: List[Violation] = []
    for check in checks if checks is not None else FILE_CHECKS:
        violations.extend(check(shown, lines))
    return violations


LINT_DIRS = ("src", "tools")
LAYOUT_DIRS = ("bench", "tests")


def _walk_sources(root: str, top: str):
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
        # Skip stray build litter and the analyzer's seeded-violation corpus
        # (tools/analyze/selftest/ deliberately violates every rule).
        dirnames[:] = [
            d for d in dirnames
            if d != "CMakeFiles" and not (d == "selftest" and dirpath.endswith("analyze"))
        ]
        for fn in sorted(filenames):
            if fn.endswith(SOURCE_EXTS):
                yield os.path.join(dirpath, fn)


def lint_tree(root: str) -> List[Violation]:
    violations: List[Violation] = []
    for top in LINT_DIRS:
        for full in _walk_sources(root, top):
            violations.extend(lint_file(full, os.path.relpath(full, root)))
    for top in LAYOUT_DIRS:
        for full in _walk_sources(root, top):
            violations.extend(lint_file(full, os.path.relpath(full, root), LAYOUT_CHECKS))
    violations.extend(check_no_artifacts(root))
    return violations


# --------------------------- self-test ---------------------------

SELF_TEST_CASES = [
    # (filename, contents, rules expected to fire)
    (
        "bad_rand.cpp",
        "#include <cstdlib>\nint f() { return std::rand(); }\n"
        "void g() { srand(static_cast<unsigned>(time(nullptr))); }\n",
        {"banned-rand"},
    ),
    (
        "bad_sleep.cpp",
        "#include <thread>\nvoid f() { std::this_thread::sleep_for(std::chrono::seconds(1)); }\n",
        {"banned-sleep"},
    ),
    (
        "bad_pragma.hpp",
        "#include <vector>\nnamespace x { inline int f() { return 1; } }\n",
        {"pragma-once"},
    ),
    (
        "bad_order.cpp",
        '#include "support/assert.hpp"\n#include <vector>\nint f();\n',
        {"include-order"},
    ),
    (
        "clean.hpp",
        "#pragma once\n"
        "#include <vector>\n"
        '#include "support/types.hpp"\n'
        "// rand() in prose is fine; so is discussing sleep_for( in a comment.\n"
        "namespace x {\n"
        "std::unordered_map<int, int> m();  // declaration, no iteration\n"
        "}\n",
        set(),
    ),
    (
        # *_test.cpp files lead with the header under test (mirroring the
        # own-header convention); system includes after it are fine.
        "widget_test.cpp",
        '#include "net/widget.hpp"\n#include <vector>\n#include "support/types.hpp"\nint f();\n',
        set(),
    ),
    (
        # ... but only the FIRST project include is exempt.
        "gadget_test.cpp",
        '#include "net/gadget.hpp"\n#include "support/types.hpp"\n#include <vector>\nint f();\n',
        {"include-order"},
    ),
]


def self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        for name, contents, expected in SELF_TEST_CASES:
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(contents)
            fired = {v.rule for v in lint_file(path, name)}
            if expected and not expected <= fired:
                print(f"self-test FAIL: {name}: expected {sorted(expected)}, got {sorted(fired)}")
                failures += 1
            elif not expected and fired:
                print(f"self-test FAIL: {name}: expected clean, got {sorted(fired)}")
                failures += 1
            else:
                print(f"self-test ok: {name}: {sorted(fired) if fired else 'clean'}")
    if failures:
        print(f"self-test: {failures} case(s) failed")
        return 1
    print(f"self-test: all {len(SELF_TEST_CASES)} cases passed")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".", help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true", help="verify the checker against seeded violations")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"lint_invariants: no src/ under {root}", file=sys.stderr)
        return 2

    violations = lint_tree(root)
    for v in violations:
        print(v.render())
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)")
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
