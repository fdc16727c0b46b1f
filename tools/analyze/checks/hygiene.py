"""banned-sleep, pragma-once, include-order, no-artifacts — repo hygiene.

  * banned-sleep: no wall-clock sleep in src/ or tools/. Simulated time (or
    the reactor's poll deadline) is the only clock; a sleep makes results
    depend on the machine. Matched on tokens, like every content rule.
  * pragma-once: every .hpp starts with `#pragma once` before its first
    #include or declaration.
  * include-order: system <...> includes precede project "..." ones; a .cpp
    may lead with its own header, a *_test.cpp with the header under test.
  * no-artifacts: no build output is tracked by git (model.tracked).

The two layout rules read raw lines (the lexer skips preprocessor
directives) of src/, tools/, bench/ and tests/ (model.layout_files).
libc randomness and clock seeds are determinism-taint's.
"""

from __future__ import annotations

import os
import re
from typing import List

from analysis import AnalysisModel, Finding
from cpp_model import SourceFile, TextFile, Token

NAME = "hygiene"
RULES = {
    "banned-sleep": "no wall-clock sleep in src/ or tools/; simulated time is the only clock",
    "pragma-once": "every header starts with #pragma once",
    "include-order": "own header first (.cpp), then system <...>, then project \"...\"",
    "no-artifacts": "no build artifact is tracked by git",
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*(?P<kind>[<"])(?P<target>[^>"]+)[>"]')
ARTIFACT_RE = re.compile(r"(^|/)(build[^/]*/|cmake-build[^/]*/|CMakeFiles/|Testing/"
                         r"|CMakeCache\.txt$|CTestTestfile\.cmake$|compile_commands\.json$)"
                         r"|\.(o|obj|a|so|gcda|gcno|profraw)$")


def _is_sleep(toks: List[Token], i: int) -> bool:
    """A sleep call `name(` at token i. `.usleep(` and `.sleep(` are
    members; `sleep(` only counts with a literal argument."""
    name = toks[i].value
    if toks[i].kind != "id" or i + 1 >= len(toks) or toks[i + 1].value != "(":
        return False
    prev = toks[i - 1].value if i > 0 else ""
    return name in ("sleep_for", "sleep_until", "nanosleep") \
        or (name == "usleep" and prev != ".") \
        or (name == "sleep" and prev not in (".", "::") and i + 2 < len(toks)
            and toks[i + 2].kind == "num")


def _banned_sleep(sf: SourceFile, findings: List[Finding]) -> None:
    for i, t in enumerate(sf.tokens):
        if _is_sleep(sf.tokens, i) and not sf.allowed(t.line, "banned-sleep"):
            findings.append(Finding(
                sf.display, t.line, "banned-sleep",
                f"{t.value}() — a wall-clock sleep makes results depend on the machine; "
                "simulated time (or the reactor's poll deadline) is the only clock, or "
                "// analyze:allow(banned-sleep): <why wall-clock time is right here>"))


def _pragma_once(tf: TextFile, findings: List[Finding]) -> None:
    if not tf.display.endswith(".hpp"):
        return
    for raw in tf.lines:
        stripped = raw.strip()
        if stripped == "#pragma once":
            return
        if INCLUDE_RE.match(raw) or stripped.startswith(("namespace", "class", "struct")):
            break
    findings.append(Finding(tf.display, 1, "pragma-once", "header must start with #pragma once"))


def _include_order(tf: TextFile, findings: List[Finding]) -> None:
    includes = []
    for i, raw in enumerate(tf.lines, 1):
        m = INCLUDE_RE.match(raw)
        if m:
            includes.append((i, m.group("kind"), m.group("target")))
    start = 0
    if includes and includes[0][1] == '"':
        base = os.path.basename(tf.display)
        if base.endswith("_test.cpp"):
            start = 1  # the header under test leads, like an own header
        elif base.endswith(".cpp") and includes[0][2].endswith(base[: -len(".cpp")] + ".hpp"):
            start = 1  # own header first
    seen_project = False
    for i, kind, target in includes[start:]:
        if kind == '"':
            seen_project = True
        elif seen_project and not tf.allowed(i, "include-order"):
            findings.append(Finding(
                tf.display, i, "include-order",
                f"system include <{target}> after a project include — order is: "
                "own header (cpp only), system <...>, then project \"...\""))
            return  # one report per file keeps the output readable


def run(model: AnalysisModel) -> List[Finding]:
    findings: List[Finding] = []
    for sf in model.files:
        _banned_sleep(sf, findings)
    for tf in model.layout_files:
        _pragma_once(tf, findings)
        _include_order(tf, findings)
    for path in model.tracked:
        if ARTIFACT_RE.search(path):
            findings.append(Finding(path, 1, "no-artifacts",
                                    "build artifact tracked by git — `git rm --cached` it"))
    return findings
