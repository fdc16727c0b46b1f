"""determinism-taint — nondeterministic value sources feeding protocol code.

The paper's randomized-access results (Thms 5.4/5.6) and every experiment
table are only reproducible if a trial is a pure function of its seed
(docs/ANALYSIS.md §3, `GoldenDigest.*`). Three value sources
break that silently:

  * iteration order of `std::unordered_*` containers (implementation-
    defined, and in practice varies with libstdc++ version, allocator
    state, and rehash history);
  * pointer identity used as a key or ordering (ASLR makes address order
    differ per run);
  * randomness that does not come from `support/rng.hpp` streams
    (`std::mt19937`, `std::random_device`, ... are unseeded or globally
    seeded and escape the (master seed, stream) discipline), and, in
    every file, libc's global generator (`std::rand`, `srand(`, `rand()`)
    or a clock seed (`time(nullptr)`, `time(NULL)`, `time(0)`). These are
    matched on tokens: a member such as `token.time` is not a call.

Unordered iteration is caught with structural reach: direct and member
range-fors (including structured bindings), iterator loops
(`for (auto it = m.begin(); ...)`), order-sensitive `<algorithm>` calls
fed from `unordered begin()`, and local references aliasing an unordered
container. Building a *sorted or otherwise canonicalized copy* before
iterating is the sanctioned pattern; a deliberately order-insensitive fold
is annotated
`// analyze:allow(determinism-taint): <why order cannot matter>`.
"""

from __future__ import annotations

import re
from typing import List, Sequence, Set

from analysis import AnalysisModel, Finding
from cpp_model import SourceFile, Token, match_forward

NAME = "determinism"
RULES = {
    "determinism-taint": "no unordered iteration order, pointer order, or non-support/rng "
                         "randomness may feed protocol decisions",
}

UNORDERED_RE = r"^unordered_(map|set|multimap|multiset)$"
#: Order-sensitive algorithms: feeding them unordered begin()/end() bakes the
#: bucket order into the result. Container *construction* from begin()/end()
#: is deliberately not listed — building a set/sorted vector is the fix.
ORDER_SENSITIVE_ALGOS = {
    "for_each", "transform", "accumulate", "reduce", "partial_sum",
    "inclusive_scan", "exclusive_scan", "adjacent_difference", "copy", "copy_if",
}
FOREIGN_RNG = {
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0", "random_device",
    "default_random_engine", "knuth_b", "ranlux24", "ranlux48",
    "uniform_int_distribution", "uniform_real_distribution",
    "normal_distribution", "bernoulli_distribution", "poisson_distribution",
}
#: The one home randomness is allowed to have.
RNG_HOME = re.compile(r"(^|/)support/rng\.(hpp|cpp)$")


def _libc_random(toks: Sequence[Token], i: int) -> str:
    """Names libc randomness or a clock seed at token i, else ''."""
    v = toks[i].value
    if v not in ("rand", "srand", "time"):
        return ""
    nxt = [t.value for t in toks[i + 1 : i + 4]]
    if v == "rand" and i >= 2 and toks[i - 1].value == "::" and toks[i - 2].value == "std":
        return "std::rand — use amm::Rng (support/rng.hpp)"
    if v == "srand" and nxt[:1] == ["("]:
        return "srand — use amm::Rng::for_stream for seeding"
    if v == "rand" and nxt[:2] == ["(", ")"]:
        return "rand() — use amm::Rng (support/rng.hpp)"
    if v == "time" and len(nxt) == 3 and nxt[0] == "(" \
            and nxt[1] in ("nullptr", "NULL", "0") and nxt[2] == ")":
        return "time(nullptr) seeding — seeds must be explicit and reproducible"
    return ""


def _unordered_names(model: AnalysisModel) -> Set[str]:
    names: Set[str] = set()
    aliases: List[str] = []
    for sf in model.files:
        toks = sf.tokens
        for i, t in enumerate(toks):  # using Alias = std::unordered_map<...>;
            if t.kind == "id" and t.value == "using" and i + 2 < len(toks) \
                    and toks[i + 1].kind == "id" and toks[i + 2].value == "=":
                j = i + 3
                while j < len(toks) and toks[j].value != ";":
                    if toks[j].kind == "id" and re.match(UNORDERED_RE, toks[j].value):
                        aliases.append(toks[i + 1].value)
                        break
                    j += 1
    type_res = [UNORDERED_RE] + [rf"^{re.escape(a)}$" for a in aliases]
    for sf in model.files:
        for d in sf.var_decls(type_res):
            names.add(d.name)
    return names


def _last_id(tokens: Sequence[str]) -> str:
    for v in reversed(tokens):
        if v and (v[0].isalpha() or v[0] == "_"):
            return v
    return ""


def run(model: AnalysisModel) -> List[Finding]:
    unordered = _unordered_names(model)
    findings: List[Finding] = []
    for sf in model.files:
        _scan_file(sf, unordered, findings)
    return findings


def _scan_file(sf: SourceFile, unordered: Set[str], findings: List[Finding]) -> None:
    toks = sf.tokens
    rng_home = RNG_HOME.search(sf.display.replace("\\", "/")) is not None

    # Local references aliasing an unordered container: `auto& a = m;`
    local_unordered = set(unordered)
    for i, t in enumerate(toks):
        if t.kind == "id" and t.value == "auto":
            j = i + 1
            while j < len(toks) and toks[j].value in ("&", "&&", "const"):
                j += 1
            if j + 1 < len(toks) and toks[j].kind == "id" and toks[j + 1].value == "=":
                k = j + 2
                rhs: List[str] = []
                while k < len(toks) and toks[k].value != ";":
                    rhs.append(toks[k].value)
                    k += 1
                if rhs and "(" not in rhs and _last_id(rhs) in unordered:
                    local_unordered.add(toks[j].value)

    def report(line: int, what: str) -> None:
        if not sf.allowed(line, "determinism-taint"):
            findings.append(Finding(
                sf.display, line, "determinism-taint",
                f"{what} — the order or draw is not a function of the seed, "
                "so any protocol decision fed from it breaks reproducible schedules "
                "(Thm 5.4/5.6 experiments, GoldenDigest.*); iterate a "
                "sorted or append-ordered copy, use support/rng.hpp streams, or "
                "annotate an order-insensitive fold with "
                "// analyze:allow(determinism-taint): <why>"))

    # (1) Range-fors (covers structured bindings) over unordered containers.
    for idx, rng_expr, _body in sf.range_fors(0, len(toks)):
        if rng_expr and rng_expr[-1] == ")":
            continue  # call expression: return type unresolvable here
        name = _last_id(rng_expr)
        if name in local_unordered:
            report(toks[idx].line, f"range-for over unordered container '{name}'")

    # (2) Iterator loops: for (auto it = m.begin(); ...).
    for idx, head, _body in sf.counted_fors(0, len(toks)):
        for k in range(len(head) - 3):
            if head[k] in local_unordered and head[k + 1] == "." \
                    and head[k + 2] in ("begin", "cbegin", "rbegin", "crbegin"):
                report(toks[idx].line, f"iterator loop over unordered container '{head[k]}'")
                break

    # (3) Order-sensitive algorithms fed from unordered begin().
    i = 0
    while i + 1 < len(toks):
        t = toks[i]
        if t.kind == "id" and t.value in ORDER_SENSITIVE_ALGOS and toks[i + 1].value == "(":
            close = match_forward(toks, i + 1, "(", ")")
            args = [tok.value for tok in toks[i + 2 : close]]
            for k in range(len(args) - 3):
                if args[k] in local_unordered and args[k + 1] == "." \
                        and args[k + 2] in ("begin", "cbegin", "rbegin", "crbegin"):
                    report(t.line, f"std::{t.value} over unordered container '{args[k]}'")
                    break
            i = close
        i += 1

    # (4) Pointer-keyed ordered containers: std::map<T*, ...> / std::set<T*>.
    for i, t in enumerate(toks):
        if t.kind == "id" and t.value in ("map", "set", "multimap", "multiset") \
                and i + 1 < len(toks) and toks[i + 1].value == "<" \
                and i >= 2 and toks[i - 1].value == "::" and toks[i - 2].value == "std":
            close = match_forward(toks, i + 1, "<", ">")
            depth = 0
            key_end = close
            for j in range(i + 2, close):
                v = toks[j].value
                if v in "(<[":
                    depth += 1
                elif v in ")>]":
                    depth -= 1
                elif depth == 0 and v == ",":
                    key_end = j
                    break
            if key_end > i + 2 and toks[key_end - 1].value == "*":
                report(t.line, f"std::{t.value} keyed by raw pointer")

    # (5) Randomness outside support/rng.hpp streams: foreign engines
    # outside its home, libc's generator and clock seeds anywhere.
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if t.value in FOREIGN_RNG and not rng_home:
            report(t.line, f"std::{t.value} outside support/rng — draws escape the "
                           "(master seed, stream) discipline")
        elif what := _libc_random(toks, i):
            report(t.line, what)
