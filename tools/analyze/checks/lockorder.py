"""lock-cycle / lock-blocking — lock discipline in the runtime layers.

The multi-process runtime (src/net reactor, src/mp node logic,
support/thread_pool) mixes mutexes with a single-threaded event loop. Two
properties keep the ABD append/read quorum machinery (§4) live:

  * the lock-acquisition graph is acyclic — if thread 1 takes A then B
    while thread 2 takes B then A, the cluster wedges and every in-flight
    append misses its quorum forever;
  * no lock is held across a *blocking* boundary — a blocking syscall
    (`::send`, `::poll`, ...), an unbounded `wait()`, or a user callback
    (any `std::function` member) that may re-enter and try to take the
    same lock. Either stalls every other thread needing the lock for an
    unbounded time, which the paper's latency model (Thm 5.1 pipelining)
    does not admit.

The check builds a per-function lock-region model (guard objects to end
of enclosing block, truncated at `.unlock()`; manual `lock()`/`unlock()`
pairs), derives acquisition-order edges — including interprocedural ones
through direct calls — and rejects cycles and blocking operations inside
a region. `cv.wait(lk)` / `cv.wait(lk, pred)` where `lk` is the held
guard is the sanctioned condition-variable pattern (the wait releases the
lock) and is not flagged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from analysis import AnalysisModel, Finding
from cpp_model import Function, SourceFile, Token, match_forward

NAME = "lockorder"
RULES = {
    "lock-cycle": "the global lock-acquisition graph must be acyclic",
    "lock-blocking": "no lock may be held across a blocking syscall, an unbounded "
                     "wait, or a user-supplied callback",
}

MUTEX_TYPE_RE = r"^(mutex|timed_mutex|recursive_mutex|shared_mutex|recursive_timed_mutex)$"
GUARD_TYPES = {"scoped_lock", "lock_guard", "unique_lock", "shared_lock"}
#: Blocking POSIX calls the reactor/transport layer uses (matched only when
#: written `::name(` — the repo's convention for raw syscalls).
SYSCALLS = {
    "poll", "ppoll", "select", "epoll_wait", "accept", "accept4", "connect",
    "recv", "recvfrom", "recvmsg", "send", "sendto", "sendmsg", "read", "write",
    "sleep", "usleep", "nanosleep",
}
WAIT_METHODS = {"wait", "wait_for", "wait_until"}


class _Acq(object):
    """One held lock region: the guard variable (if any) and the mutexes it
    covers."""

    __slots__ = ("guard", "mutexes")

    def __init__(self, guard: Optional[str], mutexes: Tuple[str, ...]):
        self.guard = guard
        self.mutexes = mutexes


class _CallSite(object):
    __slots__ = ("callee", "held", "sf", "line")

    def __init__(self, callee: str, held: Tuple[str, ...], sf: SourceFile, line: int):
        self.callee = callee
        self.held = held
        self.sf = sf
        self.line = line


def _last_id(values: Sequence[str]) -> str:
    for v in reversed(values):
        if v and (v[0].isalpha() or v[0] == "_"):
            return v
    return ""


def _split_args(toks: Sequence[Token], lo: int, hi: int) -> List[List[str]]:
    args: List[List[str]] = [[]]
    depth = 0
    for j in range(lo, hi):
        v = toks[j].value
        if v in "(<[{":
            depth += 1
        elif v in ")>]}":
            depth -= 1
        elif depth == 0 and v == ",":
            args.append([])
            continue
        args[-1].append(v)
    return [a for a in args if a]


def _function_typed_names(model: AnalysisModel) -> Set[str]:
    """Names of std::function-typed members/locals/params: invoking one under
    a lock hands control to arbitrary user code."""
    aliases: List[str] = []
    for sf in model.files:
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind == "id" and t.value == "using" and i + 2 < len(toks) \
                    and toks[i + 1].kind == "id" and toks[i + 2].value == "=":
                j = i + 3
                while j < len(toks) and toks[j].value != ";":
                    if toks[j].kind == "id" and toks[j].value == "function":
                        aliases.append(toks[i + 1].value)
                        break
                    j += 1
    import re
    type_res = [r"^function$"] + [rf"^{re.escape(a)}$" for a in aliases]
    names: Set[str] = set()
    for sf in model.files:
        for d in sf.var_decls(type_res):
            names.add(d.name)
    return names


class _MutexRegistry(object):
    def __init__(self, model: AnalysisModel):
        self.decls: Dict[str, List[Tuple[str, ...]]] = {}  # name -> owner paths
        for sf in model.files:
            for d in sf.var_decls([MUTEX_TYPE_RE]):
                owners = self.decls.setdefault(d.name, [])
                if d.owner not in owners:
                    owners.append(d.owner)

    def resolve(self, name: str, fn: Function) -> Optional[str]:
        """Canonical identity of mutex `name` as seen from `fn`, or None if
        no declaration with that name exists anywhere."""
        owners = self.decls.get(name)
        if owners is None:
            return None
        if len(owners) == 1:
            return "::".join(owners[0] + (name,)) if owners[0] else name
        ctx = set(fn.qual) | set(fn.scope)
        for owner in owners:
            if owner and owner[-1] in ctx:
                return "::".join(owner + (name,))
        return name


class _Analyzer(object):
    def __init__(self, model: AnalysisModel):
        self.model = model
        self.mutexes = _MutexRegistry(model)
        self.fn_typed = _function_typed_names(model)
        self.findings: List[Finding] = []
        # (from, to) -> (sf, line, human context); first site wins.
        self.edges: Dict[Tuple[str, str], Tuple[SourceFile, int, str]] = {}
        self.direct: Dict[str, Set[str]] = {}  # callable name -> mutexes acquired
        self.call_sites: List[_CallSite] = []

    # ---- per-function walk ----

    def analyze_function(self, sf: SourceFile, fn: Function) -> None:
        nested = sorted(
            g.body for g in sf.functions
            if g is not fn and fn.body[0] < g.body[0] and g.body[1] <= fn.body[1]
        )
        self.direct.setdefault(fn.name, set())
        self._walk(sf, fn, fn.body[0] + 1, fn.body[1], [], nested)

    def _walk(self, sf: SourceFile, fn: Function, lo: int, hi: int,
              held: List[_Acq], nested: Sequence[Tuple[int, int]]) -> None:
        toks = sf.tokens
        j = lo
        while j < hi:
            skipped = False
            for s, e in nested:  # lambda bodies run later, not under this lock
                if s == j:
                    j = e + 1
                    skipped = True
                    break
            if skipped:
                continue
            t = toks[j]
            v = t.value

            if v == "{":
                end = match_forward(toks, j, "{", "}")
                self._walk(sf, fn, j + 1, end, list(held), nested)
                j = end + 1
                continue

            # Guard-object acquisition: scoped_lock [<...>] name (args)
            if t.kind == "id" and v in GUARD_TYPES:
                consumed = self._acquire_guard(sf, fn, j, held)
                if consumed is not None:
                    j = consumed
                    continue

            if t.kind == "id" and j + 2 < hi and toks[j + 1].value == ".":
                meth = toks[j + 2].value
                # Manual m.lock() / m.unlock(); guard.unlock() truncation.
                if meth in ("lock", "lock_shared") and j + 3 < hi and toks[j + 3].value == "(":
                    mid = self.mutexes.resolve(v, fn)
                    if mid is not None:
                        self._note_acquire(sf, fn, t.line, held, (mid,), None)
                        j += 4
                        continue
                if meth in ("unlock", "unlock_shared") and j + 3 < hi and toks[j + 3].value == "(":
                    mid = self.mutexes.resolve(v, fn)
                    for k in range(len(held) - 1, -1, -1):
                        if held[k].guard == v or (mid is not None and mid in held[k].mutexes):
                            del held[k]
                            break
                    j += 4
                    continue

            if held:
                self._check_blocking(sf, fn, j, hi, held)

            # Direct call to a known function: record for the interprocedural
            # pass. `submit` hands the task to another thread, so the callee's
            # locks are not taken under ours.
            if t.kind == "id" and j + 1 < hi and toks[j + 1].value == "(" \
                    and v in self.model.functions and v != fn.name and v != "submit" \
                    and v not in GUARD_TYPES:
                held_ids = tuple(m for a in held for m in a.mutexes)
                if held_ids:
                    self.call_sites.append(_CallSite(v, held_ids, sf, t.line))

            j += 1

    def _acquire_guard(self, sf: SourceFile, fn: Function, j: int,
                       held: List[_Acq]) -> Optional[int]:
        toks = sf.tokens
        k = j + 1
        if k < len(toks) and toks[k].value == "<":
            k = match_forward(toks, k, "<", ">") + 1
        if k + 1 >= len(toks) or toks[k].kind != "id" or toks[k + 1].value not in ("(", "{"):
            return None
        var = toks[k].value
        open_, close_ = (("(", ")") if toks[k + 1].value == "(" else ("{", "}"))
        end = match_forward(toks, k + 1, open_, close_)
        args = _split_args(toks, k + 2, end)
        if any("defer_lock" in a for a in args):
            return end + 1  # locks are taken later via .lock(); modelled there
        mids: List[str] = []
        for a in args:
            name = _last_id(a)
            if not name or name in ("try_to_lock", "adopt_lock"):
                continue
            mids.append(self.mutexes.resolve(name, fn) or name)
        if mids:
            self._note_acquire(sf, fn, toks[j].line, held, tuple(mids), var)
        return end + 1

    def _note_acquire(self, sf: SourceFile, fn: Function, line: int,
                      held: List[_Acq], mids: Tuple[str, ...], guard: Optional[str]) -> None:
        already = {m for a in held for m in a.mutexes}
        for m in mids:
            for h in already:
                if h != m and (h, m) not in self.edges:
                    self.edges[(h, m)] = (sf, line, f"in {fn.key()}()")
        self.direct.setdefault(fn.name, set()).update(mids)
        held.append(_Acq(guard, mids))

    def _check_blocking(self, sf: SourceFile, fn: Function, j: int, hi: int,
                        held: List[_Acq]) -> None:
        toks = sf.tokens
        t = toks[j]
        v = t.value
        held_desc = ", ".join(sorted({m for a in held for m in a.mutexes}))

        def report(what: str) -> None:
            if not sf.allowed(t.line, "lock-blocking"):
                self.findings.append(Finding(
                    sf.display, t.line, "lock-blocking",
                    f"{what} while holding {{{held_desc}}} in {fn.key()}() — a lock "
                    "held across a blocking boundary stalls every thread contending "
                    "for it and can deadlock the append/read quorum path; release "
                    "the lock first (copy state out), or "
                    "// analyze:allow(lock-blocking): <why it cannot block>"))

        # ::syscall( — raw blocking POSIX call.
        if v == "::" and j + 2 < hi and toks[j + 1].kind == "id" \
                and toks[j + 1].value in SYSCALLS and toks[j + 2].value == "(" \
                and (j == 0 or toks[j - 1].kind != "id"):
            report(f"blocking syscall ::{toks[j + 1].value}()")
            return

        # cv.wait(lk[, pred]) is fine when lk is the held guard (the wait
        # releases it); any other unbounded wait under a lock is not.
        if t.kind == "id" and v in WAIT_METHODS and j >= 2 and toks[j - 1].value == "." \
                and j + 1 < hi and toks[j + 1].value == "(":
            end = match_forward(toks, j + 1, "(", ")")
            args = _split_args(toks, j + 2, end)
            guards = {a.guard for a in held if a.guard}
            if not (args and _last_id(args[0]) in guards):
                report(f".{v}() that does not release the held lock")
            return

        if t.kind == "id" and v == "wait_idle" and j + 1 < hi and toks[j + 1].value == "(":
            report("wait_idle()")
            return

        # Invoking a std::function member hands control to arbitrary user code
        # (which may block, or re-enter and retake the lock).
        if t.kind == "id" and v in self.fn_typed and j + 1 < hi \
                and toks[j + 1].value == "(" \
                and (j == 0 or (toks[j - 1].kind != "id" and toks[j - 1].value != ">")):
            report(f"user callback {v}() invoked")

    # ---- interprocedural closure + cycles ----

    def finish(self) -> List[Finding]:
        trans: Dict[str, Set[str]] = {k: set(v) for k, v in self.direct.items()}
        changed = True
        while changed:
            changed = False
            for sf in self.model.files:
                for fn in sf.functions:
                    mine = trans.setdefault(fn.name, set())
                    body = sf.tokens[fn.body[0] + 1 : fn.body[1]]
                    for i, tok in enumerate(body):
                        if tok.kind == "id" and tok.value in trans and tok.value != fn.name \
                                and i + 1 < len(body) and body[i + 1].value == "(":
                            add = trans[tok.value] - mine
                            if add:
                                mine |= add
                                changed = True
        for site in self.call_sites:
            callee_locks = trans.get(site.callee, set())
            for h in site.held:
                for m in callee_locks:
                    if m != h and (h, m) not in self.edges:
                        self.edges[(h, m)] = (site.sf, site.line,
                                              f"via call to {site.callee}()")
        self._find_cycles()
        return self.findings

    def _find_cycles(self) -> None:
        adj: Dict[str, List[str]] = {}
        for (a, b) in self.edges:
            adj.setdefault(a, []).append(b)
        seen_cycles: Set[frozenset] = set()
        for start in sorted(adj):
            stack = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for nxt in sorted(adj.get(node, [])):
                    if nxt == start:
                        cyc = frozenset(path)
                        if cyc in seen_cycles:
                            continue
                        seen_cycles.add(cyc)
                        self._report_cycle(path + [start])
                    elif nxt not in path and len(path) < 8:
                        stack.append((nxt, path + [nxt]))

    def _report_cycle(self, cycle: List[str]) -> None:
        hops = []
        site: Optional[Tuple[SourceFile, int, str]] = None
        for a, b in zip(cycle, cycle[1:]):
            sf, line, ctx = self.edges[(a, b)]
            hops.append(f"{a} -> {b} ({ctx}, {sf.display}:{line})")
            if site is None:
                site = (sf, line, ctx)
        assert site is not None
        sf, line, _ = site
        if not sf.allowed(line, "lock-cycle"):
            self.findings.append(Finding(
                sf.display, line, "lock-cycle",
                "cyclic lock-acquisition order: " + "; ".join(hops) + " — two "
                "threads taking these locks in opposite orders deadlock the "
                "runtime and every in-flight append loses its quorum; impose a "
                "single global order (or std::scoped_lock both at once)"))


def run(model: AnalysisModel) -> List[Finding]:
    az = _Analyzer(model)
    for sf in model.files:
        for fn in sf.functions:
            az.analyze_function(sf, fn)
    return az.finish()
