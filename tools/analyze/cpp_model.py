"""Lightweight C++ source model shared by every amm_analyze check.

This is the analyzer's only front end: a tokenizer plus a handful of
structural extractors (enums, switches, function bodies, loops,
declarations, constant folding) that turn a translation unit into facts the
checks consume. It is deliberately not a full C++ parser — it understands
exactly the shapes this repository uses (see docs/ANALYSIS.md §4) and needs
nothing beyond the Python standard library.

Guarantees the checks rely on:
  * comments and string/char literals never produce tokens (so prose cannot
    trigger rules), but `analyze:allow(...)` comments are collected per line
    (TextFile.allow);
  * preprocessor directives produce no tokens either: the rules about
    `#include` and `#pragma` read a file's raw lines (TextFile.lines);
  * every brace/paren/bracket is matched, so block extents are exact;
  * enum and function extraction records the enclosing namespace/class path.
"""

from __future__ import annotations

import os
import re
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple, Type


class Token(NamedTuple):
    kind: str  # 'id' | 'num' | 'punct'
    value: str
    line: int


ALLOW_RE = re.compile(r"//\s*analyze:allow\((?P<rules>[\w,\s-]+)\)")
ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
ID_CONT = ID_START | set("0123456789")
MULTI_PUNCT = (
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>", "<=", ">=",
    "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=",
)


def allow_lines(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Maps a 1-based line number to the set of rule names named in an
    `// analyze:allow(rule[, rule...])` comment on that line."""
    allow: Dict[int, Set[str]] = {}
    for lineno, raw in enumerate(lines, 1):
        m = ALLOW_RE.search(raw)
        if m:
            allow[lineno] = {r.strip() for r in m.group("rules").split(",") if r.strip()}
    return allow


def lex(text: str) -> List[Token]:
    """Tokenizes C++ source."""
    tokens: List[Token] = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Comments.
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                j = n if j < 0 else j + 2
                line += text.count("\n", i, j)
                i = j
                continue
        # Preprocessor directives: skip the (possibly continued) line.
        if c == "#" and (not tokens or tokens[-1].line != line):
            while i < n:
                j = text.find("\n", i)
                if j < 0:
                    i = n
                    break
                if text[j - 1] == "\\":
                    line += 1
                    i = j + 1
                    continue
                i = j  # leave the newline for the main loop
                break
            continue
        # Raw strings: R"delim( ... )delim"
        if c == "R" and text[i : i + 2] == 'R"':
            m = re.compile(r'R"([^()\\ ]{0,16})\(').match(text, i)
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, m.end())
                j = n if j < 0 else j + len(close)
                line += text.count("\n", i, j)
                i = j
                continue
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = min(j + 1, n)
            continue
        if c in ID_START:
            j = i + 1
            while j < n and text[j] in ID_CONT:
                j += 1
            tokens.append(Token("id", text[i:j], line))
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and (text[j] in ID_CONT or text[j] in ".'"):
                j += 1
            tokens.append(Token("num", text[i:j], line))
            i = j
            continue
        for p in MULTI_PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line))
                i += len(p)
                break
        else:
            tokens.append(Token("punct", c, line))
            i += 1
    return tokens


def match_forward(tokens: Sequence[Token], i: int, open_: str, close: str) -> int:
    """Index of the token closing the bracket opened at `i` (or len(tokens))."""
    depth = 0
    for j in range(i, len(tokens)):
        v = tokens[j].value
        if v == open_:
            depth += 1
        elif v == close:
            depth -= 1
            if depth == 0:
                return j
    return len(tokens)


class EnumDef(NamedTuple):
    path: Tuple[str, ...]  # enclosing namespaces/classes + enum name
    enumerators: Tuple[str, ...]
    file: str
    line: int

    @property
    def name(self) -> str:
        return self.path[-1]


class SwitchStmt(NamedTuple):
    cond: Tuple[str, ...]  # condition token values
    cases: Tuple[Tuple[str, ...], ...]  # per case: the label's token values
    has_default: bool
    line: int
    default_line: int
    body: Tuple[int, int]  # token index range [open brace, close brace]


class Function(NamedTuple):
    name: str  # unqualified
    qual: Tuple[str, ...]  # qualifier path, e.g. ('Decoder',) for Decoder::get_u8
    scope: Tuple[str, ...]  # enclosing namespace/class path at definition
    params: Tuple[int, int]  # token range of the parameter list parens
    body: Tuple[int, int]  # token range [open brace, close brace]
    line: int

    def key(self) -> str:
        return "::".join(self.qual + (self.name,))


class VarDecl(NamedTuple):
    name: str
    type_text: str  # flattened declared type
    owner: Tuple[str, ...]  # enclosing class path ('' level entries omitted)
    file: str
    line: int


class TextFile:
    """One file's raw lines and allow comments: all a layout rule reads."""

    def __init__(self, path: str, text: str, display: Optional[str] = None):
        self.path = path
        self.display = display or path
        self.text = text
        self.lines = text.splitlines()
        self.allow = allow_lines(self.lines)

    def allowed(self, line: int, rule: str) -> bool:
        """A finding is suppressed by an allow comment on its line or the
        immediately preceding line (for multi-line statements)."""
        for candidate in (line, line - 1):
            if rule in self.allow.get(candidate, set()):
                return True
        return False


class SourceFile(TextFile):
    """One parsed file: tokens plus the structural facts extracted from it."""

    def __init__(self, path: str, text: str, display: Optional[str] = None):
        super().__init__(path, text, display)
        self.tokens = lex(text)
        self._scopes = self._scope_map()
        self.enums = self._extract_enums()
        self.functions = self._extract_functions()
        self.switches = self._extract_switches()

    # ---- scope tracking ----

    def _scope_map(self) -> List[Tuple[str, ...]]:
        """Per-token enclosing namespace/class path (blocks add no name)."""
        scopes: List[Tuple[str, ...]] = []
        stack: List[Tuple[str, bool]] = []  # (name, named?) per open brace
        toks = self.tokens
        pending: Optional[str] = None  # name to attach to the next '{'
        i = 0
        while i < len(toks):
            t = toks[i]
            scopes.append(tuple(name for name, named in stack if named))
            if t.kind == "id" and t.value in ("namespace", "class", "struct", "union"):
                # `namespace a::b {` / `class X final : base {` / fwd decls.
                j = i + 1
                name_parts: List[str] = []
                while j < len(toks) and (toks[j].kind == "id" or toks[j].value == "::"):
                    if toks[j].kind == "id" and toks[j].value not in ("final", "alignas"):
                        name_parts.append(toks[j].value)
                    j += 1
                # Skip base-clause / attributes up to '{' or ';' or '<'.
                k = j
                depth = 0
                while k < len(toks):
                    v = toks[k].value
                    if v in "(<[":
                        depth += 1
                    elif v in ")>]":
                        depth -= 1
                    elif depth == 0 and v in "{;=":
                        break
                    k += 1
                if k < len(toks) and toks[k].value == "{" and name_parts:
                    pending = name_parts[-1]
            elif t.value == "{":
                stack.append((pending or "", pending is not None))
                pending = None
            elif t.value == "}":
                if stack:
                    stack.pop()
            elif t.value == ";":
                pending = None
            i += 1
        return scopes

    def scope_at(self, index: int) -> Tuple[str, ...]:
        return self._scopes[index] if index < len(self._scopes) else ()

    # ---- enums ----

    def _extract_enums(self) -> List[EnumDef]:
        enums: List[EnumDef] = []
        toks = self.tokens
        i = 0
        while i < len(toks):
            if toks[i].kind == "id" and toks[i].value == "enum":
                j = i + 1
                if j < len(toks) and toks[j].value in ("class", "struct"):
                    j += 1
                if j < len(toks) and toks[j].kind == "id":
                    name = toks[j].value
                    k = j + 1
                    if k < len(toks) and toks[k].value == ":":  # underlying type
                        while k < len(toks) and toks[k].value != "{":
                            k += 1
                    if k < len(toks) and toks[k].value == "{":
                        end = match_forward(toks, k, "{", "}")
                        enumerators: List[str] = []
                        expect_name = True
                        depth = 0
                        for t in toks[k + 1 : end]:
                            if t.value in "({[":
                                depth += 1
                            elif t.value in ")}]":
                                depth -= 1
                            elif depth == 0 and t.value == ",":
                                expect_name = True
                            elif depth == 0 and expect_name and t.kind == "id":
                                enumerators.append(t.value)
                                expect_name = False
                        if enumerators:
                            path = self.scope_at(i) + (name,)
                            enums.append(EnumDef(path, tuple(enumerators), self.display, toks[i].line))
                        i = end
            i += 1
        return enums

    # ---- functions (and lambdas) ----

    _NOT_FUNCTION_KEYWORDS = {"if", "for", "while", "switch", "catch", "return", "sizeof",
                              "alignof", "decltype", "static_assert", "noexcept", "new"}
    _SPECIFIERS = {"const", "noexcept", "override", "final", "mutable", "volatile",
                   "constexpr", "&", "&&", "throw"}

    def _extract_functions(self) -> List[Function]:
        funcs: List[Function] = []
        toks = self.tokens
        i = 0
        while i < len(toks):
            if toks[i].value != "(":
                i += 1
                continue
            # The identifier (chain) before the parameter list.
            prev = i - 1
            if prev < 0:
                i += 1
                continue
            is_lambda = toks[prev].value == "]"
            if toks[prev].kind != "id" and not is_lambda:
                i += 1
                continue
            if toks[prev].kind == "id" and toks[prev].value in self._NOT_FUNCTION_KEYWORDS:
                i += 1
                continue
            close = match_forward(toks, i, "(", ")")
            if close >= len(toks):
                break
            body_open = self._find_body_brace(close + 1)
            if body_open is None:
                i = close + 1
                continue
            body_close = match_forward(toks, body_open, "{", "}")
            if is_lambda:
                name, qual = "<lambda>", ()
            else:
                name, qual = self._name_chain(prev)
            funcs.append(Function(name, qual, self.scope_at(prev if not is_lambda else i),
                                  (i, close), (body_open, body_close), toks[i].line))
            i = close + 1
        return funcs

    def _find_body_brace(self, start: int) -> Optional[int]:
        """After a parameter list ')', finds the '{' opening the function body
        (skipping trailing specifiers, trailing return types and ctor-init
        lists). Returns None when the construct is not a definition."""
        toks = self.tokens
        j = start
        while j < len(toks):
            v = toks[j].value
            if v == "{":
                return j
            if v in (";", ",", ")"):  # declaration / call expression
                return None
            if toks[j].kind == "id" and v in self._SPECIFIERS:
                j += 1
                continue
            if v in ("&", "&&", "const", "noexcept"):
                j += 1
                continue
            if v == "noexcept" or v == "throw":
                j += 1
                continue
            if v == "(":  # noexcept(...) / throw()
                j = match_forward(toks, j, "(", ")") + 1
                continue
            if v == "->":  # trailing return type: skip type tokens up to '{'
                j += 1
                depth = 0
                while j < len(toks):
                    w = toks[j].value
                    if w in "(<[":
                        depth += 1
                    elif w in ")>]":
                        depth -= 1
                    elif depth == 0 and w == "{":
                        return j
                    elif depth == 0 and w in (";", ","):
                        return None
                    j += 1
                return None
            if v == ":":  # ctor-init list
                j += 1
                while j < len(toks):
                    w = toks[j].value
                    if w == "(":
                        j = match_forward(toks, j, "(", ")") + 1
                        continue
                    if w == "{":
                        # `member{init}` brace (preceded by an identifier or
                        # '>') vs the body brace (preceded by ')' or '}').
                        if toks[j - 1].kind == "id" or toks[j - 1].value == ">":
                            j = match_forward(toks, j, "{", "}") + 1
                            continue
                        return j
                    if w == ";":
                        return None
                    j += 1
                return None
            return None
        return None

    def _name_chain(self, last: int) -> Tuple[str, Tuple[str, ...]]:
        """Walks `A::B::name` backwards from the token at `last`."""
        toks = self.tokens
        parts = [toks[last].value]
        j = last - 1
        while j > 0 and toks[j].value == "::" and toks[j - 1].kind == "id":
            parts.append(toks[j - 1].value)
            j -= 2
        parts.reverse()
        return parts[-1], tuple(parts[:-1])

    # ---- switches ----

    def _extract_switches(self) -> List[SwitchStmt]:
        out: List[SwitchStmt] = []
        toks = self.tokens
        i = 0
        while i < len(toks):
            if toks[i].kind == "id" and toks[i].value == "switch" and i + 1 < len(toks) \
                    and toks[i + 1].value == "(":
                cond_close = match_forward(toks, i + 1, "(", ")")
                cond = tuple(t.value for t in toks[i + 2 : cond_close])
                body_open = cond_close + 1
                if body_open < len(toks) and toks[body_open].value == "{":
                    body_close = match_forward(toks, body_open, "{", "}")
                    cases, has_default, default_line = self._collect_cases(body_open, body_close)
                    out.append(SwitchStmt(cond, tuple(cases), has_default, toks[i].line,
                                          default_line, (body_open, body_close)))
            i += 1
        return out

    def _collect_cases(self, open_: int, close: int) -> Tuple[List[Tuple[str, ...]], bool, int]:
        toks = self.tokens
        cases: List[Tuple[str, ...]] = []
        has_default = False
        default_line = 0
        j = open_ + 1
        while j < close:
            t = toks[j]
            if t.kind == "id" and t.value == "switch":  # nested switch: skip
                k = j + 1
                if k < close and toks[k].value == "(":
                    k = match_forward(toks, k, "(", ")") + 1
                    if k < close and toks[k].value == "{":
                        j = match_forward(toks, k, "{", "}")
            elif t.kind == "id" and t.value == "case":
                k = j + 1
                label: List[str] = []
                while k < close and toks[k].value != ":":
                    label.append(toks[k].value)
                    k += 1
                    if k < close and toks[k].value == "::":  # scope op inside label
                        label.append("::")
                        k += 1
                cases.append(tuple(label))
                j = k
            elif t.kind == "id" and t.value == "default" and j + 1 < close \
                    and toks[j + 1].value == ":" and toks[j - 1].value != "=":
                has_default = True
                default_line = t.line
            j += 1
        return cases, has_default, default_line

    # ---- loops ----

    def range_fors(self, lo: int, hi: int) -> Iterable[Tuple[int, Tuple[str, ...], Tuple[int, int]]]:
        """Yields (token index, range-expression tokens, body range) for every
        range-for inside [lo, hi)."""
        toks = self.tokens
        j = lo
        while j < hi:
            if toks[j].kind == "id" and toks[j].value == "for" and j + 1 < hi \
                    and toks[j + 1].value == "(":
                close = match_forward(toks, j + 1, "(", ")")
                head = toks[j + 2 : close]
                colon = None
                depth = 0
                for k, t in enumerate(head):
                    if t.value in "({[<":
                        depth += 1
                    elif t.value in ")}]>":
                        depth -= 1
                    elif depth == 0 and t.value == ":":
                        colon = k
                        break
                    elif depth == 0 and t.value == ";":
                        break
                if colon is not None:
                    rng = tuple(t.value for t in head[colon + 1 :])
                    body = self._stmt_body(close + 1)
                    yield j, rng, body
                j = close
            j += 1

    def counted_fors(self, lo: int, hi: int) -> Iterable[Tuple[int, Tuple[str, ...], Tuple[int, int]]]:
        """Yields (token index, head tokens, body range) for classic for loops."""
        toks = self.tokens
        j = lo
        while j < hi:
            if toks[j].kind == "id" and toks[j].value == "for" and j + 1 < hi \
                    and toks[j + 1].value == "(":
                close = match_forward(toks, j + 1, "(", ")")
                head = toks[j + 2 : close]
                if any(t.value == ";" for t in head):
                    yield j, tuple(t.value for t in head), self._stmt_body(close + 1)
                j = close
            j += 1

    def _stmt_body(self, start: int) -> Tuple[int, int]:
        """Token range of the statement starting at `start` (a `{...}` block
        or a single statement up to ';')."""
        toks = self.tokens
        if start < len(toks) and toks[start].value == "{":
            return (start, match_forward(toks, start, "{", "}"))
        depth = 0
        for j in range(start, len(toks)):
            v = toks[j].value
            if v in "({[":
                depth += 1
            elif v in ")}]":
                depth -= 1
            elif depth == 0 and v == ";":
                return (start, j)
        return (start, len(toks) - 1)

    # ---- declarations ----

    def var_decls(self, type_res: List[str]) -> List[VarDecl]:
        """Finds declarations whose type mentions one of `type_res` (regex,
        matched against the flattened type text before the variable name)."""
        out: List[VarDecl] = []
        res = [re.compile(r) for r in type_res]
        toks = self.tokens
        i = 0
        while i < len(toks):
            t = toks[i]
            if t.kind == "id" and any(r.search(t.value) for r in res):
                # Flatten `type<...>`; the declared name is the next plain id
                # after the (balanced) template arguments and any `*&` noise.
                j = i + 1
                type_parts = [t.value]
                if j < len(toks) and toks[j].value == "<":
                    # Not match_forward: the lexer emits the `>>` closing a
                    # nested template (`vector<pair<A, B>>`) as one token,
                    # which a plain "<"/">" balance never closes — it would
                    # run to end-of-file and silently drop every later
                    # declaration in the file.
                    depth = 0
                    close = j
                    while close < len(toks):
                        v = toks[close].value
                        if v == "<":
                            depth += 1
                        elif v == ">":
                            depth -= 1
                        elif v == ">>":
                            depth -= 2
                        if depth <= 0:
                            break
                        close += 1
                    type_parts.extend(tok.value for tok in toks[j : close + 1])
                    j = close + 1
                while j < len(toks) and toks[j].value in ("*", "&", "&&", "const"):
                    type_parts.append(toks[j].value)
                    j += 1
                if j < len(toks) and toks[j].kind == "id" and j + 1 < len(toks) \
                        and toks[j + 1].value in (";", "=", "{", "(", ",", ")"):
                    owner = self.scope_at(i)
                    out.append(VarDecl(toks[j].value, " ".join(type_parts), owner,
                                       self.display, toks[j].line))
                i = j
            i += 1
        return out


# ---- constant folding ----

_INT_RE = re.compile(r"^(0[xX][0-9a-fA-F']+|\d[\d']*)([uUlLzZ]*)$")


def _int_of(tok: str) -> Optional[int]:
    m = _INT_RE.match(tok)
    if not m:
        return None
    return int(m.group(1).replace("'", ""), 0)


def eval_const(expr: Sequence[str], consts: Dict[str, int]) -> Optional[int]:
    """Evaluates an integer constant expression over known constants.

    Supports + - * / % << >> | & ^ ( ) and sizeof-free literals; any
    unresolved identifier makes the result None.
    """
    py: List[str] = []
    for v in expr:
        iv = _int_of(v)
        if iv is not None:
            py.append(str(iv))
        elif v in "+-*%()|&^" or v in ("<<", ">>"):
            py.append("//" if v == "/" else v)
        elif v == "/":
            py.append("//")
        elif v in consts:
            py.append(str(consts[v]))
        elif v == "::" or v in ("usize", "u8", "u16", "u32", "u64", "i64", "std"):
            continue  # qualifier / cast noise: `mp::kWireRecordBytes`
        elif v in ("static_cast", "usize"):
            continue
        else:
            return None
    if not py:
        return None
    try:
        result = eval("".join(py), {"__builtins__": {}}, {})  # noqa: S307 — sanitized
    except Exception:
        return None
    return result if isinstance(result, int) else None


def collect_constants(files: Iterable[SourceFile]) -> Dict[str, int]:
    """Collects `constexpr <type> kName = <expr>;` constants, folding
    forward references in a few passes."""
    decls: List[Tuple[str, List[str]]] = []
    for sf in files:
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind == "id" and t.value == "constexpr":
                j = i + 1
                name = None
                while j < len(toks) and toks[j].value not in ("=", ";", "{", "("):
                    if toks[j].kind == "id":
                        name = toks[j].value
                    j += 1
                if name is None or j >= len(toks) or toks[j].value != "=":
                    continue
                k = j + 1
                expr: List[str] = []
                while k < len(toks) and toks[k].value != ";":
                    expr.append(toks[k].value)
                    k += 1
                decls.append((name, expr))
    consts: Dict[str, int] = {}
    for _ in range(4):
        progressed = False
        for name, expr in decls:
            if name in consts:
                continue
            v = eval_const(expr, consts)
            if v is not None:
                consts[name] = v
                progressed = True
        if not progressed:
            break
    return consts


SOURCE_EXTS = (".hpp", ".cpp", ".cc", ".hh", ".h")


def load_tree(root: str, subdirs: Sequence[str], exclude: Sequence[str] = (),
              make: Type[TextFile] = SourceFile) -> List[TextFile]:
    """Loads every C++ source under root/<subdir> as `make` (parsed
    SourceFiles by default, raw TextFiles on request), skipping excluded
    path fragments (e.g. the self-test corpus)."""
    out: List[TextFile] = []
    for top in subdirs:
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
            rel_dir = os.path.relpath(dirpath, root)
            if any(x in rel_dir.split(os.sep) for x in exclude):
                dirnames[:] = []
                continue
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, fn)
                    with open(full, encoding="utf-8", errors="replace") as fh:
                        text = fh.read()
                    out.append(make(full, text, os.path.relpath(full, root)))
    return out
