"""Cross-file analysis model and finding type for amm_analyze.

The model aggregates per-file facts (cpp_model.SourceFile) into the global
registries the checks need: enum definitions, function definitions by name
and folded integer constants. It also carries what the hygiene rules read
beyond the parsed files: the raw lines of bench/ and tests/ and the paths in
the git index.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import cpp_model
from cpp_model import EnumDef, Function, SourceFile, TextFile


class Finding(NamedTuple):
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def render_github(self) -> str:
        return (f"::error file={self.path},line={self.line},"
                f"title=amm_analyze({self.rule})::{self.message}")


class AnalysisModel:
    def __init__(self, files: Sequence[SourceFile], layout_only: Sequence[TextFile] = (),
                 tracked: Sequence[str] = ()):
        # Every rule reads `files` (src/ and tools/). The layout rules also
        # read `layout_only` (bench/ and tests/, unparsed); no-artifacts
        # reads `tracked` (`git ls-files`).
        self.files = list(files)
        self.layout_files: List[TextFile] = self.files + list(layout_only)
        self.tracked = list(tracked)
        self.consts = cpp_model.collect_constants(self.files)
        self.enums: Dict[Tuple[str, ...], EnumDef] = {}
        for sf in self.files:
            for e in sf.enums:
                self.enums[e.path] = e
        self.functions: Dict[str, List[Tuple[SourceFile, Function]]] = {}
        for sf in self.files:
            for fn in sf.functions:
                self.functions.setdefault(fn.name, []).append((sf, fn))

    # ---- enum resolution ----

    def resolve_switch_enum(self, labels: Sequence[Sequence[str]]) -> Optional[EnumDef]:
        """Resolves the enum a switch dispatches over from ALL its case
        labels jointly: a single enumerator name (e.g. kAppend) can live in
        several enums, but the full label set almost always disambiguates.
        Returns None when no single enum contains every labelled enumerator
        under a compatible scope — such a switch is skipped, never guessed."""
        candidates: Optional[Set[Tuple[str, ...]]] = None
        for label in labels:
            parts = [p for p in label if p != "::"]
            if not parts or not parts[-1].isidentifier() or parts[-1][0].isdigit():
                return None  # numeric / expression label: not an enum switch
            enumerator, scope = parts[-1], tuple(parts[:-1])
            this: Set[Tuple[str, ...]] = set()
            for path, e in self.enums.items():
                if enumerator not in e.enumerators:
                    continue
                if scope and (len(path) < len(scope) or path[-len(scope):] != scope):
                    continue
                this.add(path)
            if not this:
                return None
            candidates = this if candidates is None else candidates & this
            if not candidates:
                return None
        if candidates and len(candidates) == 1:
            return self.enums[next(iter(candidates))]
        return None
