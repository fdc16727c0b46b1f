"""switch-exhaustive / switch-default — handler and dispatch completeness.

Every switch over a protocol enum (`MsgKind`/`WireMessage::Kind`, session
and frame states, `CtlOp`, outcome/vote enums, ...) must name every
enumerator, and must not carry a `default:` label. A silent default is how
a newly added message kind compiles clean and then vanishes at dispatch —
the exact class of bug the paper's message-interpretation layer (§4) must
exclude by construction. `-Wswitch` alone does not catch it: the warning is
suppressed by the very `default:` this rule rejects.

A deliberate catch-all (e.g. a Byzantine node that ignores unknown
traffic) is annotated `// analyze:allow(switch-default): <why>` on the
default label's line.
"""

from __future__ import annotations

from typing import List

from analysis import AnalysisModel, Finding

NAME = "exhaustive"
RULES = {
    "switch-exhaustive": "every enumerator of a protocol enum is handled in every switch",
    "switch-default": "no silent default: in a switch over a protocol enum",
}


def run(model: AnalysisModel) -> List[Finding]:
    findings: List[Finding] = []
    for sf in model.files:
        for sw in sf.switches:
            if not sw.cases:
                continue
            enum = model.resolve_switch_enum(sw.cases)
            if enum is None:
                continue  # not an enum switch (char / integer dispatch)
            handled = {
                [p for p in label if p != "::"][-1]
                for label in sw.cases
                if [p for p in label if p != "::"]
            }
            _judge(findings, sf, enum.enumerators, handled, sw.has_default,
                   sw.line, sw.default_line or sw.line, "::".join(enum.path))
    return findings


def _judge(findings, sf, enumerators, handled, has_default, line, default_line, enum_name):
    missing = [e for e in enumerators if e not in handled]
    if missing and not sf.allowed(line, "switch-exhaustive"):
        findings.append(Finding(
            sf.display, line, "switch-exhaustive",
            f"switch over {enum_name} does not handle: {', '.join(missing)} — "
            "every message kind / protocol state must have an explicit handler "
            "(add the case, or // analyze:allow(switch-exhaustive): <why>)"))
    if has_default and not sf.allowed(default_line, "switch-default"):
        findings.append(Finding(
            sf.display, default_line, "switch-default",
            f"silent default: in a switch over {enum_name} — a new enumerator "
            "would compile and be dropped at dispatch; enumerate the remaining "
            "cases explicitly, or // analyze:allow(switch-default): <why>"))
