"""Check registry for amm_analyze. One module per check (docs/ANALYSIS.md §4)."""

from checks import codec_bounds, determinism, exhaustive, growth, hygiene, lockorder, loopblock

#: Every check module, in report order. Each exposes NAME, RULES (rule-id ->
#: one-line description) and run(model) -> List[Finding].
CHECKS = [codec_bounds, exhaustive, determinism, lockorder, loopblock, growth, hygiene]

ALL_RULES = {rule: desc for mod in CHECKS for rule, desc in mod.RULES.items()}
