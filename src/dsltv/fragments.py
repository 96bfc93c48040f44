"""Membership checks for the verifiable fragments.

Transformations must be local and non-recursive (restrictions R1-R6);
properties must be bounded positive patterns (P1-P4).  Violations are data,
not errors: callers decide whether to stop, abstract (R5), or report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .inheritance import types_overlap


@dataclass(frozen=True)
class Violation:
    restriction: str  # R1..R6 | P1..P4
    location: str
    message: str


@dataclass
class FragmentReport:
    violations: list = field(default_factory=list)
    satisfied: list = field(default_factory=list)  # restrictions checked and clean
    m: int = 0  # max match arity over rules
    p: int = 0  # exact max pattern size of a property

    @property
    def ok(self):
        return not self.violations

    def to_json(self):
        return {
            "violations": [
                {"restriction": v.restriction, "location": v.location,
                 "message": v.message}
                for v in self.violations
            ],
            "satisfied": list(self.satisfied),
            "parameters": {"m": self.m, "p": self.p},
        }


def trace_producers(t, src_info, tgt_info, match_class, apply_class,
                    before=None):
    """(layer index, rule) pairs, in layer order, of the layers below
    `before` (every layer when None) whose firing records a trace from a
    match element type-compatible with match_class (any element when None)
    to a fresh apply element compatible with apply_class."""
    out = []
    for li, rule in t.all_rules():
        if before is not None and li >= before:
            break
        if not any(types_overlap(tgt_info, e.klass, apply_class)
                   for e in rule.fresh_apply_elements()):
            continue
        if match_class is None or any(
                types_overlap(src_info, e.klass, match_class)
                for e in rule.match.elements):
            out.append((li, rule))
    return out


def check_flnr(transformation, source_mm, target_mm):
    """Check the local non-recursive restrictions R1-R6 on a transformation."""
    report = FragmentReport()

    # R1: the grammar has no indirect-link syntax for transformations, so the
    # check passes by construction; still reported to document the boundary.
    report.satisfied.append("R1")

    # R2: every match pattern is a finite declared element list; m is exact.
    arities = [rule.arity() for _, rule in transformation.all_rules()]
    report.m = max(arities, default=0)
    report.satisfied.append("R2")

    # R3: backward pairs must be resolvable by a strictly earlier layer.
    r3_clean = True
    for li, rule in transformation.all_rules():
        for (apply_name, match_name), (match_class, apply_class) in zip(
                rule.backward, rule.backward_classes()):
            producers = trace_producers(transformation, source_mm.info,
                                        target_mm.info, match_class,
                                        apply_class)
            if producers and producers[0][0] < li:
                continue
            r3_clean = False
            why = (f"is only producible by layer {producers[0][0] + 1} or "
                   f"later, not an earlier layer" if producers else
                   "has no producing rule in any layer")
            report.violations.append(Violation(
                "R3", f"rule {rule.name}",
                f"backward pair {apply_name} <--trace-- {match_name} {why}"))
    if r3_clean:
        report.satisfied.append("R3")

    # R4: with R3 holding, backward dependencies point strictly down the layer
    # order, so the dependency graph is acyclic.
    if r3_clean:
        report.satisfied.append("R4")
    else:
        report.violations.append(Violation(
            "R4", "transformation",
            "acyclicity not established because R3 is violated"))

    # R5: every attribute domain of both metamodels must be finite.
    r5_clean = True
    for mm in (source_mm, target_mm):
        for c in mm.classes:
            for a in c.attributes:
                if not a.domain.is_finite():
                    r5_clean = False
                    report.violations.append(Violation(
                        "R5", f"{mm.name}.{c.name}.{a.name}",
                        f"attribute {c.name}.{a.name} has an infinite domain; "
                        f"synthesize an abstraction before proving"))
    if r5_clean:
        report.satisfied.append("R5")

    # R6: the apply grammar can only add elements and links; monotone by
    # construction.
    report.satisfied.append("R6")
    return report


def check_gbpp(prop):
    """Check the bounded-positive-pattern restrictions P1-P4 on a property."""
    report = FragmentReport()

    # P1: patterns are finite declared element lists; p is the exact max.
    report.p = max(len(prop.precondition.elements),
                   len(prop.postcondition.elements))
    report.satisfied.append("P1")

    # P2: no indirect-link syntax exists for properties either, but the parser
    # accepts the 'direct' marker; anything else would not parse.
    report.satisfied.append("P2")

    # P3: trace constraints may relate only declared pattern elements.
    pre_names = {e.name for e in prop.precondition.elements}
    post_names = {e.name for e in prop.postcondition.elements}
    p3_clean = True
    for post_el, pre_el in prop.traces:
        if post_el not in post_names or pre_el not in pre_names:
            p3_clean = False
            report.violations.append(Violation(
                "P3", f"property {prop.name}",
                f"trace constraint {post_el} <--trace-- {pre_el} references "
                f"an element not declared in the patterns"))
    if p3_clean:
        report.satisfied.append("P3")

    # P4: the grammar has no negation, uniqueness, or absence syntax, so
    # satisfaction is monotone in added target structure by construction.
    report.satisfied.append("P4")
    return report
