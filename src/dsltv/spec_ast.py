"""Resolved AST for .dslt specification files.

A specification bundles metamodels, layered transformations and
precondition/postcondition properties. Everything here is immutable;
name references are resolved by the parser before a Specification is
handed out.  A node the parser made knows the (line, column) of the token
that names it, for diagnostics; that position is not part of its value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

from . import inheritance


def _pos():
    """The ``pos`` field: (line, column) of the token that names the node
    (its attribute, for a guard or binding), or None for a node built in
    code.  Equality and hashing ignore it."""
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Attribute domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoolDomain:
    def is_finite(self) -> bool:
        return True

    def values(self):
        return (False, True)


@dataclass(frozen=True)
class IntRange:
    lo: int
    hi: int  # inclusive

    def is_finite(self) -> bool:
        return True

    def values(self):
        return tuple(range(self.lo, self.hi + 1))


@dataclass(frozen=True)
class IntSet:
    members: tuple

    def is_finite(self) -> bool:
        return True

    def values(self):
        return self.members


@dataclass(frozen=True)
class IntUnbounded:
    def is_finite(self) -> bool:
        return False

    def values(self):
        raise ValueError("unbounded Int domain has no value enumeration")


@dataclass(frozen=True)
class StringVocab:
    words: tuple

    def is_finite(self) -> bool:
        return True

    def values(self):
        return self.words


@dataclass(frozen=True)
class StringUnbounded:
    def is_finite(self) -> bool:
        return False

    def values(self):
        raise ValueError("unbounded String domain has no value enumeration")


@dataclass(frozen=True)
class EnumRef:
    enum: str
    literals: tuple  # resolved literal names, in declaration order

    def is_finite(self) -> bool:
        return True

    def values(self):
        return tuple(EnumValue(self.enum, l) for l in self.literals)


@dataclass(frozen=True)
class EnumValue:
    enum: str
    literal: str

    def __str__(self) -> str:
        return f"{self.enum}.{self.literal}"


# ---------------------------------------------------------------------------
# Metamodel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttributeDecl:
    name: str
    domain: object
    pos: tuple | None = _pos()


@dataclass(frozen=True)
class ClassDecl:
    name: str
    abstract: bool = False
    parent: str | None = None
    attributes: tuple = ()
    pos: tuple | None = _pos()


@dataclass(frozen=True)
class EnumDecl:
    name: str
    literals: tuple
    pos: tuple | None = _pos()


UNBOUNDED = None  # upper multiplicity marker


@dataclass(frozen=True)
class AssociationDecl:
    name: str
    source: str
    target: str
    lower: int = 0
    upper: int | None = UNBOUNDED  # None means '*'
    pos: tuple | None = _pos()


@dataclass(frozen=True)
class Metamodel:
    name: str
    classes: tuple = ()
    enums: tuple = ()
    associations: tuple = ()
    pos: tuple | None = _pos()

    def class_map(self):
        return {c.name: c for c in self.classes}

    def assoc_map(self):
        return {a.name: a for a in self.associations}

    def enum_map(self):
        return {e.name: e for e in self.enums}

    @cached_property
    def info(self):
        """Class name -> `inheritance.ClassInfo`, computed on first use and
        kept; a failure (cycle, unknown parent, clashing attribute) is not."""
        return inheritance._flatten(self)


# ---------------------------------------------------------------------------
# Patterns (match / apply / precondition / postcondition)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttrConstraint:
    attr: str
    op: str  # ==  !=  <  <=  >  >=
    value: object  # bool | int | str | EnumValue
    pos: tuple | None = _pos()


_ORDERED = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge}


def compare(op, value, constant):
    """Whether `value op constant` holds.  An ordered operator holds only
    between ints (not bools); the parser allows it only on Int attributes."""
    if op == "==":
        return value == constant
    if op == "!=":
        return value != constant
    if type(value) is not int or type(constant) is not int:
        return False
    return _ORDERED[op](value, constant)


@dataclass(frozen=True)
class PatternElement:
    name: str
    klass: str
    any_flag: bool = False
    constraints: tuple = ()
    pos: tuple | None = _pos()


@dataclass(frozen=True)
class PatternLink:
    name: str
    assoc: str
    source: str  # local element name
    target: str
    direct: bool = False
    pos: tuple | None = _pos()


@dataclass(frozen=True)
class PatternGraph:
    elements: tuple = ()
    links: tuple = ()

    def element_map(self):
        return {e.name: e for e in self.elements}


@dataclass(frozen=True)
class CopyBinding:
    element: str  # match element local name
    attr: str


@dataclass(frozen=True)
class AttrBinding:
    attr: str
    value: object  # literal or CopyBinding
    pos: tuple | None = _pos()


@dataclass(frozen=True)
class ApplyElement:
    name: str
    klass: str
    bindings: tuple = ()
    pos: tuple | None = _pos()


@dataclass(frozen=True)
class ApplyGraph:
    elements: tuple = ()
    links: tuple = ()

    def element_map(self):
        return {e.name: e for e in self.elements}


@dataclass(frozen=True)
class Rule:
    name: str
    match: PatternGraph
    apply: ApplyGraph
    backward: tuple = ()  # (apply element name, match element name) pairs
    pos: tuple | None = _pos()

    def arity(self) -> int:
        return len(self.match.elements)

    def backward_apply_names(self):
        return {a for a, _ in self.backward}

    def backward_classes(self):
        """(match class, apply class) of each backward pair, in order."""
        match_map = self.match.element_map()
        apply_map = self.apply.element_map()
        return tuple((match_map[m].klass, apply_map[a].klass)
                     for a, m in self.backward)

    def fresh_apply_elements(self):
        bw = self.backward_apply_names()
        return tuple(e for e in self.apply.elements if e.name not in bw)


@dataclass(frozen=True)
class Layer:
    name: str
    rules: tuple


@dataclass(frozen=True)
class Transformation:
    name: str
    source: str  # metamodel name
    target: str
    layers: tuple
    pos: tuple | None = _pos()

    def all_rules(self):
        return [(i, r) for i, layer in enumerate(self.layers) for r in layer.rules]

    def rule_layer(self, rule_name: str) -> int:
        for i, layer in enumerate(self.layers):
            for r in layer.rules:
                if r.name == rule_name:
                    return i
        raise KeyError(rule_name)


@dataclass(frozen=True)
class PropertyDecl:
    name: str
    doc: str
    precondition: PatternGraph
    postcondition: PatternGraph
    traces: tuple = ()  # (post element name, pre element name) pairs
    pos: tuple | None = _pos()


@dataclass(frozen=True)
class Specification:
    metamodels: tuple = ()
    transformations: tuple = ()
    properties: tuple = ()

    def metamodel(self, name: str) -> Metamodel:
        for mm in self.metamodels:
            if mm.name == name:
                return mm
        raise KeyError(name)

    def find_class(self, name: str):
        """Return (metamodel, class decl) for a globally unique class name."""
        hits = [(mm, c) for mm in self.metamodels for c in mm.classes if c.name == name]
        if len(hits) != 1:
            raise KeyError(name)
        return hits[0]

    def property(self, name: str) -> PropertyDecl:
        for p in self.properties:
            if p.name == name:
                return p
        raise KeyError(name)

    def transformation_for(self, source: str, target: str) -> Transformation:
        for t in self.transformations:
            if t.source == source and t.target == target:
                return t
        raise KeyError((source, target))
