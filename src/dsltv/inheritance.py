"""Inheritance flattening: concrete-subtype sets and inherited attributes."""

from __future__ import annotations

from dataclasses import dataclass


class InheritanceCycleError(Exception):
    pass


@dataclass(frozen=True)
class ClassInfo:
    name: str
    abstract: bool
    subtypes: frozenset  # concrete classes D with D <= C (includes C if concrete)
    ancestors: tuple  # C itself first, then parents up the chain
    attributes: dict  # full attribute set, including inherited (name -> domain)


def flatten_inheritance_info(mm) -> dict:
    """`mm.info`, the metamodel's flattened view."""
    return mm.info


def _flatten(mm) -> dict:
    """Per-class concrete-subtype sets and flattened attribute maps, for
    `Metamodel.info`.  Raises InheritanceCycleError on a cycle."""
    classes = mm.class_map()
    ancestors: dict[str, tuple] = {}

    def chain(name: str) -> tuple:
        if name in ancestors:
            return ancestors[name]
        seen = []
        cur = name
        while cur is not None:
            if cur in seen:
                raise InheritanceCycleError(
                    f"inheritance cycle through class '{cur}' in metamodel '{mm.name}'"
                )
            seen.append(cur)
            cur = classes[cur].parent  # an unknown parent: KeyError next
        ancestors[name] = tuple(seen)
        return ancestors[name]

    for c in mm.classes:
        chain(c.name)

    subtypes: dict[str, set] = {c.name: set() for c in mm.classes}
    for c in mm.classes:
        if c.abstract:
            continue
        for anc in ancestors[c.name]:
            subtypes[anc].add(c.name)

    info = {}
    for c in mm.classes:
        attrs: dict[str, object] = {}
        for anc in reversed(ancestors[c.name]):  # root first so leaves may not clash
            for a in classes[anc].attributes:
                if a.name in attrs:
                    raise ValueError(
                        f"attribute '{a.name}' redeclared along inheritance chain of "
                        f"'{c.name}' in metamodel '{mm.name}'"
                    )
                attrs[a.name] = a.domain
        info[c.name] = ClassInfo(
            name=c.name,
            abstract=c.abstract,
            subtypes=frozenset(subtypes[c.name]),
            ancestors=ancestors[c.name],
            attributes=attrs,
        )
    return info


def is_subtype(info: dict, sub: str, sup: str) -> bool:
    return sup in info[sub].ancestors


def types_overlap(info: dict, a: str, b: str) -> bool:
    """True when some concrete class conforms to both a and b."""
    return bool(info[a].subtypes & info[b].subtypes)
