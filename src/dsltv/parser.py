"""Parser and resolver for .dslt specification files.

The grammar is block structured:

    metamodel M { enum K { A, B } class C extends D { attr: Int[0..3] }
                  assoc owns : C -> D [1..*] }
    transformation T : M -> N { layer L { rule R { match {...} apply {...}
                  backward {...} } } }
    property P "doc" { precondition {...} postcondition {...} }

Pattern items inside match/precondition/postcondition blocks:

    any pkg : Package where name == "app" and priority < 3
    direct pe : packagedElement -- pkg.cls
    pkgDecl <--trace-- pkg          (backward pairs / property trace constraints)

Apply items:

    cu : CompilationUnit { fileName = cls.name, visibility = "public" }
    outP : package -- cu.pkgDecl

parse_spec returns a fully resolved Specification or a list of Diagnostic.
"""

from __future__ import annotations

import re
from dataclasses import replace

from .diagnostics import Diagnostic
from .inheritance import InheritanceCycleError, types_overlap
from .spec_ast import (
    ApplyElement,
    ApplyGraph,
    AssociationDecl,
    AttrBinding,
    AttrConstraint,
    AttributeDecl,
    BoolDomain,
    ClassDecl,
    CopyBinding,
    EnumDecl,
    EnumRef,
    EnumValue,
    IntRange,
    IntSet,
    IntUnbounded,
    Layer,
    Metamodel,
    PatternElement,
    PatternGraph,
    PatternLink,
    PropertyDecl,
    Rule,
    Specification,
    StringUnbounded,
    StringVocab,
    Transformation,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<int>-?\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><--trace--|->|--|\.\.|==|!=|<=|>=|[<>{}:,.\[\]=*])
    """,
    re.VERBOSE,
)

COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind},{self.text!r},{self.line}:{self.col})"


class ParseFailure(Exception):
    pass


def _tokenize(text, diags, file):
    tokens = []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            diags.append(Diagnostic(line, pos - bol + 1, "error",
                                    f"unexpected character {text[pos]!r}", file))
            pos += 1
            continue
        kind = m.lastgroup
        tok_text = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, tok_text, line, m.start() - bol + 1))
        nl = tok_text.count("\n")
        if nl:
            line += nl
            bol = m.start() + tok_text.rfind("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - bol + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, diags, file):
        self.toks = tokens
        self.i = 0
        self.diags = diags
        self.file = file

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset=0):
        return self.toks[min(self.i + offset, len(self.toks) - 1)]

    def next(self):
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text):
        return self.peek().text == text and self.peek().kind in ("id", "op")

    def accept(self, text):
        if self.at(text):
            return self.next()
        return None

    def pos(self):
        """(line, column) of the next token: the ``pos`` of a node named
        there."""
        tok = self.peek()
        return tok.line, tok.col

    def error(self, message, tok=None):
        tok = tok or self.peek()
        self.diags.append(Diagnostic(tok.line, tok.col, "error", message, self.file))
        raise ParseFailure()

    def expect(self, text):
        tok = self.accept(text)
        if tok is None:
            self.error(f"expected '{text}', found {self.peek().text!r}")
        return tok

    def ident(self, what="identifier"):
        tok = self.peek()
        if tok.kind != "id":
            self.error(f"expected {what}, found {tok.text!r}")
        return self.next().text

    def string(self):
        tok = self.peek()
        if tok.kind != "string":
            self.error(f"expected string literal, found {tok.text!r}")
        self.next()
        return tok.text[1:-1].replace('\\"', '"').replace("\\\\", "\\")

    def int_lit(self):
        tok = self.peek()
        if tok.kind != "int":
            self.error(f"expected integer, found {tok.text!r}")
        self.next()
        return int(tok.text)

    # -- top level ---------------------------------------------------------

    def parse(self):
        metamodels, transformations, properties = [], [], []
        if self.peek().kind == "eof":
            self.diags.append(Diagnostic(1, 1, "error", "no declarations", self.file))
            return None
        while self.peek().kind != "eof":
            try:
                if self.at("metamodel"):
                    metamodels.append(self.metamodel())
                elif self.at("transformation"):
                    transformations.append(self.transformation())
                elif self.at("property"):
                    properties.append(self.property_decl())
                else:
                    self.error(f"expected metamodel/transformation/property, "
                               f"found {self.peek().text!r}")
            except ParseFailure:
                self.sync_toplevel()
        return Specification(tuple(metamodels), tuple(transformations),
                             tuple(properties))

    def sync_toplevel(self):
        depth = 0
        while self.peek().kind != "eof":
            t = self.peek().text
            if depth == 0 and t in ("metamodel", "transformation", "property"):
                return
            if t == "{":
                depth += 1
            elif t == "}":
                depth = max(0, depth - 1)
            self.next()

    # -- metamodels ---------------------------------------------------------

    def metamodel(self):
        self.expect("metamodel")
        pos = self.pos()
        name = self.ident("metamodel name")
        self.expect("{")
        classes, enums, assocs = [], [], []
        while not self.accept("}"):
            if self.at("enum"):
                enums.append(self.enum_decl())
            elif self.at("class") or self.at("abstract"):
                classes.append(self.class_decl())
            elif self.at("assoc"):
                assocs.append(self.assoc_decl())
            elif self.peek().kind == "eof":
                self.error("unterminated metamodel block")
            else:
                self.error(f"expected class/enum/assoc, found {self.peek().text!r}")
        return Metamodel(name, tuple(classes), tuple(enums), tuple(assocs),
                         pos)

    def enum_decl(self):
        self.expect("enum")
        pos = self.pos()
        name = self.ident("enum name")
        self.expect("{")
        literals = [self.ident("enum literal")]
        while self.accept(","):
            literals.append(self.ident("enum literal"))
        self.expect("}")
        return EnumDecl(name, tuple(literals), pos)

    def class_decl(self):
        abstract = self.accept("abstract") is not None
        self.expect("class")
        pos = self.pos()
        name = self.ident("class name")
        parent = self.ident("parent class") if self.accept("extends") else None
        self.expect("{")
        attrs = []
        while not self.accept("}"):
            if self.peek().kind == "eof":
                self.error("unterminated class block")
            attr_pos = self.pos()
            attr_name = self.ident("attribute name")
            self.expect(":")
            attrs.append(AttributeDecl(attr_name, self.domain(), attr_pos))
        return ClassDecl(name, abstract, parent, tuple(attrs), pos)

    def domain(self):
        tok = self.peek()
        name = self.ident("attribute domain")
        if name == "Bool":
            return BoolDomain()
        if name == "Int":
            if self.accept("["):
                lo = self.int_lit()
                self.expect("..")
                hi = self.int_lit()
                self.expect("]")
                if lo > hi:
                    self.error(f"empty Int range [{lo}..{hi}]", tok)
                return IntRange(lo, hi)
            if self.accept("{"):
                members = [self.int_lit()]
                while self.accept(","):
                    members.append(self.int_lit())
                self.expect("}")
                return IntSet(tuple(sorted(set(members))))
            return IntUnbounded()
        if name == "String":
            if self.accept("["):
                words = [self.string()]
                while self.accept(","):
                    words.append(self.string())
                self.expect("]")
                return StringVocab(tuple(dict.fromkeys(words)))
            return StringUnbounded()
        # enum reference; literals filled in during resolution
        return EnumRef(name, ())

    def assoc_decl(self):
        self.expect("assoc")
        pos = self.pos()
        name = self.ident("association name")
        self.expect(":")
        source = self.ident("source class")
        self.expect("->")
        target = self.ident("target class")
        lower, upper = 0, None
        if self.accept("["):
            lower = self.int_lit()
            self.expect("..")
            if self.accept("*"):
                upper = None
            else:
                upper = self.int_lit()
            self.expect("]")
            if lower < 0 or (upper is not None and lower > upper):
                self.error(f"bad multiplicity [{lower}..{upper}]")
        return AssociationDecl(name, source, target, lower, upper, pos)

    # -- patterns ------------------------------------------------------------

    def literal(self):
        tok = self.peek()
        if tok.kind == "int":
            return self.int_lit()
        if tok.kind == "string":
            return self.string()
        if tok.kind == "id":
            if tok.text == "true":
                self.next()
                return True
            if tok.text == "false":
                self.next()
                return False
            enum = self.ident()
            self.expect(".")
            return EnumValue(enum, self.ident("enum literal"))
        self.error(f"expected literal, found {tok.text!r}")

    def where_clauses(self):
        constraints = []
        while self.accept("where"):
            while True:
                pos = self.pos()
                attr = self.ident("attribute name")
                op_tok = self.peek()
                if op_tok.text not in COMPARISON_OPS:
                    self.error(f"expected comparison operator, found {op_tok.text!r}")
                self.next()
                constraints.append(AttrConstraint(attr, op_tok.text,
                                                  self.literal(), pos))
                if not self.accept("and"):
                    break
        return tuple(constraints)

    def pattern_graph(self, allow_traces):
        """Parse pattern items until '}'. Returns (PatternGraph, trace pairs)."""
        elements, links, traces = [], [], []
        self.expect("{")
        while not self.accept("}"):
            if self.peek().kind == "eof":
                self.error("unterminated pattern block")
            any_flag = self.accept("any") is not None
            direct = False
            if not any_flag:
                direct = self.accept("direct") is not None
            pos = self.pos()
            name = self.ident("element or link name")
            if not any_flag and not direct and self.at("<--trace--"):
                self.next()
                other = self.ident("element name")
                if not allow_traces:
                    self.error("trace constraints are not allowed in this block")
                traces.append((name, other))
                continue
            self.expect(":")
            type_name = self.ident("class or association name")
            if self.accept("--"):
                src = self.ident("link source element")
                self.expect(".")
                tgt = self.ident("link target element")
                links.append(PatternLink(name, type_name, src, tgt, direct,
                                         pos))
            else:
                if direct:
                    self.error("'direct' marks links, not elements")
                elements.append(PatternElement(name, type_name, any_flag,
                                               self.where_clauses(), pos))
        return PatternGraph(tuple(elements), tuple(links)), tuple(traces)

    # -- transformations -------------------------------------------------------

    def transformation(self):
        self.expect("transformation")
        pos = self.pos()
        name = self.ident("transformation name")
        self.expect(":")
        source = self.ident("source metamodel")
        self.expect("->")
        target = self.ident("target metamodel")
        self.expect("{")
        layers = []
        while not self.accept("}"):
            if self.peek().kind == "eof":
                self.error("unterminated transformation block")
            self.expect("layer")
            lname = self.ident("layer name")
            self.expect("{")
            rules = []
            while not self.accept("}"):
                if self.peek().kind == "eof":
                    self.error("unterminated layer block")
                rules.append(self.rule())
            layers.append(Layer(lname, tuple(rules)))
        return Transformation(name, source, target, tuple(layers), pos)

    def rule(self):
        self.expect("rule")
        pos = self.pos()
        name = self.ident("rule name")
        self.expect("{")
        self.expect("match")
        match, _ = self.pattern_graph(allow_traces=False)
        self.expect("apply")
        apply_graph = self.apply_graph()
        backward = []
        if self.accept("backward"):
            self.expect("{")
            while not self.accept("}"):
                if self.peek().kind == "eof":
                    self.error("unterminated backward block")
                apply_el = self.ident("apply element")
                self.expect("<--trace--")
                backward.append((apply_el, self.ident("match element")))
        self.expect("}")
        return Rule(name, match, apply_graph, tuple(backward), pos)

    def apply_graph(self):
        elements, links = [], []
        self.expect("{")
        while not self.accept("}"):
            if self.peek().kind == "eof":
                self.error("unterminated apply block")
            pos = self.pos()
            name = self.ident("apply element or link name")
            self.expect(":")
            type_name = self.ident("class or association name")
            if self.accept("--"):
                src = self.ident("link source element")
                self.expect(".")
                tgt = self.ident("link target element")
                links.append(PatternLink(name, type_name, src, tgt, False,
                                         pos))
                continue
            bindings = []
            if self.accept("{"):
                while not self.accept("}"):
                    if self.peek().kind == "eof":
                        self.error("unterminated binding block")
                    attr_pos = self.pos()
                    attr = self.ident("attribute name")
                    self.expect("=")
                    tok = self.peek()
                    if tok.kind == "id" and tok.text not in ("true", "false") \
                            and self.peek(1).text == ".":
                        # resolver decides: copy-from-match-element vs enum literal
                        first = self.ident()
                        self.expect(".")
                        bindings.append(AttrBinding(
                            attr, CopyBinding(first, self.ident()), attr_pos))
                    else:
                        bindings.append(AttrBinding(attr, self.literal(),
                                                    attr_pos))
                    self.accept(",")
            elements.append(ApplyElement(name, type_name, tuple(bindings),
                                         pos))
        return ApplyGraph(tuple(elements), tuple(links))

    # -- properties --------------------------------------------------------------

    def property_decl(self):
        self.expect("property")
        pos = self.pos()
        name = self.ident("property name")
        doc = self.string() if self.peek().kind == "string" else ""
        self.expect("{")
        self.expect("precondition")
        pre, pre_traces = self.pattern_graph(allow_traces=False)
        self.expect("postcondition")
        post, traces = self.pattern_graph(allow_traces=True)
        self.expect("}")
        return PropertyDecl(name, doc, pre, post, traces, pos)


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

def _duplicates(nodes, key=lambda node: node.name):
    """(key, node) for each key that more than one of `nodes` has, with the
    node that first repeats it, in the order of those repetitions."""
    seen, repeated = set(), {}
    for node in nodes:
        k = key(node)
        if k in seen:
            repeated.setdefault(k, node)
        seen.add(k)
    return list(repeated.items())


def _domain_kind(domain):
    """Bool, Int, String or the enum's name: a copy binding keeps its value,
    so its source and target attributes must share this."""
    if isinstance(domain, BoolDomain):
        return "Bool"
    if isinstance(domain, (IntRange, IntSet, IntUnbounded)):
        return "Int"
    if isinstance(domain, (StringVocab, StringUnbounded)):
        return "String"
    return domain.enum


def _uncopied(src_domain, domain):
    """None when `domain` holds every value of `src_domain`, which has the
    same kind; otherwise a description of a value it lacks.  A copy binding
    keeps its value, and the encoder can put only the target domain's
    values in a target attribute."""
    if not domain.is_finite():
        return None
    if not src_domain.is_finite():
        return "most values of its unbounded source domain"
    kept = set(domain.values())
    for v in src_domain.values():
        if v not in kept:
            return "the value " + (v.literal if isinstance(v, EnumValue)
                                   else repr(v))
    return None


def _literal_kind(value):
    """The `_domain_kind` a literal belongs to."""
    if isinstance(value, EnumValue):
        return value.enum
    return {bool: "Bool", int: "Int", str: "String"}.get(type(value))


class _Resolver:
    def __init__(self, spec, diags, file):
        self.spec = spec
        self.diags = diags
        self.file = file
        self.unflattened = []  # resolved metamodels without `info`
        self.resolved_mms = []

    def err(self, message, node):
        """Report `message` at the position of `node`."""
        line, col = node.pos or (0, 0)
        self.diags.append(Diagnostic(line, col, "error", message, self.file))

    def run(self):
        for n, mm in _duplicates(self.spec.metamodels):
            self.err(f"duplicate metamodel '{n}'", mm)
        for mm in self.spec.metamodels:
            self.resolve_metamodel(mm)
        spec = Specification(
            tuple(self.resolved_mms),
            tuple(self.normalize_transformation(t) for t in
                  self.spec.transformations),
            self.spec.properties,
        )
        self.spec = spec
        for pr, t in _duplicates(spec.transformations,
                                 lambda t: (t.source, t.target)):
            self.err(f"more than one transformation for metamodel pair "
                     f"{pr[0]} -> {pr[1]}", t)
        for t in spec.transformations:
            self.resolve_transformation(t)
        for n, p in _duplicates(spec.properties):
            self.err(f"duplicate property '{n}'", p)
        for p in spec.properties:
            self.resolve_property(p)
        return spec

    # -- metamodel checks, enum-ref fill-in ------------------------------------

    def resolve_metamodel(self, mm):
        for n, c in _duplicates(mm.classes):
            self.err(f"duplicate class '{n}' in metamodel '{mm.name}'", c)
        for n, e in _duplicates(mm.enums):
            self.err(f"duplicate enum '{n}' in metamodel '{mm.name}'", e)
        for n, a in _duplicates(mm.associations):
            self.err(f"duplicate association '{n}' in metamodel "
                     f"'{mm.name}'", a)
        enums = mm.enum_map()
        classes = []
        for c in mm.classes:
            attrs = []
            for a in c.attributes:
                dom = a.domain
                if isinstance(dom, EnumRef):
                    decl = enums.get(dom.enum)
                    if decl is None:
                        self.err(f"unknown enum '{dom.enum}' for attribute "
                                 f"'{c.name}.{a.name}' in metamodel "
                                 f"'{mm.name}'", a)
                        continue
                    dom = EnumRef(dom.enum, decl.literals)
                attrs.append(replace(a, domain=dom))
            parent = c.parent
            if parent is not None and parent not in mm.class_map():
                self.err(f"unknown parent class '{parent}' of '{c.name}' "
                         f"in metamodel '{mm.name}'", c)
                parent = None
            classes.append(replace(c, parent=parent, attributes=tuple(attrs)))
        for a in mm.associations:
            for end in (a.source, a.target):
                if end not in mm.class_map():
                    self.err(f"unknown class '{end}' in association '{a.name}' "
                             f"of metamodel '{mm.name}'", a)
        resolved = replace(mm, classes=tuple(classes))
        try:
            resolved.info  # flatten now, so that a failure is reported here
        except (InheritanceCycleError, KeyError, ValueError) as e:
            self.err(str(e) if isinstance(e, InheritanceCycleError)
                     else f"in metamodel '{mm.name}': {e}", mm)
            self.unflattened.append(resolved)
        self.resolved_mms.append(resolved)

    # -- shared pattern checks --------------------------------------------------

    def lookup_mm(self, name, where, node):
        """The metamodel `name`, or None if unknown or not flattened."""
        try:
            mm = self.spec.metamodel(name)
        except KeyError:
            self.err(f"unknown metamodel '{name}' in {where}", node)
            return None
        return None if mm in self.unflattened else mm

    def check_literal_against(self, domain, value, where, node):
        kind = _domain_kind(domain)
        if _literal_kind(value) != kind:
            self.err(f"{where}: expected {kind} literal", node)
        elif isinstance(domain, EnumRef) and value.literal not in domain.literals:
            self.err(f"{where}: '{value.literal}' is not a literal of "
                     f"{domain.enum}", node)

    def check_pattern(self, pattern, mm, where):
        if mm is None:
            return
        info = mm.info
        for n, e in _duplicates(pattern.elements):
            self.err(f"{where}: duplicate element name '{n}'", e)
        elems = pattern.element_map()
        for e in pattern.elements:
            if e.klass not in info:
                self.err(f"{where}: unknown class '{e.klass}' for element "
                         f"'{e.name}'", e)
                continue
            for c in e.constraints:
                dom = info[e.klass].attributes.get(c.attr)
                if dom is None:
                    self.err(f"{where}: element '{e.name}' has no attribute "
                             f"'{c.attr}'", c)
                    continue
                self.check_literal_against(
                    dom, c.value, f"{where}: guard on '{e.name}.{c.attr}'", c)
                if c.op not in ("==", "!=") and not isinstance(
                        dom, (IntRange, IntSet, IntUnbounded)):
                    self.err(f"{where}: ordered comparison needs an Int attribute "
                             f"('{e.name}.{c.attr}')", c)
        assocs = mm.assoc_map()
        for l in pattern.links:
            a = assocs.get(l.assoc)
            if a is None:
                self.err(f"{where}: unknown association '{l.assoc}'", l)
                continue
            for endpoint, decl_end in ((l.source, a.source), (l.target, a.target)):
                el = elems.get(endpoint)
                if el is None:
                    self.err(f"{where}: link '{l.name}' references undeclared "
                             f"element '{endpoint}'", l)
                elif el.klass in info and decl_end in info and \
                        not types_overlap(info, el.klass, decl_end):
                    self.err(f"{where}: link '{l.name}' endpoint '{endpoint}' of class "
                             f"'{el.klass}' is incompatible with association end "
                             f"'{decl_end}'", l)

    # -- transformation ----------------------------------------------------------

    def normalize_transformation(self, t):
        """Rewrite `attr = Enum.Literal` apply bindings, which the parser
        tokenized as copy bindings, into enum literals."""
        tgt_mm = next((m for m in self.resolved_mms if m.name == t.target),
                      None)
        enums = tgt_mm.enum_map() if tgt_mm else {}
        layers = []
        for layer in t.layers:
            rules = []
            for rule in layer.rules:
                match_names = set(rule.match.element_map())
                elements = []
                for e in rule.apply.elements:
                    bindings = []
                    for b in e.bindings:
                        v = b.value
                        if isinstance(v, CopyBinding) and \
                                v.element not in match_names and \
                                v.element in enums:
                            if v.attr not in enums[v.element].literals:
                                self.err(f"rule '{rule.name}': unknown "
                                         f"literal '{v.attr}' of enum "
                                         f"'{v.element}'", b)
                            b = replace(b, value=EnumValue(v.element, v.attr))
                        bindings.append(b)
                    elements.append(replace(e, bindings=tuple(bindings)))
                rules.append(replace(rule, apply=ApplyGraph(
                    tuple(elements), rule.apply.links)))
            layers.append(Layer(layer.name, tuple(rules)))
        return replace(t, layers=tuple(layers))

    def resolve_transformation(self, t):
        where = f"transformation '{t.name}'"
        src_mm = self.lookup_mm(t.source, where, t)
        tgt_mm = self.lookup_mm(t.target, where, t)
        for n, r in _duplicates(r for _, r in t.all_rules()):
            self.err(f"duplicate rule '{n}' in transformation '{t.name}'", r)
        for _, rule in t.all_rules():
            where = f"rule '{rule.name}'"
            self.check_pattern(rule.match, src_mm, where + " match")
            self.check_apply(rule, src_mm, tgt_mm, where)
            match_names = rule.match.element_map()
            apply_names = rule.apply.element_map()
            for ae, me in rule.backward:
                if ae not in apply_names:
                    self.err(f"{where}: backward pair references undeclared apply "
                             f"element '{ae}'", rule)
                if me not in match_names:
                    self.err(f"{where}: backward pair references undeclared match "
                             f"element '{me}'", rule)

    def check_apply(self, rule, src_mm, tgt_mm, where):
        if tgt_mm is None:
            return
        tgt_info = tgt_mm.info
        for n, e in _duplicates(rule.apply.elements):
            self.err(f"{where}: duplicate apply element '{n}'", e)
        match_elems = rule.match.element_map()
        for e in rule.apply.elements:
            if e.klass not in tgt_info:
                self.err(f"{where}: unknown target class '{e.klass}' "
                         f"for apply element '{e.name}'", e)
                continue
            for b in e.bindings:
                dom = tgt_info[e.klass].attributes.get(b.attr)
                if dom is None:
                    self.err(f"{where}: apply element '{e.name}' has no attribute "
                             f"'{b.attr}'", b)
                    continue
                if isinstance(b.value, CopyBinding):
                    src_el = match_elems.get(b.value.element)
                    if src_el is None:
                        self.err(f"{where}: binding '{e.name}.{b.attr}' copies from "
                                 f"undeclared match element '{b.value.element}'",
                                 b)
                        continue
                    if src_mm and src_el.klass in src_mm.info:
                        src_dom = src_mm.info[src_el.klass].attributes.get(b.value.attr)
                        if src_dom is None:
                            self.err(f"{where}: match element '{b.value.element}' has "
                                     f"no attribute '{b.value.attr}'", b)
                        elif _domain_kind(src_dom) != _domain_kind(dom):
                            self.err(f"{where}: binding '{e.name}.{b.attr}' copies "
                                     f"'{b.value.element}.{b.value.attr}' "
                                     f"({_domain_kind(src_dom)}) into a "
                                     f"{_domain_kind(dom)} attribute", b)
                        elif (missing := _uncopied(src_dom, dom)) is not None:
                            self.err(f"{where}: binding '{e.name}.{b.attr}' copies "
                                     f"'{b.value.element}.{b.value.attr}' into "
                                     f"a domain without {missing}", b)
                else:
                    self.check_literal_against(
                        dom, b.value, f"{where}: binding '{e.name}.{b.attr}'", b)
        elems = rule.apply.element_map()
        assocs = tgt_mm.assoc_map()
        for l in rule.apply.links:
            a = assocs.get(l.assoc)
            if a is None:
                self.err(f"{where}: unknown target association '{l.assoc}'", l)
                continue
            for endpoint, decl_end in ((l.source, a.source), (l.target, a.target)):
                el = elems.get(endpoint)
                if el is None:
                    self.err(f"{where}: apply link '{l.name}' references undeclared "
                             f"element '{endpoint}'", l)
                elif el.klass in tgt_info and not types_overlap(
                        tgt_info, el.klass, decl_end):
                    self.err(f"{where}: apply link '{l.name}' endpoint '{endpoint}' "
                             f"is incompatible with association end '{decl_end}'",
                             l)

    # -- properties ----------------------------------------------------------------

    def find_pattern_metamodel(self, pattern, where):
        candidates = None
        for e in pattern.elements:
            homes = {mm.name for mm in self.spec.metamodels
                     if mm not in self.unflattened and e.klass in mm.info}
            if not homes:
                self.err(f"{where}: unknown class '{e.klass}'", e)
                return None
            candidates = homes if candidates is None else candidates & homes
        if candidates is None:
            return None  # empty pattern: no anchor
        if not candidates:
            self.err(f"{where}: pattern classes do not share a metamodel",
                     pattern.elements[0])
            return None
        if len(candidates) > 1:
            self.err(f"{where}: pattern classes are ambiguous across metamodels "
                     f"{sorted(candidates)}", pattern.elements[0])
            return None
        return self.lookup_mm(next(iter(candidates)), where,
                              pattern.elements[0])

    def resolve_property(self, p):
        where = f"property '{p.name}'"
        pre_mm = self.find_pattern_metamodel(p.precondition, where + " precondition")
        post_mm = self.find_pattern_metamodel(p.postcondition, where + " postcondition")
        self.check_pattern(p.precondition, pre_mm, where + " precondition")
        self.check_pattern(p.postcondition, post_mm, where + " postcondition")
        pre_names = {e.name for e in p.precondition.elements}
        post_names = {e.name for e in p.postcondition.elements}
        for post_el, pre_el in p.traces:
            if post_el not in post_names:
                self.err(f"{where}: trace constraint references undeclared "
                         f"postcondition element '{post_el}'", p)
            if pre_el not in pre_names:
                self.err(f"{where}: trace constraint references undeclared "
                         f"precondition element '{pre_el}'", p)


def property_metamodels(spec, prop):
    """(source metamodel, target metamodel) a resolved property ranges over.

    Empty patterns yield None on that side.
    """
    def home(pattern):
        for e in pattern.elements:
            mm, _ = spec.find_class(e.klass)
            return mm
        return None

    return home(prop.precondition), home(prop.postcondition)


def parse_spec(text, file="<input>"):
    """Parse and resolve .dslt source.

    Returns a Specification on success, or a non-empty list of Diagnostic.
    """
    diags: list[Diagnostic] = []
    tokens = _tokenize(text, diags, file)
    spec = _Parser(tokens, diags, file).parse()
    if spec is not None and not diags:
        spec = _Resolver(spec, diags, file).run()
    if diags:
        return diags
    return spec


def parse_spec_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read(), file=str(path))
