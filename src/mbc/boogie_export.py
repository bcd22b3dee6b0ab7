"""Axiomatic Boogie theories for the model sorts.

One table, ``_SORTS``, pairs each exported ``model_math`` operation with
its Boogie function declaration; the emitted theory declares each function
under a comment naming its operation, then the minimal defining axioms.
Output is byte-deterministic: sorts are ordered alphabetically and, within
a sort, type declaration, functions, and axioms appear in declaration order.

Whitespace policy: single space around operators, two-space indent inside
axioms, one blank line between sorts.
"""

from __future__ import annotations

HEADER = "// Axiomatic theories for the immutable model sorts.\n"


class ExportError(Exception):
    """An unregistered sort, or text the grammar check rejects."""


# Operations deliberately without a theory counterpart.
NOT_EXPORTED = {
    "MSet.elements": "representation accessor, not a model operation",
    "MSet.for_all": "higher-order predicate argument",
    "MSet.exists": "higher-order predicate argument",
    "identity_relation": "test-universe helper, not a theory symbol",
    "total_relation": "test-universe helper, not a theory symbol",
}

# sort name -> (type declaration, [(op key, function decl)], [axioms])
_SORTS = {
    "Sequence": (
        "type Sequence T = [int] T ;",
        [
            ("MSeq.count", "function Sequence.count <T> (Sequence T) returns (int);"),
            ("MSeq.is_empty", "function Sequence.is_empty <T> (Sequence T) returns (bool);"),
            ("MSeq.extended", "function Sequence.extended <T> (Sequence T, T) returns (Sequence T);"),
            ("MSeq.front", "function Sequence.front <T> (Sequence T, int) returns (Sequence T);"),
            ("MSeq.tail", "function Sequence.tail <T> (Sequence T, int) returns (Sequence T);"),
            ("MSeq.concat", "function Sequence.concat <T> (Sequence T, Sequence T) returns (Sequence T);"),
            ("MSeq.interval", "function Sequence.interval <T> (Sequence T, int, int) returns (Sequence T);"),
            ("MSeq.item", "function Sequence.item <T> (Sequence T, int) returns (T);"),
            ("MSeq.domain", "function Sequence.domain <T> (Sequence T) returns (Set int);"),
            ("MSeq.range", "function Sequence.range <T> (Sequence T) returns (Set T);"),
            ("MSeq.has", "function Sequence.has <T> (Sequence T, T) returns (bool);"),
            ("MSeq.occurrences", "function Sequence.occurrences <T> (Sequence T, T) returns (int);"),
            ("MSeq.to_bag", "function Sequence.to_bag <T> (Sequence T) returns (Bag T);"),
        ],
        [
            "axiom (forall <T> s: Sequence T :: {Sequence.count(s)}\n"
            "  Sequence.count(s) >= 0);",
            "axiom (forall <T> s: Sequence T :: {Sequence.is_empty(s)}\n"
            "  Sequence.is_empty(s) <==> Sequence.count(s) == 0);",
            "axiom (forall <T> s: Sequence T, x: T :: {Sequence.extended(s, x)}\n"
            "  Sequence.extended(s, x) == s[Sequence.count(s)+1 := x]);",
            "axiom (forall <T> s: Sequence T, x: T :: {Sequence.count(Sequence.extended(s, x))}\n"
            "  Sequence.count(Sequence.extended(s, x)) == Sequence.count(s)+1);",
            "axiom (forall <T> s: Sequence T, n: int :: {Sequence.count(Sequence.front(s, n))}\n"
            "  0 <= n && n <= Sequence.count(s) ==> Sequence.count(Sequence.front(s, n)) == n);",
            "axiom (forall <T> s: Sequence T, n: int, i: int :: {Sequence.item(Sequence.front(s, n), i)}\n"
            "  1 <= i && i <= n ==> Sequence.item(Sequence.front(s, n), i) == Sequence.item(s, i));",
            "axiom (forall <T> s: Sequence T, n: int :: {Sequence.count(Sequence.tail(s, n))}\n"
            "  1 <= n && n <= Sequence.count(s) + 1 ==> Sequence.count(Sequence.tail(s, n)) == Sequence.count(s) - n + 1);",
            "axiom (forall <T> s: Sequence T, n: int, i: int :: {Sequence.item(Sequence.tail(s, n), i)}\n"
            "  Sequence.item(Sequence.tail(s, n), i) == Sequence.item(s, i + n - 1));",
            "axiom (forall <T> s: Sequence T, t: Sequence T :: {Sequence.count(Sequence.concat(s, t))}\n"
            "  Sequence.count(Sequence.concat(s, t)) == Sequence.count(s) + Sequence.count(t));",
            "axiom (forall <T> s: Sequence T, t: Sequence T, i: int :: {Sequence.item(Sequence.concat(s, t), i)}\n"
            "  (1 <= i && i <= Sequence.count(s) ==> Sequence.item(Sequence.concat(s, t), i) == Sequence.item(s, i)) &&\n"
            "  (Sequence.count(s) < i ==> Sequence.item(Sequence.concat(s, t), i) == Sequence.item(t, i - Sequence.count(s))));",
            "axiom (forall <T> s: Sequence T, l: int, u: int :: {Sequence.interval(s, l, u)}\n"
            "  Sequence.interval(s, l, u) == Sequence.front(Sequence.tail(s, (if l < 1 then 1 else l)), (if u > Sequence.count(s) then Sequence.count(s) else u) - (if l < 1 then 1 else l) + 1));",
            "axiom (forall <T> s: Sequence T, i: int :: {Sequence.item(s, i)}\n"
            "  Sequence.item(s, i) == s[i]);",
            "axiom (forall <T> s: Sequence T, i: int :: {Set.has(Sequence.domain(s), i)}\n"
            "  Set.has(Sequence.domain(s), i) <==> 1 <= i && i <= Sequence.count(s));",
            "axiom (forall <T> s: Sequence T, x: T :: {Set.has(Sequence.range(s), x)}\n"
            "  Set.has(Sequence.range(s), x) <==> Sequence.has(s, x));",
            "axiom (forall <T> s: Sequence T, x: T :: {Sequence.has(s, x)}\n"
            "  Sequence.has(s, x) <==> Sequence.occurrences(s, x) > 0);",
            "axiom (forall <T> s: Sequence T, x: T :: {Sequence.occurrences(s, x)}\n"
            "  Sequence.occurrences(s, x) == Bag.multiplicity(Sequence.to_bag(s), x));",
        ],
    ),
    "Set": (
        "type Set T = [T] bool ;",
        [
            ("MSet.count", "function Set.count <T> (Set T) returns (int);"),
            ("MSet.is_empty", "function Set.is_empty <T> (Set T) returns (bool);"),
            ("MSet.has", "function Set.has <T> (Set T, T) returns (bool);"),
            ("MSet.union", "function Set.union <T> (Set T, Set T) returns (Set T);"),
            ("MSet.intersection", "function Set.intersection <T> (Set T, Set T) returns (Set T);"),
            ("MSet.difference", "function Set.difference <T> (Set T, Set T) returns (Set T);"),
            ("int_interval", "function Set.int_interval (int, int) returns (Set int);"),
        ],
        [
            "axiom (forall <T> s: Set T :: {Set.count(s)}\n"
            "  Set.count(s) >= 0);",
            "axiom (forall <T> s: Set T :: {Set.is_empty(s)}\n"
            "  Set.is_empty(s) <==> Set.count(s) == 0);",
            "axiom (forall <T> s: Set T, x: T :: {Set.has(s, x)}\n"
            "  Set.has(s, x) <==> s[x]);",
            "axiom (forall <T> s: Set T, t: Set T, x: T :: {Set.has(Set.union(s, t), x)}\n"
            "  Set.has(Set.union(s, t), x) <==> Set.has(s, x) || Set.has(t, x));",
            "axiom (forall <T> s: Set T, t: Set T, x: T :: {Set.has(Set.intersection(s, t), x)}\n"
            "  Set.has(Set.intersection(s, t), x) <==> Set.has(s, x) && Set.has(t, x));",
            "axiom (forall <T> s: Set T, t: Set T, x: T :: {Set.has(Set.difference(s, t), x)}\n"
            "  Set.has(Set.difference(s, t), x) <==> Set.has(s, x) && !Set.has(t, x));",
            "axiom (forall l: int, u: int, i: int :: {Set.has(Set.int_interval(l, u), i)}\n"
            "  Set.has(Set.int_interval(l, u), i) <==> l <= i && i <= u);",
        ],
    ),
    "Bag": (
        "type Bag T = [T] int ;",
        [
            ("MBag.count", "function Bag.count <T> (Bag T) returns (int);"),
            ("MBag.is_empty", "function Bag.is_empty <T> (Bag T) returns (bool);"),
            ("MBag.domain", "function Bag.domain <T> (Bag T) returns (Set T);"),
            ("MBag.multiplicity", "function Bag.multiplicity <T> (Bag T, T) returns (int);"),
            ("MBag.extended", "function Bag.extended <T> (Bag T, T) returns (Bag T);"),
            ("MBag.removed", "function Bag.removed <T> (Bag T, T) returns (Bag T);"),
        ],
        [
            "axiom (forall <T> b: Bag T, x: T :: {Bag.multiplicity(b, x)}\n"
            "  Bag.multiplicity(b, x) == b[x] && b[x] >= 0);",
            "axiom (forall <T> b: Bag T :: {Bag.count(b)}\n"
            "  Bag.count(b) >= 0);",
            "axiom (forall <T> b: Bag T :: {Bag.is_empty(b)}\n"
            "  Bag.is_empty(b) <==> Bag.count(b) == 0);",
            "axiom (forall <T> b: Bag T, x: T :: {Set.has(Bag.domain(b), x)}\n"
            "  Set.has(Bag.domain(b), x) <==> Bag.multiplicity(b, x) > 0);",
            "axiom (forall <T> b: Bag T, x: T :: {Bag.extended(b, x)}\n"
            "  Bag.extended(b, x) == b[x := b[x] + 1]);",
            "axiom (forall <T> b: Bag T, x: T :: {Bag.removed(b, x)}\n"
            "  b[x] > 0 ==> Bag.removed(b, x) == b[x := b[x] - 1]);",
        ],
    ),
    "Map": (
        "type Map K V ;",
        [
            ("MMap.count", "function Map.count <K, V> (Map K V) returns (int);"),
            ("MMap.is_empty", "function Map.is_empty <K, V> (Map K V) returns (bool);"),
            ("MMap.domain", "function Map.domain <K, V> (Map K V) returns (Set K);"),
            ("MMap.range", "function Map.range <K, V> (Map K V) returns (Set V);"),
            ("MMap.has_key", "function Map.has_key <K, V> (Map K V, K) returns (bool);"),
            ("MMap.item", "function Map.item <K, V> (Map K V, K) returns (V);"),
            ("MMap.replaced_at", "function Map.replaced_at <K, V> (Map K V, K, V) returns (Map K V);"),
            ("MMap.updated", "function Map.updated <K, V> (Map K V, K, V) returns (Map K V);"),
            ("MMap.restricted", "function Map.restricted <K, V> (Map K V, Set K) returns (Map K V);"),
            ("MMap.is_constant", "function Map.is_constant <K, V> (Map K V, V) returns (bool);"),
        ],
        [
            "axiom (forall <K, V> m: Map K V :: {Map.count(m)}\n"
            "  Map.count(m) == Set.count(Map.domain(m)) && Map.count(m) >= 0);",
            "axiom (forall <K, V> m: Map K V :: {Map.is_empty(m)}\n"
            "  Map.is_empty(m) <==> Map.count(m) == 0);",
            "axiom (forall <K, V> m: Map K V, k: K :: {Map.has_key(m, k)}\n"
            "  Map.has_key(m, k) <==> Set.has(Map.domain(m), k));",
            "axiom (forall <K, V> m: Map K V, k: K :: {Set.has(Map.range(m), Map.item(m, k))}\n"
            "  Map.has_key(m, k) ==> Set.has(Map.range(m), Map.item(m, k)));",
            "axiom (forall <K, V> m: Map K V, k: K, v: V :: {Map.replaced_at(m, k, v)}\n"
            "  Map.has_key(m, k) ==> Map.replaced_at(m, k, v) == Map.updated(m, k, v));",
            "axiom (forall <K, V> m: Map K V, k: K, v: V :: {Map.domain(Map.updated(m, k, v))}\n"
            "  Map.domain(Map.updated(m, k, v)) == Set.union(Map.domain(m), Set.int_interval(0, 0)[0 := false][k := true]));",
            "axiom (forall <K, V> m: Map K V, k: K, v: V :: {Map.item(Map.updated(m, k, v), k)}\n"
            "  Map.item(Map.updated(m, k, v), k) == v);",
            "axiom (forall <K, V> m: Map K V, k: K, v: V, j: K :: {Map.item(Map.updated(m, k, v), j)}\n"
            "  j != k ==> Map.item(Map.updated(m, k, v), j) == Map.item(m, j));",
            "axiom (forall <K, V> m: Map K V, keys: Set K, k: K :: {Map.has_key(Map.restricted(m, keys), k)}\n"
            "  Map.has_key(Map.restricted(m, keys), k) <==> Map.has_key(m, k) && Set.has(keys, k));",
            "axiom (forall <K, V> m: Map K V, keys: Set K, k: K :: {Map.item(Map.restricted(m, keys), k)}\n"
            "  Map.has_key(Map.restricted(m, keys), k) ==> Map.item(Map.restricted(m, keys), k) == Map.item(m, k));",
            "axiom (forall <K, V> m: Map K V, v: V :: {Map.is_constant(m, v)}\n"
            "  Map.is_constant(m, v) <==> (forall k: K :: Map.has_key(m, k) ==> Map.item(m, k) == v));",
        ],
    ),
    "Relation": (
        "type Relation T = [T, T] bool ;",
        [
            ("MRel.count", "function Relation.count <T> (Relation T) returns (int);"),
            ("MRel.domain", "function Relation.domain <T> (Relation T) returns (Set T);"),
            ("MRel.has", "function Relation.has <T> (Relation T, T, T) returns (bool);"),
            ("MRel.image_of", "function Relation.image_of <T> (Relation T, T) returns (Set T);"),
        ],
        [
            "axiom (forall <T> r: Relation T :: {Relation.count(r)}\n"
            "  Relation.count(r) >= 0);",
            "axiom (forall <T> r: Relation T, x: T, y: T :: {Relation.has(r, x, y)}\n"
            "  Relation.has(r, x, y) <==> r[x, y]);",
            "axiom (forall <T> r: Relation T, x: T :: {Set.has(Relation.domain(r), x)}\n"
            "  Set.has(Relation.domain(r), x) <==> (exists y: T :: Relation.has(r, x, y)));",
            "axiom (forall <T> r: Relation T, x: T, y: T :: {Set.has(Relation.image_of(r, x), y)}\n"
            "  Set.has(Relation.image_of(r, x), y) <==> Relation.has(r, x, y));",
        ],
    ),
}


def export_theory(sort: str) -> str:
    """The Boogie theory for one model sort: type declaration, one function
    per operation, then the defining axioms."""
    if sort not in _SORTS:
        raise ExportError(f"unregistered sort {sort!r}")
    type_decl, functions, axioms = _SORTS[sort]
    lines = [f"// {sort} theory."]
    lines.append(type_decl)
    for op, decl in functions:
        lines.append(f"// {op} mapped to {decl.split()[1]}")
        lines.append(decl)
    lines.extend(axioms)
    return "\n".join(lines) + "\n"


def export_all_text() -> str:
    parts = [HEADER]
    for sort in sorted(_SORTS):
        parts.append(export_theory(sort))
    return "\n".join(parts)


def exported_operations():
    return sorted(op for _, fns, _ in _SORTS.values() for op, _ in fns)


def grammar_check(text: str) -> None:
    """Smoke-parse: balanced brackets, and every statement is a type,
    function, or axiom declaration ending with a semicolon."""
    depth = {"(": 0, "[": 0, "{": 0}
    closing = {")": "(", "]": "[", "}": "{"}
    for ch in text:
        if ch in depth:
            depth[ch] += 1
        elif ch in closing:
            depth[closing[ch]] -= 1
            if depth[closing[ch]] < 0:
                raise ExportError("unbalanced brackets")
    if any(v != 0 for v in depth.values()):
        raise ExportError("unbalanced brackets")
    body = "\n".join(l for l in text.splitlines() if not l.strip().startswith("//"))
    for stmt in body.split(";"):
        stmt = stmt.strip()
        if not stmt:
            continue
        if not stmt.startswith(("type ", "function ", "axiom ")) and stmt not in (")", "));"):
            # Multi-line statements were split on inner semicolons only if
            # malformed; any leftover must be a declaration keyword.
            raise ExportError(f"unexpected statement start: {stmt[:40]!r}")
