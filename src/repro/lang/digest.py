"""Structural fingerprints for AST subtrees.

The incremental caches key per-nest work by the *content* of a loop nest.
Rendering the nest back to C text and hashing the string works, but the
pretty-printer's recursive string assembly is a measurable slice of the
warm (all-cache-hit) path.  ``node_fingerprint`` computes an equivalent
content digest in a single iterative pre-order walk: each node contributes
a type tag, its scalar payload (names, operators, literal values, pragma
text), and its child count, which together form an unambiguous preorder
serialization of the tree.

Positions and ``loop_id`` are deliberately excluded — two structurally
identical nests must fingerprint identically regardless of where they sit
in the file, exactly as they would render to identical C text.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

from repro.lang.astnodes import (
    ArrayAccess,
    Assign,
    BinOp,
    Break,
    Call,
    Compound,
    Decl,
    ExprStmt,
    FloatNum,
    For,
    Id,
    If,
    IncDec,
    Node,
    Num,
    Pragma,
    Program,
    StrLit,
    Ternary,
    UnOp,
    While,
)

#: scalar payload per node type; child arity is appended generically, so a
#: type only needs an entry here when its fields are not fully determined
#: by its children (operators, names, literals, None-slot shapes)
_PAYLOAD = {
    Id: lambda n: n.name,
    Num: lambda n: str(n.value),
    FloatNum: lambda n: repr(n.value),
    StrLit: lambda n: n.value,
    ArrayAccess: lambda n: n.name,
    BinOp: lambda n: n.op,
    UnOp: lambda n: n.op,
    IncDec: lambda n: n.op + ("p" if n.prefix else "s"),
    Call: lambda n: n.name,
    Ternary: lambda n: "",
    Decl: lambda n: n.ctype + "|" + n.name + "|" + "".join("n" if d is None else "e" for d in n.dims),
    Assign: lambda n: n.op,
    ExprStmt: lambda n: "",
    Compound: lambda n: "",
    If: lambda n: "",
    # init/cond/step may each be absent; the flags disambiguate which of
    # the (up to four) children fills which slot
    For: lambda n: (
        ("i" if n.init is not None else "-")
        + ("c" if n.cond is not None else "-")
        + ("s" if n.step is not None else "-")
        + "|" + "|".join(n.pragmas)
    ),
    While: lambda n: "",
    Break: lambda n: "",
    Pragma: lambda n: n.text,
    Program: lambda n: "",
}


def node_fingerprint(node: Node) -> str:
    """Hex sha256 digest of the subtree's structure and content."""
    return _digest(node, None)


def fingerprint_and_loop_ids(node: Node) -> Tuple[str, Tuple[Optional[str], ...]]:
    """:func:`node_fingerprint` plus every ``For``'s ``loop_id`` in preorder
    (the order of :meth:`Node.walk`), from the same single walk."""
    loop_ids: List[Optional[str]] = []
    return _digest(node, loop_ids), tuple(loop_ids)


def _digest(node: Node, loop_ids: Optional[List[Optional[str]]]) -> str:
    parts = []
    append = parts.append
    payload = _PAYLOAD
    stack = [node]
    pop = stack.pop
    while stack:
        n = pop()
        t = type(n)
        if t is For and loop_ids is not None:
            loop_ids.append(n.loop_id)
        children = n.children()
        append(t.__name__)
        append(payload[t](n))
        append(str(len(children)))
        if children:
            stack.extend(reversed(children))
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
