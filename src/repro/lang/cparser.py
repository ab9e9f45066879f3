"""Recursive-descent parser for the C subset.

Produces :mod:`repro.lang.astnodes` trees.  The grammar intentionally covers
the loop/assignment/expression subset found in the paper's benchmarks; it is
not a general C parser (no pointers-to-functions, typedefs, casts beyond
``(int)``/``(double)``, or struct member chains — those constructs do not
appear in the inlined kernels the analysis consumes).
"""

from __future__ import annotations

from typing import List, Optional

from repro.lang.astnodes import (
    ArrayAccess,
    Assign,
    BinOp,
    Break,
    Call,
    Compound,
    Decl,
    Expression,
    ExprStmt,
    FloatNum,
    For,
    Id,
    If,
    IncDec,
    Num,
    Pragma,
    Program,
    Statement,
    StrLit,
    Ternary,
    UnOp,
    While,
    is_lvalue,
)
from repro.ir import perfstats
from repro.lang.lexer import Token, tokenize


class ParseError(Exception):
    """Raised on a syntax error, with source position when available."""

    def __init__(self, msg: str, tok: Optional[Token] = None):
        if tok is not None:
            msg = f"{msg} (got {tok.kind} {tok.text!r} at {tok.line}:{tok.col})"
        super().__init__(msg)
        self.token = tok


#: binary operator precedence, loosest to tightest
_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_TYPE_KWS = {"int", "long", "unsigned", "double", "float", "char", "void", "const", "static"}


class _Parser:
    def __init__(self, toks: List[Token]):
        self.toks = toks
        self.i = 0

    # -- token plumbing ---------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.toks[self.i]

    def peek(self, k: int = 1) -> Token:
        j = min(self.i + k, len(self.toks) - 1)
        return self.toks[j]

    # the helpers index ``toks`` directly instead of going through the
    # ``cur`` property: the extra descriptor call per token touch is
    # measurable on the warm (all-cache-hit) analysis path
    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.toks[self.i]
        return t.kind == kind and (text is None or t.text == text)

    def at_punct(self, text: str) -> bool:
        t = self.toks[self.i]
        return t.kind == "PUNCT" and t.text == text

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        t = self.toks[self.i]
        if t.kind == kind and (text is None or t.text == text):
            self.i += 1
            return t
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.accept(kind, text)
        if t is None:
            raise ParseError(f"expected {text or kind}", self.cur)
        return t

    # -- expressions -------------------------------------------------------

    def parse_expression(self) -> Expression:
        return self._ternary()

    def _ternary(self) -> Expression:
        cond = self._binary(1)
        if self.accept("PUNCT", "?"):
            then = self.parse_expression()
            self.expect("PUNCT", ":")
            els = self.parse_expression()
            return Ternary(cond, then, els, cond.pos)
        return cond

    def _binary(self, min_prec: int) -> Expression:
        lhs = self._unary()
        toks = self.toks
        while True:
            t = toks[self.i]
            if t.kind != "PUNCT":
                break
            prec = _PREC.get(t.text)
            if prec is None or prec < min_prec:
                break
            self.i += 1
            rhs = self._binary(prec + 1)
            lhs = BinOp(t.text, lhs, rhs, (t.line, t.col))
        return lhs

    def _unary(self) -> Expression:
        t = self.toks[self.i]
        if t.kind == "PUNCT":
            text = t.text
            if text in ("-", "+", "!", "~"):
                self.i += 1
                return UnOp(text, self._unary(), (t.line, t.col))
            if text in ("++", "--"):
                self.i += 1
                target = self._unary()
                if not is_lvalue(target):
                    raise ParseError("++/-- requires an lvalue", t)
                return IncDec(text, target, prefix=True, pos=(t.line, t.col))
            # cast like (int) or (double)
            if (
                text == "("
                and self.peek().kind == "KW"
                and self.peek().text in _TYPE_KWS
                and self.peek(2).kind == "PUNCT"
                and self.peek(2).text == ")"
            ):
                self.i += 3  # casts are dropped: the analysis is integer-typed
                return self._unary()
        return self._postfix()

    def _postfix(self) -> Expression:
        e = self._primary()
        toks = self.toks
        while True:
            t = toks[self.i]
            if t.kind != "PUNCT":
                break
            text = t.text
            if text == "[":
                indices = []
                while self.accept("PUNCT", "["):
                    indices.append(self.parse_expression())
                    self.expect("PUNCT", "]")
                if isinstance(e, Id):
                    e = ArrayAccess(e.name, indices, e.pos)
                elif isinstance(e, ArrayAccess):
                    e.indices.extend(indices)
                else:
                    raise ParseError("cannot subscript this expression", t)
            elif text in ("++", "--"):
                self.i += 1
                if not is_lvalue(e):
                    raise ParseError("++/-- requires an lvalue", t)
                e = IncDec(text, e, prefix=False, pos=(t.line, t.col))
            else:
                break
        return e

    def _primary(self) -> Expression:
        t = self.toks[self.i]
        if t.kind == "INT":
            self.i += 1
            return Num(int(t.text, 0), (t.line, t.col))
        if t.kind == "FLOAT":
            self.i += 1
            return FloatNum(float(t.text), (t.line, t.col))
        if t.kind == "STR":
            self.i += 1
            return StrLit(t.text, (t.line, t.col))
        if t.kind == "ID":
            name = t.text
            self.i += 1
            if self.at_punct("("):
                self.i += 1
                args = []
                if not self.at_punct(")"):
                    args.append(self.parse_expression())
                    while self.accept("PUNCT", ","):
                        args.append(self.parse_expression())
                self.expect("PUNCT", ")")
                return Call(name, args, (t.line, t.col))
            return Id(name, (t.line, t.col))
        if self.accept("PUNCT", "("):
            e = self.parse_expression()
            self.expect("PUNCT", ")")
            return e
        raise ParseError("expected expression", t)

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> Statement:
        t = self.toks[self.i]
        kind = t.kind
        if kind == "PRAGMA":
            self.i += 1
            return Pragma(t.text, (t.line, t.col))
        if kind == "PUNCT":
            if t.text == "{":
                return self._compound()
            if t.text == ";":
                self.i += 1
                return Compound([], (t.line, t.col))
        elif kind == "KW":
            text = t.text
            if text == "for":
                return self._for()
            if text == "while":
                return self._while()
            if text == "if":
                return self._if()
            if text == "break":
                self.i += 1
                self.expect("PUNCT", ";")
                return Break((t.line, t.col))
            if text == "continue":
                raise ParseError("continue is not supported by the analysis subset", t)
            if text in _TYPE_KWS:
                return self._decl()
        return self._simple_stmt(terminator=";")

    def _compound(self) -> Compound:
        t = self.expect("PUNCT", "{")
        stmts: List[Statement] = []
        toks = self.toks
        while True:
            nxt = toks[self.i]
            if nxt.kind == "PUNCT" and nxt.text == "}":
                break
            if nxt.kind == "EOF":
                raise ParseError("unterminated block", nxt)
            stmts.append(self.parse_statement())
        self.i += 1  # the '}'
        return Compound(stmts, (t.line, t.col))

    def _decl(self) -> Statement:
        t = self.cur
        ctype_parts = []
        while self.at("KW") and self.cur.text in _TYPE_KWS:
            ctype_parts.append(self.cur.text)
            self.i += 1
        ctype = " ".join(ctype_parts)
        while self.accept("PUNCT", "*"):
            ctype += "*"
        decls: List[Statement] = []
        while True:
            name_tok = self.expect("ID")
            dims: List[Optional[Expression]] = []
            while self.accept("PUNCT", "["):
                if self.at_punct("]"):
                    dims.append(None)
                else:
                    dims.append(self.parse_expression())
                self.expect("PUNCT", "]")
            init = None
            if self.accept("PUNCT", "="):
                init = self.parse_expression()
            decls.append(Decl(ctype, name_tok.text, dims, init, (name_tok.line, name_tok.col)))
            if not self.accept("PUNCT", ","):
                break
        self.expect("PUNCT", ";")
        if len(decls) == 1:
            return decls[0]
        return Compound(decls, (t.line, t.col))

    def _simple_stmt(self, terminator: Optional[str]) -> Statement:
        """An assignment or expression statement (no trailing ';' if None)."""
        t = self.toks[self.i]
        e = self.parse_expression()
        nxt = self.toks[self.i]
        if nxt.kind == "PUNCT" and nxt.text in Assign.OPS:
            op = nxt.text
            self.i += 1
            rhs = self.parse_expression()
            if not is_lvalue(e):
                raise ParseError("assignment target must be an lvalue", t)
            stmt: Statement = Assign(e, op, rhs, (t.line, t.col))
        else:
            stmt = ExprStmt(e, (t.line, t.col))
        if terminator:
            self.expect("PUNCT", terminator)
        return stmt

    def _for(self) -> For:
        t = self.expect("KW", "for")
        self.expect("PUNCT", "(")
        init: Optional[Statement] = None
        if not self.at_punct(";"):
            if self.at("KW") and self.cur.text in _TYPE_KWS:
                init = self._decl()  # consumes ';'
            else:
                init = self._simple_stmt(terminator=";")
        else:
            self.expect("PUNCT", ";")
        cond = None
        if not self.at_punct(";"):
            cond = self.parse_expression()
        self.expect("PUNCT", ";")
        step: Optional[Statement] = None
        if not self.at_punct(")"):
            step = self._simple_stmt(terminator=None)
        self.expect("PUNCT", ")")
        body = self.parse_statement()
        return For(init, cond, step, body, (t.line, t.col))

    def _while(self) -> While:
        t = self.expect("KW", "while")
        self.expect("PUNCT", "(")
        cond = self.parse_expression()
        self.expect("PUNCT", ")")
        body = self.parse_statement()
        return While(cond, body, (t.line, t.col))

    def _if(self) -> If:
        t = self.expect("KW", "if")
        self.expect("PUNCT", "(")
        cond = self.parse_expression()
        self.expect("PUNCT", ")")
        then = self.parse_statement()
        els = None
        if self.accept("KW", "else"):
            els = self.parse_statement()
        return If(cond, then, els, (t.line, t.col))

    def parse_program(self) -> Program:
        stmts: List[Statement] = []
        while not self.at("EOF"):
            stmts.append(self.parse_statement())
        return Program(stmts)


#: incremental parse memo: a bucket key (the statement's first tokens) maps
#: to recently parsed top-level statements, each stored as its exact token
#: span plus a pristine AST.  A hit must match the span token-for-token,
#: so the bucket key is purely a candidate selector, never a correctness
#: boundary.  Entry ASTs carry the positions of their *first* parse; the
#: cache is therefore opt-in (``cache=True``) and only the incremental
#: analysis path — which never reports positions from untouched nests —
#: enables it.
_STMT_CACHE = perfstats.BoundedCache()

perfstats.register_cache("parse", _STMT_CACHE)

#: tokens hashed into the candidate-selector bucket key
_BUCKET_TOKENS = 12

#: distinct statements retained per bucket (identical leading tokens)
_BUCKET_CANDIDATES = 8


def _bucket_key(toks: List[Token], i: int) -> tuple:
    parts = []
    for t in toks[i : i + _BUCKET_TOKENS]:
        parts.append(t.kind)
        parts.append(t.text)
    return tuple(parts)


def _span_matches(toks: List[Token], i: int, span: tuple) -> bool:
    if i + len(span) > len(toks):
        return False
    k = i
    for kind, text in span:
        t = toks[k]
        if t.kind != kind or t.text != text:
            return False
        k += 1
    return True


def _parse_program_cached(toks: List[Token]) -> Program:
    stats = perfstats.STATS
    p = _Parser(toks)
    stmts: List[Statement] = []
    while toks[p.i].kind != "EOF":
        i = p.i
        key = _bucket_key(toks, i)
        candidates = _STMT_CACHE.get(key)
        hit = None
        if candidates:
            for span, ast in candidates:
                if _span_matches(toks, i, span):
                    hit = (span, ast)
                    break
        if hit is not None:
            stats.parse_hits += 1
            stmts.append(hit[1].clone())
            p.i = i + len(hit[0])
            continue
        stats.parse_misses += 1
        s = p.parse_statement()
        span = tuple((t.kind, t.text) for t in toks[i : p.i])
        entry = (span, s.clone())
        if candidates:
            candidates = (candidates + [entry])[-_BUCKET_CANDIDATES:]
        else:
            candidates = [entry]
        _STMT_CACHE[key] = candidates
        stmts.append(s)
    return Program(stmts)


def parse_program(src: str, cache: bool = False) -> Program:
    """Parse a translation unit (statement list) from C source text.

    With ``cache=True``, top-level statements whose token spans were
    parsed before are served as clones from the statement memo — editing
    one nest of a large program re-parses only that nest.  Cached
    subtrees keep the source positions of their first parse, so callers
    that report exact positions should keep the default.

    Pathologically deep nesting (parenthesization, block nesting) is
    reported as a :class:`ParseError` rather than crashing the host
    interpreter with a ``RecursionError``.
    """
    try:
        toks = tokenize(src)
        if cache:
            return _parse_program_cached(toks)
        return _Parser(toks).parse_program()
    except RecursionError:
        raise ParseError("program too deeply nested") from None


def parse_stmt(src: str) -> Statement:
    """Parse a single statement."""
    try:
        p = _Parser(tokenize(src))
        s = p.parse_statement()
        p.expect("EOF")
        return s
    except RecursionError:
        raise ParseError("program too deeply nested") from None


def parse_expr(src: str) -> Expression:
    """Parse a single expression."""
    try:
        p = _Parser(tokenize(src))
        e = p.parse_expression()
        p.expect("EOF")
        return e
    except RecursionError:
        raise ParseError("program too deeply nested") from None
