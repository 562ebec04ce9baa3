"""Concrete syntax: lexer and parser.  ``str`` on a type or term prints
it back (``kernel``).

Type sugar is pure abbreviation, so the parser expands it as it reads it:
``!B``, products, sums, numerals, ``exists``, ``mu`` and ``nu`` go through
the ``encodings`` encoders, bottom-up, and a name declared by ``type N =
ty`` is replaced by its expansion.  Every type leaves the parser in core
form.  A value-sorted binder (``forall X.``, ``exists X.``, ``mu X.``,
``nu X.``, ``Fun X =>``) hides an abbreviation named ``X`` in its body; a
``^`` binder does not.  Only the type-directed term sugar ``bang t`` and
``let x <= t in u`` stays as ``encodings.BangTerm`` and ``LetTerm`` nodes,
for ``encodings.elaborate_term``.

Grammar sketch (``--`` starts a line comment):

    ty    ::= forall X. ty | forall ^X. ty | exists X. ty | mu X. ty | nu X. ty
            | arrow
    arrow ::= sum ("->" arrow | "-o" arrow)?          -- right associative
    sum   ::= prod (("+" | "(+)") prod)*              -- left associative
    prod  ::= cop (("*" | "*o") cop)*
    cop   ::= atomty ("." cop)?                       -- copower, right assoc
    atomty::= ID | ^ID | NUM | "!" atomty | "(" ty ")"

    term  ::= fun x:ty => term | lfun x:ty => term | Fun X => term
            | Fun ^X => term | let x <= term in term | appterm
    appterm ::= atom (atom | "@" "[" ty "]")*
    atom  ::= ID | ID^ID | bang atom | "(" term ")"

Declarations: ``type N = ty`` and ``def n : ty = term``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from . import encodings as enc
from .encodings import BangTerm, LetTerm
from .kernel import (
    CSORT,
    KEYWORDS,
    VSORT,
    App,
    Arrow,
    Forall,
    Kind,
    KindError,
    Lam,
    LinLam,
    Lolli,
    SourceSpan,
    TermExpr,
    TyApp,
    TyLam,
    TyVar,
    TypeExpr,
    Var,
    classify_type,
)


class SyntaxErr(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: tuple[str, ...] = ()):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span
        self.expected = expected


# ---------------------------------------------------------------------------
# lexer

MAX_PARENS = 100  # a fixed bound: the parser would reach Python's recursion limit, at no fixed token, near 140
MAX_NUMERAL = 32  # printing the encoding of 64, 256 nodes deep, takes over 900 of Python's 1000 frames
MAX_TYPE_DEPTH = 128  # nodes on a type's longest path: numeral 32 is 127 deep, and each ! adds 3

_SYMBOLS = ["(+)", "->", "-o", "<=", "=>", "*o", "*", "+", ".", ":", "=", "@", "[", "]", "(", ")", "^", "!"]


@dataclass(frozen=True)
class Token:
    kind: str  # ID, NUM, KW, SYM, EOF
    text: str
    line: int
    col: int

    def span(self, file: str) -> SourceSpan:
        return SourceSpan(file, (self.line, self.col), (self.line, self.col + len(self.text)))


def tokenize(text: str, file: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KW" if word in KEYWORDS else "ID"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():  # what int() reads: isdigit() also holds for "²"
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            # "1o"/"0o" are the computation-type unit/zero tokens
            big = word.isdecimal() and (len(word.lstrip("0")) > 3 or int(word) > MAX_NUMERAL)
            if word in ("1o", "0o") or word.isdecimal() and not big:
                toks.append(Token("NUM", word, line, col))
                col += j - i
                i = j
                continue
            raise SyntaxErr(
                f"numeral {word} is above {MAX_NUMERAL}" if big else f"bad numeric token {word!r}",
                SourceSpan(file, (line, col), (line, col + len(word))),
            )
        matched = None
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                # "*o" and "-o" must not swallow the start of an identifier
                if sym in ("*o", "-o"):
                    k = i + len(sym)
                    if k < n and (text[k].isalnum() or text[k] == "_"):
                        continue
                matched = sym
                break
        if matched is None:
            raise SyntaxErr(f"unexpected character {ch!r}", SourceSpan(file, (line, col), (line, col + 1)))
        toks.append(Token("SYM", matched, line, col))
        col += len(matched)
        i += len(matched)
    toks.append(Token("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, toks: list[Token], file: str):
        self.toks = toks
        self.pos = 0
        self.file = file
        self.abbrevs: dict[str, TypeExpr] = {}  # type abbreviations in scope
        self.parens = 0  # parentheses open at the current token
        self.depths: dict[TypeExpr, int] = {}  # the depth of each type built, by node

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def fail(self, msg: str, expected: tuple[str, ...] = ()) -> SyntaxErr:
        return SyntaxErr(msg, self.peek().span(self.file), expected)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise self.fail(f"expected {want!r}, found {t.text or 'end of input'!r}", (want,))
        return self.next()

    def at_sym(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "SYM" and t.text == text

    def at_kw(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "KW" and t.text == text

    def binder(self) -> tuple[Token, str]:
        """A bound name, ``X`` or ``^X``: its token and its sort, ``CSORT`` with the ``^``."""
        sort = CSORT if self.at_sym("^") else VSORT
        if sort == CSORT:
            self.next()
        return self.expect("ID"), sort

    def scoped(self, name: str, sort: str, parse: Callable):
        """``parse()`` under a binder: a value-sorted one hides the abbreviation it names."""
        outer = self.abbrevs
        if sort == VSORT and name in outer:
            self.abbrevs = {k: v for k, v in outer.items() if k != name}
        result = parse()
        self.abbrevs = outer
        return result

    def kind_of(self, ty: TypeExpr, tok: Token) -> Kind:
        """The kind of ``ty``; a type that has none is a syntax error at ``tok``."""
        try:
            return classify_type(ty)
        except KindError:
            raise SyntaxErr(f"ill-kinded type {ty}", tok.span(self.file)) from None

    def computation(self, tok: Token, *operands: tuple[str, TypeExpr]) -> None:
        """Each ``(role, operand)`` of the operator at ``tok`` must be a
        computation type; one that is not is a syntax error at ``tok``."""
        for role, operand in operands:
            if self.kind_of(operand, tok) is not Kind.COMPUTATION:
                raise SyntaxErr(
                    f"ill-kinded {tok.text}: {tok.text} {role} is not a computation type: {operand}",
                    tok.span(self.file),
                )

    def bounded(self, ty: TypeExpr) -> TypeExpr:
        """``ty``, just built; deeper than ``MAX_TYPE_DEPTH`` it is a syntax error at the next token."""
        if self.depth(ty) > MAX_TYPE_DEPTH:
            raise self.fail("input nests too deeply")
        return ty

    def depth(self, ty: TypeExpr) -> int:
        d = self.depths.get(ty)
        if d is None:
            kids = (ty.dom, ty.cod) if isinstance(ty, (Arrow, Lolli)) else (ty.body,) if isinstance(ty, Forall) else ()
            d = self.depths[ty] = 1 + max(map(self.depth, kids), default=0)
        return d

    def whole(self, parse: Callable):
        """``parse()``, which must read every token.  Input nested past
        Python's recursion limit is a syntax error at the token reached."""
        try:
            result = parse()
        except RecursionError:
            raise self.fail("input nests too deeply") from None
        self.expect("EOF")
        return result

    def parenthesized(self, parse: Callable):
        """``( parse() )``; parentheses nested past ``MAX_PARENS`` are a syntax error at the next one."""
        if self.parens == MAX_PARENS:
            raise self.fail("input nests too deeply")
        self.next()
        self.parens += 1
        inner = parse()
        self.parens -= 1
        self.expect("SYM", ")")
        return inner

    def decls(self) -> list[Decl]:
        """``type N = ty`` and ``def n : ty = term`` declarations, up to the end."""
        decls: list[Decl] = []
        while self.peek().kind != "EOF":
            start = self.peek().span(self.file)
            if self.at_kw("type"):
                self.next()
                name = self.expect("ID").text
                self.expect("SYM", "=")
                ty = self.abbrevs[name] = self.type_()
                decls.append(TypeDecl(name, ty, start))
            elif self.at_kw("def"):
                self.next()
                name = self.expect("ID").text
                self.expect("SYM", ":")
                ty = self.type_()
                self.expect("SYM", "=")
                decls.append(TermDecl(name, ty, self.term(), start))
            else:
                raise self.fail("expected a declaration", ("type", "def"))
        return decls

    # -- types ---------------------------------------------------------

    def type_(self) -> TypeExpr:
        if self.at_kw("forall") or self.at_kw("exists") or self.at_kw("mu") or self.at_kw("nu"):
            kw = self.next()
            name, sort = self.binder()
            self.expect("SYM", ".")
            body = self.scoped(name.text, sort, self.type_)
            if kw.text == "forall":
                return self.bounded(Forall(sort, name.text, body))
            if kw.text == "exists":  # the body's kind is the result's sort
                result = CSORT if self.kind_of(body, kw) is Kind.COMPUTATION else VSORT
                return self.bounded(enc.exists_type(result, sort, name.text, body))
            if sort == CSORT:  # a ^ binder makes mu and nu computation types
                self.computation(kw, ("body", body))
            try:
                return self.bounded((enc.mu_type if kw.text == "mu" else enc.nu_type)(sort, name.text, body))
            except enc.PositivityError as exc:
                raise SyntaxErr(str(exc), name.span(self.file)) from None
        return self.arrow_type()

    def arrow_type(self) -> TypeExpr:
        left = self.sum_type()
        if self.at_sym("->"):
            self.next()
            return self.bounded(Arrow(left, self.type_()))
        if self.at_sym("-o"):
            tok = self.next()
            right = self.type_()
            self.computation(tok, ("domain", left), ("codomain", right))
            return self.bounded(Lolli(left, right))
        return left

    def sum_type(self) -> TypeExpr:
        left = self.prod_type()
        while self.at_sym("+") or self.at_sym("(+)"):
            tok = self.next()
            right = self.prod_type()
            if tok.text == "(+)":
                self.computation(tok, ("left operand", left), ("right operand", right))
            left = self.bounded(enc.sum_type(VSORT if tok.text == "+" else CSORT, left, right))
        return left

    def prod_type(self) -> TypeExpr:
        left = self.copower_type()
        while self.at_sym("*") or self.at_sym("*o"):
            tok = self.next()
            right = self.copower_type()
            if tok.text == "*":
                left = self.bounded(enc.pair_type(VSORT, left, right))
            else:
                self.computation(tok, ("left operand", left), ("right operand", right))
                left = self.bounded(enc.prod_comp_type(left, right))
        return left

    def copower_type(self) -> TypeExpr:
        left = self.atom_type()
        if self.at_sym("."):
            tok = self.next()
            right = self.copower_type()
            self.computation(tok, ("right operand", right))
            return self.bounded(enc.pair_type(CSORT, left, right))
        return left

    def atom_type(self) -> TypeExpr:
        t = self.peek()
        if t.kind == "SYM" and t.text == "^":
            self.next()
            name = self.expect("ID").text
            return TyVar(CSORT, name)
        if t.kind == "SYM" and t.text == "!":
            self.next()
            return self.bounded(enc.encode_bang(self.atom_type()))
        if t.kind == "SYM" and t.text == "(":
            return self.parenthesized(self.type_)
        if t.kind == "NUM":
            self.next()
            if t.text == "1o":
                return enc.unit_comp_type()
            if t.text == "0o":
                return enc.zero_type(CSORT)
            return enc.encode_num(int(t.text))
        if t.kind == "ID":
            self.next()
            return self.abbrevs.get(t.text) or TyVar(VSORT, t.text)
        raise self.fail("expected a type", ("ID", "^", "(", "!", "forall"))

    # -- terms ---------------------------------------------------------

    def term(self) -> TermExpr:
        if self.at_kw("fun") or self.at_kw("lfun"):
            kw = self.next().text
            name = self.expect("ID").text
            self.expect("SYM", ":")
            ann = self.type_()
            self.expect("SYM", "=>")
            body = self.term()
            return Lam(name, ann, body) if kw == "fun" else LinLam(name, ann, body)
        if self.at_kw("Fun"):
            self.next()
            name, sort = self.binder()
            self.expect("SYM", "=>")
            body = self.scoped(name.text, sort, self.term)
            return TyLam(sort, name.text, body)
        if self.at_kw("let"):
            self.next()
            name = self.expect("ID").text
            self.expect("SYM", "<=")
            bound = self.term()
            self.expect("KW", "in")
            body = self.term()
            return LetTerm(name, bound, body)
        return self.app_term()

    def app_term(self) -> TermExpr:
        head = self.atom_term()
        while True:
            if self.at_sym("@"):
                tok = self.next()
                self.expect("SYM", "[")
                ty = self.type_()
                self.expect("SYM", "]")
                # the argument's kind picks the application's sort
                sort = CSORT if self.kind_of(ty, tok) is Kind.COMPUTATION else VSORT
                head = TyApp(sort, head, ty)
                continue
            t = self.peek()
            if t.kind == "ID" or (t.kind == "SYM" and t.text == "(") or t.kind == "KW" and t.text == "bang":
                head = App(head, self.atom_term())
                continue
            return head

    def atom_term(self) -> TermExpr:
        t = self.peek()
        if t.kind == "KW" and t.text == "bang":
            self.next()
            return BangTerm(self.atom_term())
        if t.kind == "SYM" and t.text == "(":
            return self.parenthesized(self.term)
        if t.kind == "ID":
            self.next()
            # compound constant names like raise^e / handle^e
            if self.at_sym("^") and self.peek(1).kind == "ID":
                self.next()
                suffix = self.expect("ID").text
                return Var(f"{t.text}^{suffix}")
            return Var(t.text)
        raise self.fail("expected a term", ("ID", "(", "fun", "lfun", "Fun", "bang", "let"))


def parse_type(text: str, file: str = "<input>") -> TypeExpr:
    p = _Parser(tokenize(text, file), file)
    return p.whole(p.type_)


def parse_term(text: str, file: str = "<input>") -> TermExpr:
    p = _Parser(tokenize(text, file), file)
    return p.whole(p.term)


# ---------------------------------------------------------------------------
# declarations


@dataclass(frozen=True)
class TypeDecl:
    name: str
    ty: TypeExpr
    span: SourceSpan


@dataclass(frozen=True)
class TermDecl:
    name: str
    ty: TypeExpr
    term: TermExpr
    span: SourceSpan


Decl = Union[TypeDecl, TermDecl]


def parse_file(text: str, file: str = "<input>") -> list[Decl]:
    p = _Parser(tokenize(text, file), file)
    return p.whole(p.decls)
