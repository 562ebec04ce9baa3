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
    App,
    Arrow,
    CVar,
    ForallC,
    ForallV,
    Kind,
    KindError,
    Lam,
    LinLam,
    Lolli,
    SourceSpan,
    TermExpr,
    TyAppC,
    TyAppV,
    TyLamC,
    TyLamV,
    TypeExpr,
    VVar,
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

KEYWORDS = {"forall", "exists", "mu", "nu", "fun", "lfun", "Fun", "bang", "let", "in", "type", "def"}

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
        if ch.isdigit():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            # "1o"/"0o" are the computation-type unit/zero tokens
            if word in ("1o", "0o") or word.isdigit():
                toks.append(Token("NUM", word, line, col))
                col += j - i
                i = j
                continue
            raise SyntaxErr(
                f"bad numeric token {word!r}",
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

    def binder(self) -> tuple[Token, bool]:
        """A bound name, ``X`` or ``^X``: its token and whether it has the ``^``."""
        csort = self.at_sym("^")
        if csort:
            self.next()
        return self.expect("ID"), csort

    def scoped(self, name: str, csort: bool, parse: Callable):
        """``parse()`` under a binder: a value-sorted one hides the abbreviation it names."""
        outer = self.abbrevs
        if not csort and name in outer:
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

    # -- types ---------------------------------------------------------

    def type_(self) -> TypeExpr:
        if self.at_kw("forall") or self.at_kw("exists") or self.at_kw("mu") or self.at_kw("nu"):
            kw = self.next()
            name, csort = self.binder()
            self.expect("SYM", ".")
            body = self.scoped(name.text, csort, self.type_)
            if kw.text == "forall":
                return ForallC(name.text, body) if csort else ForallV(name.text, body)
            if kw.text == "exists":
                # the encoder's name: the binder's sort, then C for a computation body
                comp = self.kind_of(body, kw) is Kind.COMPUTATION
                ctor = ("ExistsC" if csort else "ExistsV") + ("C" if comp else "")
            else:  # a ^ binder makes mu and nu computation types
                comp = csort
                if comp:
                    self.computation(kw, ("body", body))
                ctor = kw.text.capitalize() + ("C" if csort else "")
            encode = enc.encode_comp_type if comp else enc.encode_value_type
            try:
                return encode(ctor, (name.text, body))
            except enc.PositivityError:
                caret = "^" if csort else ""
                raise SyntaxErr(
                    f"{caret}{name.text} occurs negatively in {body}",
                    name.span(self.file),
                ) from None
        return self.arrow_type()

    def arrow_type(self) -> TypeExpr:
        left = self.sum_type()
        if self.at_sym("->"):
            self.next()
            return Arrow(left, self.type_())
        if self.at_sym("-o"):
            tok = self.next()
            right = self.type_()
            self.computation(tok, ("domain", left), ("codomain", right))
            return Lolli(left, right)
        return left

    def sum_type(self) -> TypeExpr:
        left = self.prod_type()
        while self.at_sym("+") or self.at_sym("(+)"):
            tok = self.next()
            right = self.prod_type()
            if tok.text == "+":
                left = enc.encode_value_type("Sum", (left, right))
            else:
                self.computation(tok, ("left operand", left), ("right operand", right))
                left = enc.encode_comp_type("Oplus", (left, right))
        return left

    def prod_type(self) -> TypeExpr:
        left = self.copower_type()
        while self.at_sym("*") or self.at_sym("*o"):
            tok = self.next()
            right = self.copower_type()
            if tok.text == "*":
                left = enc.encode_value_type("Prod", (left, right))
            else:
                self.computation(tok, ("left operand", left), ("right operand", right))
                left = enc.encode_comp_type("ProdC", (left, right))
        return left

    def copower_type(self) -> TypeExpr:
        left = self.atom_type()
        if self.at_sym("."):
            tok = self.next()
            right = self.copower_type()
            self.computation(tok, ("right operand", right))
            return enc.encode_comp_type("Copower", (left, right))
        return left

    def atom_type(self) -> TypeExpr:
        t = self.peek()
        if t.kind == "SYM" and t.text == "^":
            self.next()
            name = self.expect("ID").text
            return CVar(name)
        if t.kind == "SYM" and t.text == "!":
            self.next()
            return enc.encode_bang(self.atom_type())
        if t.kind == "SYM" and t.text == "(":
            self.next()
            inner = self.type_()
            self.expect("SYM", ")")
            return inner
        if t.kind == "NUM":
            self.next()
            if t.text == "1o":
                return enc.encode_comp_type("UnitC")
            if t.text == "0o":
                return enc.encode_comp_type("ZeroC")
            return enc.encode_num(int(t.text))
        if t.kind == "ID":
            self.next()
            return self.abbrevs.get(t.text) or VVar(t.text)
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
            name, csort = self.binder()
            self.expect("SYM", "=>")
            body = self.scoped(name.text, csort, self.term)
            return TyLamC(name.text, body) if csort else TyLamV(name.text, body)
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
                # the argument's kind picks the application node
                node = TyAppC if self.kind_of(ty, tok) is Kind.COMPUTATION else TyAppV
                head = node(head, ty)
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
            self.next()
            inner = self.term()
            self.expect("SYM", ")")
            return inner
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
    ty = p.type_()
    p.expect("EOF")
    return ty


def parse_term(text: str, file: str = "<input>") -> TermExpr:
    p = _Parser(tokenize(text, file), file)
    t = p.term()
    p.expect("EOF")
    return t


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
    decls: list[Decl] = []
    while p.peek().kind != "EOF":
        start = p.peek()
        if p.at_kw("type"):
            p.next()
            name = p.expect("ID").text
            p.expect("SYM", "=")
            ty = p.abbrevs[name] = p.type_()
            decls.append(TypeDecl(name, ty, start.span(file)))
        elif p.at_kw("def"):
            p.next()
            name = p.expect("ID").text
            p.expect("SYM", ":")
            ty = p.type_()
            p.expect("SYM", "=")
            tm = p.term()
            decls.append(TermDecl(name, ty, tm, start.span(file)))
        else:
            raise p.fail("expected a declaration", ("type", "def"))
    return decls
