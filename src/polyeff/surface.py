"""Concrete syntax: lexer, parser and pretty-printer.

The parser produces kernel trees extended with sugar nodes (``!B``,
products, sums, numerals, ``bang t``, ``let x <= t in u``); the
encodings module expands sugar into the core grammar.

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
from typing import Optional, Union

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
    TermExpr,
    TyAppC,
    TyAppV,
    TyLamC,
    TyLamV,
    TypeExpr,
    VVar,
    Var,
    classify_type,
    free_term_vars,
)


@dataclass(frozen=True)
class SourceSpan:
    file: str
    start: tuple[int, int]
    end: tuple[int, int]

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self.start}..{self.end}")

    def __str__(self) -> str:
        (l1, c1), (l2, c2) = self.start, self.end
        return f"{self.file}:{l1}:{c1}-{l2}:{c2}"


def synthetic_span() -> SourceSpan:
    return SourceSpan("<input>", (0, 0), (0, 0))


class SyntaxErr(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: tuple[str, ...] = ()):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span
        self.expected = expected


# ---------------------------------------------------------------------------
# sugar nodes (type level)


@dataclass(frozen=True)
class UnitT(TypeExpr):
    def classify(self) -> Kind:
        return Kind.VALUE


@dataclass(frozen=True)
class ZeroT(TypeExpr):
    def classify(self) -> Kind:
        return Kind.VALUE


@dataclass(frozen=True)
class NumT(TypeExpr):
    """Numeral ``n``: the n-fold sum 1 + ... + 1."""

    n: int

    def classify(self) -> Kind:
        return Kind.VALUE


@dataclass(frozen=True)
class ProdT(TypeExpr):
    left: TypeExpr
    right: TypeExpr

    def classify(self) -> Kind:
        return Kind.VALUE


@dataclass(frozen=True)
class SumT(TypeExpr):
    left: TypeExpr
    right: TypeExpr

    def classify(self) -> Kind:
        return Kind.VALUE


@dataclass(frozen=True)
class Bang(TypeExpr):
    arg: TypeExpr

    def classify(self) -> Kind:
        return Kind.COMPUTATION


@dataclass(frozen=True)
class UnitCT(TypeExpr):
    def classify(self) -> Kind:
        return Kind.COMPUTATION


@dataclass(frozen=True)
class ZeroCT(TypeExpr):
    def classify(self) -> Kind:
        return Kind.COMPUTATION


@dataclass(frozen=True)
class ProdCT(TypeExpr):
    left: TypeExpr
    right: TypeExpr

    def classify(self) -> Kind:
        return Kind.COMPUTATION


@dataclass(frozen=True)
class OplusT(TypeExpr):
    left: TypeExpr
    right: TypeExpr

    def classify(self) -> Kind:
        return Kind.COMPUTATION


@dataclass(frozen=True)
class CopowerT(TypeExpr):
    weight: TypeExpr
    arg: TypeExpr

    def classify(self) -> Kind:
        return Kind.COMPUTATION


@dataclass(frozen=True)
class BinderT(TypeExpr):
    """exists/mu/nu binder sugar; ``csort`` marks a ^-sorted binder."""

    ctor: str  # "exists" | "mu" | "nu"
    binder: str
    csort: bool
    body: TypeExpr

    def classify(self) -> Kind:
        if self.ctor == "exists":
            return Kind.VALUE
        return classify_type(self.body)


# sugar nodes (term level)


@dataclass(frozen=True)
class BangTerm(TermExpr):
    arg: TermExpr

    def free_vars(self) -> frozenset[str]:
        return free_term_vars(self.arg)


@dataclass(frozen=True)
class LetTerm(TermExpr):
    var: str
    bound: TermExpr
    body: TermExpr

    def free_vars(self) -> frozenset[str]:
        return free_term_vars(self.bound) | (free_term_vars(self.body) - {self.var})


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

    # -- types ---------------------------------------------------------

    def type_(self) -> TypeExpr:
        if self.at_kw("forall") or self.at_kw("exists") or self.at_kw("mu") or self.at_kw("nu"):
            kw = self.next().text
            csort = False
            if self.at_sym("^"):
                self.next()
                csort = True
            name = self.expect("ID").text
            self.expect("SYM", ".")
            body = self.type_()
            if kw == "forall":
                return ForallC(name, body) if csort else ForallV(name, body)
            return BinderT(kw, name, csort, body)
        return self.arrow_type()

    def arrow_type(self) -> TypeExpr:
        left = self.sum_type()
        if self.at_sym("->"):
            self.next()
            return Arrow(left, self.type_())
        if self.at_sym("-o"):
            tok = self.peek()
            self.next()
            right = self.type_()
            ty = Lolli(left, right)
            try:
                classify_type(ty)
            except KindError as exc:
                raise SyntaxErr(f"ill-kinded -o: {exc}", tok.span(self.file))
            return ty
        return left

    def sum_type(self) -> TypeExpr:
        left = self.prod_type()
        while self.at_sym("+") or self.at_sym("(+)"):
            op = self.next().text
            right = self.prod_type()
            left = SumT(left, right) if op == "+" else OplusT(left, right)
        return left

    def prod_type(self) -> TypeExpr:
        left = self.copower_type()
        while self.at_sym("*") or self.at_sym("*o"):
            op = self.next().text
            right = self.copower_type()
            left = ProdT(left, right) if op == "*" else ProdCT(left, right)
        return left

    def copower_type(self) -> TypeExpr:
        left = self.atom_type()
        if self.at_sym("."):
            self.next()
            return CopowerT(left, self.copower_type())
        return left

    def atom_type(self) -> TypeExpr:
        t = self.peek()
        if t.kind == "SYM" and t.text == "^":
            self.next()
            name = self.expect("ID").text
            return CVar(name)
        if t.kind == "SYM" and t.text == "!":
            self.next()
            return Bang(self.atom_type())
        if t.kind == "SYM" and t.text == "(":
            self.next()
            inner = self.type_()
            self.expect("SYM", ")")
            return inner
        if t.kind == "NUM":
            self.next()
            if t.text == "1o":
                return UnitCT()
            if t.text == "0o":
                return ZeroCT()
            n = int(t.text)
            if n == 0:
                return ZeroT()
            if n == 1:
                return UnitT()
            return NumT(n)
        if t.kind == "ID":
            self.next()
            return VVar(t.text)
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
            csort = False
            if self.at_sym("^"):
                self.next()
                csort = True
            name = self.expect("ID").text
            self.expect("SYM", "=>")
            body = self.term()
            return TyLamC(name, body) if csort else TyLamV(name, body)
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
                self.next()
                self.expect("SYM", "[")
                ty = self.type_()
                self.expect("SYM", "]")
                # classification routes to the matching application node;
                # sugar types classify through their hook
                if classify_type(ty) is Kind.COMPUTATION:
                    head = TyAppC(head, ty)
                else:
                    head = TyAppV(head, ty)
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
            ty = p.type_()
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


# ---------------------------------------------------------------------------
# pretty-printer

_TY_ATOM, _TY_COP, _TY_PROD, _TY_SUM, _TY_ARROW, _TY_QUANT = range(6)


def _ty_prec(t: TypeExpr) -> int:
    if isinstance(t, (VVar, CVar, UnitT, ZeroT, NumT, UnitCT, ZeroCT, Bang)):
        return _TY_ATOM
    if isinstance(t, CopowerT):
        return _TY_COP
    if isinstance(t, (ProdT, ProdCT)):
        return _TY_PROD
    if isinstance(t, (SumT, OplusT)):
        return _TY_SUM
    if isinstance(t, (Arrow, Lolli)):
        return _TY_ARROW
    return _TY_QUANT


def _pt(t: TypeExpr, limit: int) -> str:
    prec = _ty_prec(t)
    s = _pt_raw(t)
    return f"({s})" if prec > limit else s


def _pt_raw(t: TypeExpr) -> str:
    if isinstance(t, VVar):
        return t.name
    if isinstance(t, CVar):
        return f"^{t.name}"
    if isinstance(t, UnitT):
        return "1"
    if isinstance(t, ZeroT):
        return "0"
    if isinstance(t, NumT):
        return str(t.n)
    if isinstance(t, UnitCT):
        return "1o"
    if isinstance(t, ZeroCT):
        return "0o"
    if isinstance(t, Bang):
        return f"!{_pt(t.arg, _TY_ATOM)}"
    if isinstance(t, Arrow):
        return f"{_pt(t.dom, _TY_ARROW - 1)} -> {_pt(t.cod, _TY_ARROW)}"
    if isinstance(t, Lolli):
        return f"{_pt(t.dom, _TY_ARROW - 1)} -o {_pt(t.cod, _TY_ARROW)}"
    if isinstance(t, SumT):
        return f"{_pt(t.left, _TY_SUM)} + {_pt(t.right, _TY_SUM - 1)}"
    if isinstance(t, OplusT):
        return f"{_pt(t.left, _TY_SUM)} (+) {_pt(t.right, _TY_SUM - 1)}"
    if isinstance(t, ProdT):
        return f"{_pt(t.left, _TY_PROD)} * {_pt(t.right, _TY_PROD - 1)}"
    if isinstance(t, ProdCT):
        return f"{_pt(t.left, _TY_PROD)} *o {_pt(t.right, _TY_PROD - 1)}"
    if isinstance(t, CopowerT):
        return f"{_pt(t.weight, _TY_COP - 1)} . {_pt(t.arg, _TY_COP)}"
    if isinstance(t, ForallV):
        return f"forall {t.binder}. {_pt(t.body, _TY_QUANT)}"
    if isinstance(t, ForallC):
        return f"forall ^{t.binder}. {_pt(t.body, _TY_QUANT)}"
    if isinstance(t, BinderT):
        caret = "^" if t.csort else ""
        return f"{t.ctor} {caret}{t.binder}. {_pt(t.body, _TY_QUANT)}"
    raise ValueError(f"cannot print {t!r}")


_TM_ATOM, _TM_APP, _TM_LAM = range(3)


def _tm_prec(t: TermExpr) -> int:
    if isinstance(t, (Var, BangTerm)):
        return _TM_ATOM
    if isinstance(t, (App, TyAppV, TyAppC)):
        return _TM_APP
    return _TM_LAM


def _pm(t: TermExpr, limit: int) -> str:
    prec = _tm_prec(t)
    s = _pm_raw(t)
    return f"({s})" if prec > limit else s


def _pm_raw(t: TermExpr) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lam):
        return f"fun {t.var}:{_pt(t.ann, _TY_QUANT)} => {_pm(t.body, _TM_LAM)}"
    if isinstance(t, LinLam):
        return f"lfun {t.var}:{_pt(t.ann, _TY_QUANT)} => {_pm(t.body, _TM_LAM)}"
    if isinstance(t, App):
        return f"{_pm(t.fn, _TM_APP)} {_pm(t.arg, _TM_ATOM)}"
    if isinstance(t, TyLamV):
        return f"Fun {t.binder} => {_pm(t.body, _TM_LAM)}"
    if isinstance(t, TyLamC):
        return f"Fun ^{t.binder} => {_pm(t.body, _TM_LAM)}"
    if isinstance(t, (TyAppV, TyAppC)):
        return f"{_pm(t.fn, _TM_APP)} @[{_pt(t.arg, _TY_QUANT)}]"
    if isinstance(t, BangTerm):
        return f"bang {_pm(t.arg, _TM_ATOM)}"
    if isinstance(t, LetTerm):
        return f"let {t.var} <= {_pm(t.bound, _TM_APP)} in {_pm(t.body, _TM_LAM)}"
    raise ValueError(f"cannot print {t!r}")


def print_type(t: TypeExpr) -> str:
    return _pt(t, _TY_QUANT)


def print_term(t: TermExpr) -> str:
    return _pm(t, _TM_LAM)
