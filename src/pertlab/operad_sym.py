"""Symbolic engine for the colored operads behind homotopy transfer.

Everything here is exact symbolic algebra on words of unary operations over
two colors B and W.  A generator is one operation; a word is a composable
chain (z1 z2 means z1 o z2: the rightmost factor is applied first); an
element is a finite Z-linear combination of words of one ambient operad.

Ambients (families of generators a word may use):

    riso        f's and g's, all indices
    rfake       f's and g's, indices 0 and 1 only
    dif         the single degree -1 generator xb
    dif_riso    riso plus xb
    dif_rfake   rfake plus xb
    riso_tilde  everything: f, g, their barred copies fb, gb, and xb, yb

Degrees: f_n, g_n and their barred copies have degree n; xb and yb have
degree -1.  The filtration weight (fweight) of a generator is 1 for barred
copies and for xb, yb and 0 otherwise; a word's fweight is the sum over
its factors, and both differentials only ever raise it.

The differential acts on generators by one table in closed form,
d f_n = sum_{i<n} (-1)^i x_i f_(n-1-i) (- 1B at n = 1), x_i = f_i when
n + i is even and g_i when it is odd, with the g rows its colour mirror
and a barred row every way to bar at least one factor, plus the
perturbation terms (``generator_diff``).  It extends to words as a
derivation with Koszul signs: passing d across z costs (-1)^deg(z).

Truncation: the kernel elements and the retraction are infinite series in
the completed operad; here they are computed per filtration band.  Only
``max_fweight`` truncates them (band-by-band results are exact because no
operation lowers fweight); the other caps bound word enumeration in the
boundary search and the identity suite.  Both series are written once for
any algebra that adds and composes (``_kernel_series``, ``_retraction_value``):
here on band-cut products of words, in ``sdr_bpl`` on concrete maps.

Cost: generators and words carry precomputed invariants (degree, fweight,
colours, and for words a flat integer sort key that equality and hashing
also read), so no invariant is recomputed on access.  Generators are
interned: there is one per (family, index), however it is made (``gen``,
``Generator`` itself, a pickle or a copy), so generators compare and hash
by identity, in C, and a dict keyed by generators, such as a tower's
assignment, is read without a call into Python.  The checked constructors
(``Word``, ``element``, ``single``, ``parse_element``) stand at the edges,
for outside input; inside, a value is built unchecked wherever its
validity follows from how it was made, with its invariants added up from
its parts.  Products check only the junction.  The derivation is written
once, as ``_splice`` on rank tuples, from the one table ``generator_diff``,
whose every row runs between the colours of the generator it replaces:
``diff`` sums by rank tuple and builds each output word once.  ``theta``
rewrites a leading pair into a generator between the same colours;
``_walk``, the one word search, joins only composable generators and
visits only words in its degree window or able to grow into it;
``iota`` reuses its input's canonical terms.  The retraction of each
generator depends on nothing but the generator and the caps, so each
caps has one table of images by generator rank.  ``retraction_r`` folds
a word's images right to left, one ``_fold_left`` per factor, builds
each output word once and canonicalizes once per call.  As ``_walk``
grows words on the left, the identity suite carries r(w) down the word
tree: r(z w) is one fold step.  Its homotopy check splices the part d+
of d without identity terms into both sides of one word, summed by rank
tuple, so in neither check is a word that passes built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

from .exactlin import IntMatrix, solve_integer


_FAMILIES = ("f", "g", "fb", "gb", "xb", "yb")
_FAMILY_RANK = {"f": 0, "g": 1, "fb": 2, "gb": 3, "xb": 4, "yb": 5}

# ambient -> (generator families, index cap of f, g, fb, gb or None)
_AMBIENTS: dict[str, tuple[frozenset[str], int | None]] = {
    "riso": (frozenset({"f", "g"}), None),
    "rfake": (frozenset({"f", "g"}), 1),
    "dif": (frozenset({"xb"}), None),
    "dif_riso": (frozenset({"f", "g", "xb"}), None),
    "dif_rfake": (frozenset({"f", "g", "xb"}), 1),
    "riso_tilde": (frozenset(_FAMILIES), None),
}


# The one Generator of each (family, index), filled by its constructor.
_INTERNED: dict[tuple[str, int], "Generator"] = {}


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Generator:
    """One unary operation: family plus index (index 0 for xb and yb).

    There is one generator per (family, index): the constructor returns
    the one already made, so generators compare and hash by identity.
    Degree, fweight, colours and the integer ``rank`` (6 * index plus the
    family's rank, which orders generators as the sort key does) are
    computed once, when it is first made.  A pickled or copied generator
    comes back as that same object.
    """

    family: str
    index: int
    degree: int = field(init=False, repr=False)
    fweight: int = field(init=False, repr=False)
    src: str = field(init=False, repr=False)
    dst: str = field(init=False, repr=False)
    rank: int = field(init=False, repr=False)

    def __new__(cls, family: str, index: int = 0) -> "Generator":
        z = _INTERNED.get((family, index))
        if z is not None:
            return z
        if family not in _FAMILIES:
            raise ValueError(f"unknown generator family {family!r}")
        if index < 0:
            raise ValueError("generator index must be nonnegative")
        if family in ("xb", "yb"):
            if index != 0:
                raise ValueError(f"{family} carries no index")
            degree, src = -1, "B" if family == "xb" else "W"
            dst = src
        else:
            degree, src = index, "B" if family in ("f", "fb") else "W"
            # even indices cross to the other colour, odd ones stay
            dst = src if index % 2 else ("W" if src == "B" else "B")
        z = object.__new__(cls)
        for name, value in (("family", family), ("index", index), ("degree", degree),
                            ("fweight", 0 if family in ("f", "g") else 1), ("src", src), ("dst", dst),
                            ("rank", 6 * index + _FAMILY_RANK[family])):
            object.__setattr__(z, name, value)
        # setdefault: of two threads making the same generator, both keep the first
        return _INTERNED.setdefault((family, index), z)

    def __reduce__(self):
        return Generator, (self.family, self.index)

    @property
    def token(self) -> str:
        if self.family in ("xb", "yb"):
            return self.family
        return f"{self.family}{self.index}"


# a lookup in C in front of the constructor: gen("f") and gen("f", 0) are two
# keys of this cache, holding the one interned generator
@lru_cache(maxsize=None)
def gen(family: str, index: int = 0) -> Generator:
    return Generator(family, index)


XBAR = gen("xb")
YBAR = gen("yb")


@dataclass(frozen=True, slots=True, eq=False)
class Word:
    """A composable chain of generators, or an identity of one color.

    Degree, fweight and the flat sort key are computed once.  The key is
    (fweight, 0, rank, rank, ...) for a chain and (0, 1, color) for an
    identity; it orders words by fweight, identities after chains of
    fweight 0, then factor by factor, and two words share a key exactly
    when they are equal, so equality and hashing read it too.
    """

    factors: tuple[Generator, ...]
    id_color: str | None = None
    degree: int = field(init=False, repr=False)
    fweight: int = field(init=False, repr=False)
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        factors = self.factors
        if not factors:
            if self.id_color not in ("B", "W"):
                raise ValueError("empty word needs an identity color B or W")
            _set_invariants(self, 0, 0, (0, 1, self.id_color))
            return
        if self.id_color is not None:
            raise ValueError("a word is either factors or an identity, not both")
        for i in range(len(factors) - 1):
            if factors[i].src != factors[i + 1].dst:
                raise ValueError(
                    f"word not composable at position {i}: "
                    f"{factors[i].token} after {factors[i + 1].token}"
                )
        fweight = sum([z.fweight for z in factors])
        _set_invariants(
            self, sum([z.degree for z in factors]), fweight, (fweight, 0, *[z.rank for z in factors])
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Word:
            return NotImplemented
        return self._key == other._key  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key)

    @property
    def is_identity(self) -> bool:
        return not self.factors

    @property
    def src(self) -> str:
        return self.factors[-1].src if self.factors else self.id_color  # type: ignore[return-value]

    @property
    def dst(self) -> str:
        return self.factors[0].dst if self.factors else self.id_color  # type: ignore[return-value]

    def render(self) -> str:
        if self.is_identity:
            return f"1{self.id_color}"
        return " ".join(z.token for z in self.factors)


# The slot setters of Word: a frozen dataclass refuses plain assignment,
# and calling the slots' own setters is the cheapest way past that.
_set_factors, _set_id_color, _set_degree, _set_fweight, _set_key = (
    Word.__dict__[name].__set__ for name in ("factors", "id_color", "degree", "fweight", "_key")
)


def _set_invariants(w: Word, degree: int, fweight: int, key: tuple) -> None:
    _set_degree(w, degree)
    _set_fweight(w, fweight)
    _set_key(w, key)


def _chain(factors: tuple[Generator, ...], degree: int, fweight: int, key: tuple) -> Word:
    """A chain word from invariants its caller derived from words and
    generators already checked; composability is the caller's to ensure."""
    w = object.__new__(Word)
    _set_factors(w, factors)
    _set_id_color(w, None)
    _set_degree(w, degree)
    _set_fweight(w, fweight)
    _set_key(w, key)
    return w


_word_key = attrgetter("_key")


def word(*factors: Generator) -> Word:
    return Word(tuple(factors))


@lru_cache(maxsize=None)
def id_word(color: str) -> Word:
    return Word((), color)


def word_mul(a: Word, b: Word) -> Word | None:
    """a o b, or None when the colors do not match (path-algebra zero).

    Only the junction is checked: both factors are words already, so the
    product's invariants are the sums of theirs.
    """
    af, bf = a.factors, b.factors
    if not af:
        return b if b.dst == a.id_color else None
    if not bf:
        return a if af[-1].src == b.id_color else None
    if af[-1].src != bf[0].dst:
        return None
    fweight = a.fweight + b.fweight
    return _chain(af + bf, a.degree + b.degree, fweight, (fweight, 0) + a._key[2:] + b._key[2:])


@dataclass(frozen=True, slots=True)
class OperadElement:
    """Finite Z-linear combination of words of one ambient, canonical form."""

    ambient: str
    terms: tuple[tuple[Word, int], ...]

    def __add__(self, other: "OperadElement") -> "OperadElement":
        _same_ambient(self, other)
        acc = dict(self.terms)
        for w, c in other.terms:
            acc[w] = acc.get(w, 0) + c
        return _canonical(self.ambient, acc)

    def __sub__(self, other: "OperadElement") -> "OperadElement":
        return self + (-other)

    def __neg__(self) -> "OperadElement":
        return OperadElement(self.ambient, tuple((w, -c) for w, c in self.terms))

    def scale(self, k: int) -> "OperadElement":
        if k == 0:
            return OperadElement(self.ambient, ())
        return OperadElement(self.ambient, tuple((w, k * c) for w, c in self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, w: Word) -> int:
        for ww, c in self.terms:
            if ww == w:
                return c
        return 0


def _same_ambient(a: OperadElement, b: OperadElement) -> None:
    if a.ambient != b.ambient:
        raise ValueError(f"ambient mismatch: {a.ambient} vs {b.ambient}")


def _check_word_ambient(ambient: str, w: Word) -> None:
    fams, cap = _AMBIENTS[ambient]
    for z in w.factors:
        if z.family not in fams:
            raise ValueError(f"generator {z.token} not available in ambient {ambient}")
        if cap is not None and z.family in ("f", "g", "fb", "gb") and z.index > cap:
            raise ValueError(f"generator {z.token} exceeds index cap of ambient {ambient}")


def element(ambient: str, terms) -> OperadElement:
    """Canonical element from a {word: coefficient} mapping or pair iterable."""
    if ambient not in _AMBIENTS:
        raise ValueError(f"unknown ambient {ambient!r}")
    acc: dict[Word, int] = {}
    items = terms.items() if isinstance(terms, dict) else terms
    for w, c in items:
        if type(c) is not int:
            raise TypeError(f"coefficient {c!r} is not an int")
        if c:
            acc[w] = acc.get(w, 0) + c
    for w, c in acc.items():
        if c:
            _check_word_ambient(ambient, w)
    return _canonical(ambient, acc)


def _canonical(ambient: str, acc: dict[Word, int]) -> OperadElement:
    """Sorted, zero-free element of words already known to lie in the ambient."""
    terms = [item for item in acc.items() if item[1]]
    terms.sort(key=lambda term: term[0]._key)
    return OperadElement(ambient, tuple(terms))


def zero(ambient: str) -> OperadElement:
    return element(ambient, {})


def single(ambient: str, w: Word, c: int = 1) -> OperadElement:
    return element(ambient, {w: c})


def multiply(a: OperadElement, b: OperadElement, max_fweight: int | None = None) -> OperadElement:
    """Bilinear composition product; non-composable word pairs contribute 0.

    With ``max_fweight`` set, product words above that band are dropped;
    since fweight is additive this commutes with band truncation.
    """
    _same_ambient(a, b)
    acc: dict[Word, int] = {}
    for wa, ca in a.terms:
        for wb, cb in b.terms:
            if max_fweight is not None and wa.fweight + wb.fweight > max_fweight:
                continue
            w = word_mul(wa, wb)
            if w is None:
                continue
            acc[w] = acc.get(w, 0) + ca * cb
    return _canonical(a.ambient, acc)


def truncate_fweight(e: OperadElement, max_fweight: int) -> OperadElement:
    # a canonical term tuple filtered stays canonical
    return OperadElement(e.ambient, tuple(t for t in e.terms if t[0].fweight <= max_fweight))


def hom_colors(e: OperadElement) -> tuple[str, str]:
    """The common (src, dst) of every term; mixed colors are an error."""
    if e.is_zero():
        raise ValueError("zero element has no hom-set")
    pairs = {(w.src, w.dst) for w, _ in e.terms}
    if len(pairs) != 1:
        raise ValueError(f"element is not color-homogeneous: {sorted(pairs)}")
    return pairs.pop()


def degree_of(e: OperadElement) -> int:
    degs = {w.degree for w, _ in e.terms}
    if len(degs) != 1:
        raise ValueError("element is not degree-homogeneous")
    return degs.pop()


@dataclass(frozen=True, slots=True)
class TruncationCaps:
    """Finite window onto the completed operads.

    ``max_fweight`` truncates series (kernels, retraction values);
    ``max_index``, ``max_length`` and ``max_degree`` bound word enumeration
    (boundary search, identity-suite sweeps).  Internal computations may
    use generators above ``max_index`` when an identity forces them.
    """

    max_index: int = 4
    max_length: int = 5
    max_fweight: int = 3
    max_degree: int = 8

    def __post_init__(self) -> None:
        for name in ("max_index", "max_length", "max_fweight", "max_degree"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def parse_caps(text: str) -> TruncationCaps:
    """Parse "index,length,fweight,degree", e.g. "4,5,3,8"."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("caps must be four comma-separated integers: index,length,fweight,degree")
    values = []
    for name, p in zip(("index", "length", "fweight", "degree"), parts):
        p = p.strip()
        if not (p.isascii() and p.isdigit()):
            raise ValueError(f"caps: {name} must be a nonnegative integer, got {p!r}")
        values.append(int(p))
    return TruncationCaps(*values)


# ---------------------------------------------------------------------------
# Differentials


@lru_cache(maxsize=None)
def generator_diff(z: Generator) -> tuple[tuple[Word, int], ...]:
    """The differential of one generator, as (word, coefficient) pairs, in
    one closed form.  d xb = -xb xb, d yb = -yb yb, and for every n

        d f_n = sum_{i<n} (-1)^i x_i f_(n-1-i)  (- 1B at n = 1),

    x_i = f_i when n + i is even and g_i when it is odd.  d fb_n is
    (-1)^n b x - y b for b = f_n, then fb_n, with x the perturbation of its
    source colour and y that of its target colour, and then each word of
    the sum above with its second, its first or both factors barred.  The
    g rows are the colour mirror (swap f with g and xb with yb)."""
    fam, n = z.family, z.index
    if fam in ("xb", "yb"):
        return ((word(z, z), -1),)
    f, g = ("f", "g") if fam[0] == "f" else ("g", "f")
    plain = [(gen(f if (n + i) % 2 == 0 else g, i), gen(f, n - 1 - i), (-1) ** i) for i in range(n)]
    if fam in ("f", "g"):
        return tuple([(word(a, b), c) for a, b, c in plain] + ([(id_word(z.src), -1)] if n == 1 else []))
    x, y = (XBAR if colour == "B" else YBAR for colour in (z.src, z.dst))
    return tuple([term for b in (gen(f, n), z) for term in ((word(b, x), (-1) ** n), (word(y, b), -1))]
                 + [(word(gen(a.family + "b" * t, a.index), gen(b.family + "b" * r, b.index)), c)
                    for t, r in ((0, 1), (1, 0), (1, 1)) for a, b, c in plain])


def _rows(lengthening: bool = False):
    """The rows of ``generator_diff``, read through the module global, as
    (rank tuple, factors, coefficient) per term, memoized by rank in the
    reader; with ``lengthening`` the identity terms, giving d+ of d, drop."""
    rows: dict[int, tuple] = {}

    def row(z: Generator) -> tuple:
        got = rows.get(z.rank)
        if got is None:
            got = rows[z.rank] = tuple((wz._key[2:] if wz.factors else (), wz.factors, cz)
                                       for wz, cz in generator_diff(z) if wz.factors or not lengthening)
        return got
    return row


def _splice(factors: tuple[Generator, ...], ranks: tuple[int, ...], row):
    """The derivation on one chain: each replacement of a factor z by one
    term of ``row(z)``, as (rank tuple, factors, coefficient), the
    coefficient carrying the Koszul sign (-1) to the total degree of the
    factors left of z.  A row term runs between z's colours, so the
    replacement is composable."""
    sign = 1
    for i, z in enumerate(factors):
        for rr, rf, c in row(z):
            yield ranks[:i] + rr + ranks[i + 1:], factors[:i] + rf + factors[i + 1:], sign * c
        if z.degree % 2:
            sign = -sign


def diff(e: OperadElement) -> OperadElement:
    """Derivation extension of the generator differential table.

    The terms are summed by rank tuple and each output word is built once
    (an identity row of a one-factor word leaves the identity of its
    colour).

    >>> render_element(diff(parse_element("f1 f1", "riso")))
    'g0 f0 f1 - f1 g0 f0'
    >>> render_element(diff(parse_element("f1 - xb", "dif_riso")))
    'g0 f0 - 1B + xb xb'
    """
    row = _rows()
    acc: dict = {}
    for w, c in e.terms:
        for ranks, factors, cz in _splice(w.factors, w._key[2:], row):
            k = ranks or w.src  # the empty word is the identity of w's one colour
            entry = acc.get(k)
            if entry is None:
                acc[k] = [c * cz, factors, w.degree - 1]
            else:
                entry[0] += c * cz
    out: dict[Word, int] = {}
    for k, (c, factors, degree) in acc.items():
        if c:
            fweight = sum([z.fweight for z in factors])
            out[_chain(factors, degree, fweight, (fweight, 0) + k) if factors else id_word(k)] = c
    return _canonical(e.ambient, out)


def _theta_rep(z1: Generator, z2: Generator) -> Generator | None:
    """The generator ``theta`` puts in place of a leading pair z1 z2, or
    None when it kills the word: with z1 = f0 or g0, z2's family at the
    next index when z2 has z1's family and an odd index or the other
    family and an even one (f0 f_odd -> f_next, g0 f_even -> f_next, ...)."""
    if (z1.index != 0 or z1.family not in ("f", "g") or z2.family not in ("f", "g")
            or (z1.family == z2.family) != (z2.index % 2 == 1)):
        return None
    return gen(z2.family, z2.index + 1)


def theta(e: OperadElement) -> OperadElement:
    """Contracting homotopy: rewrite the two leading factors, no sign.

    Words of length < 2 map to 0; a longer word has its leading pair
    replaced by ``_theta_rep`` of it, or maps to 0 when that is None.

    >>> render_element(theta(parse_element("f0 f1 + g0 f2 f1 + f1 f1", "riso")))
    'f2 + f3 f1'
    """
    if e.ambient != "riso":
        raise ValueError("the contracting homotopy is defined on the plain ambient only")
    acc: dict[Word, int] = {}
    for w, c in e.terms:
        if len(w.factors) < 2:
            continue
        rep = _theta_rep(w.factors[0], w.factors[1])
        if rep is None:
            continue
        # rep runs between the colours of z1 z2 and is one degree higher
        key = w._key
        nw = _chain((rep,) + w.factors[2:], w.degree + 1, key[0], key[:2] + (rep.rank,) + key[4:])
        acc[nw] = acc.get(nw, 0) + c
    return _canonical("riso", acc)


# ---------------------------------------------------------------------------
# Kernels, inclusion, retraction


def _kernel_series(x, f, compose, top: int, steps: int, out: list | None = None) -> list:
    """Z_-1, Z_1, ..., Z_top over any algebra whose values add, compose by
    ``compose`` and answer ``is_zero()``, with x the value of xb and f(i)
    that of f_i, extending ``out``, which holds the Z's already known.

    Z_2s-1 sums the chains x f_2m+1 x ... x whose m's add up to s, so it is
    the sum over t of (x f_1)^t Q_s, where Q_0 = x and Q_s sums x f_2m+1
    Z_2(s-m)-1 over m = 1 .. s (Gugenheim 1972; Crainic, arXiv:math/0403266).
    Each sum stops at its first zero summand; the list stops short at the
    first series with a summand still nonzero after ``steps`` steps.
    """
    out = [] if out is None else out
    step = compose(x, f(1))
    for s in range(len(out), (top + 1) // 2 + 1):
        parts = [compose(x, compose(f(2 * m + 1), out[s - m])) for m in range(1, s + 1)]
        total = term = sum(parts[1:], parts[0]) if parts else x
        for _ in range(steps):
            if term.is_zero():
                break
            term = compose(step, term)
            total = total + term
        else:
            break
        out.append(total)
    return out


# Z_-1, Z_1, ... by fweight band, filled by ``kernel_Z``
_BAND_KERNELS: dict[int, list[OperadElement]] = {}


def kernel_Z(r: int, caps: TruncationCaps) -> OperadElement:
    """The degree-r kernel series, truncated to the fweight band.

    Terms are alternating chains xb f_odd xb ... xb whose f-indices sum to
    the right degree; a term with t interior factors has fweight t + 1.
    The generator indices are dictated by r (up to r + 2), never capped:
    capping them would break the kernel's defining identity.  Summed by
    ``_kernel_series`` under band-cut ``multiply``, once per band.
    """
    if r < -1 or r % 2 == 0:
        raise ValueError("kernel degree must be an odd integer >= -1")
    band = caps.max_fweight
    known = _BAND_KERNELS.setdefault(band, [])
    if len(known) <= (r + 1) // 2:
        # a summand of t + 1 factors xb lies past the band once t >= band
        x = truncate_fweight(single("dif_riso", word(XBAR)), band)
        _kernel_series(x, lambda i: single("dif_riso", word(gen("f", i))),
                       lambda a, b: multiply(a, b, band), r, band + 1, known)
    return known[(r + 1) // 2]


def iota(e: OperadElement) -> OperadElement:
    """Inclusion of the unbarred ambient into the barred one."""
    if e.ambient != "dif_riso":
        raise ValueError("inclusion is defined on the dif_riso ambient")
    # every dif_riso word lies in riso_tilde and the order does not depend
    # on the ambient, so the terms are canonical there already
    return OperadElement("riso_tilde", e.terms)


@lru_cache(maxsize=None)
def retraction_terms(z: Generator) -> tuple[tuple[Generator, int, Generator], ...]:
    """Symbolic retraction value of one barred generator.

    Each triple (left, r, right) stands for left * kernel(r) * right; the
    value of the retraction is the sum over the listed triples.  Base
    generators and xb are fixed by the retraction and not listed here.
    One rule for fb_n, gb_n and yb (n = -1, its degree): left f_(2a+lp),
    kernel Z_(2b-1), right f_(2c+1) for fb and g_(2c) otherwise (parity
    rp), where lp = (n + [not fb]) mod 2 and a + b + c = (n-lp-rp+1) / 2.
    """
    if z.family not in ("fb", "gb", "yb"):
        raise ValueError(f"retraction of {z.token} is the generator itself; no kernel terms")
    n, rp = z.degree, int(z.family == "fb")
    lp = (n + 1 - rp) % 2
    right = "f" if rp else "g"
    total = (n - lp - rp + 1) // 2
    triples = [(gen("f", 2 * a + lp), 2 * b - 1, gen(right, 2 * (total - a - b) + rp))
               for a in range(total + 1) for b in range(total - a + 1)]
    triples.sort(key=lambda t: (t[1], t[0].index, t[2].index))
    return tuple(triples)


def _retraction_value(z: Generator, kernel, value, compose):
    """The retraction image of the barred generator z over any algebra:
    the sum of left Z_r right over ``retraction_terms(z)``, with
    ``kernel(r)`` the value of Z_r and ``value`` that of a generator."""
    parts = [compose(value(left), compose(kernel(r), value(right))) for left, r, right in retraction_terms(z)]
    return sum(parts[1:], parts[0])


def _retraction_of_generator(z: Generator, caps: TruncationCaps) -> OperadElement:
    if z.family in ("f", "g", "xb"):
        return single("dif_riso", word(z))
    return _retraction_value(z, lambda r: kernel_Z(r, caps), lambda g: single("dif_riso", word(g)),
                             lambda a, b: multiply(a, b, caps.max_fweight))


@lru_cache(maxsize=None)
def _retraction_table(caps: TruncationCaps) -> dict[int, tuple[tuple, ...]]:
    """The retraction images at these caps by generator rank, filled by ``_retraction_row``."""
    return {}


def _retraction_row(table: dict[int, tuple[tuple, ...]], z: Generator,
                    caps: TruncationCaps) -> tuple[tuple, ...]:
    """The image of z in ``table``, one (rank tuple, factors, fweight,
    degree, coefficient) per term, filled on first use.  Its colours are
    checked once here, so products of images need no junction check."""
    row = table.get(z.rank)
    if row is None:
        image = _retraction_of_generator(z, caps).terms
        for wb, _ in image:
            if (wb.src, wb.dst) != (z.src, z.dst):
                raise RuntimeError(f"retraction image of {z.token} has a term {wb.render()} "
                                   f"from {wb.src} to {wb.dst}, not {z.src} to {z.dst}")
        row = table[z.rank] = tuple(
            (wb._key[2:], wb.factors, wb.fweight, wb.degree, cb) for wb, cb in image)
    return row


def _fold_left(row: tuple[tuple, ...], img: dict[tuple[int, ...], list] | None,
               band: int) -> dict[tuple[int, ...], list]:
    """r(z w) from the row of z and the image of w (rank tuple -> [coefficient,
    factors, fweight, degree]); products past the fweight band drop out.
    With ``img`` None, w is empty and r(z) is the row as it stands."""
    if img is None:
        return {ra: [ca, fa, fwa, dga] for ra, fa, fwa, dga, ca in row}
    out: dict[tuple[int, ...], list] = {}
    for ra, fa, fwa, dga, ca in row:
        for rb, (cb, fb, fwb, dgb) in img.items():
            if fwa + fwb <= band:
                rm = ra + rb
                entry = out.get(rm)
                if entry is None:
                    out[rm] = [ca * cb, fa + fb, fwa + fwb, dga + dgb]
                else:
                    entry[0] += ca * cb
    return out


def retraction_r(e: OperadElement, caps: TruncationCaps) -> OperadElement:
    """The retraction onto the unbarred ambient, band-exact to max_fweight.

    Multiplicative on words; fixes f's, g's and xb; sends each barred
    generator to its kernel-series value (see ``retraction_terms``).
    Each word folds its factors' images right to left, one ``_fold_left``
    per factor, from the per-caps table, in one dict keyed by the rank
    tuple of the product word; each image runs between its generator's
    colours, so every product is composable, products past the band drop
    out, and each nonzero output word is built once at the end.
    """
    if e.ambient != "riso_tilde":
        raise ValueError("the retraction is defined on the riso_tilde ambient")
    band = caps.max_fweight
    table = _retraction_table(caps)
    out: dict[Word, int] = {}
    acc: dict[tuple[int, ...], list] = {}
    for w, c in e.terms:
        if not w.factors:
            out[w] = c
            continue
        img = None
        for z in reversed(w.factors):
            img = _fold_left(_retraction_row(table, z, caps), img, band)
        for rm, term in img.items():
            entry = acc.get(rm)
            if entry is None:
                term[0] *= c
                acc[rm] = term
            else:
                entry[0] += c * term[0]
    for rm, (ci, fs, fw, dg) in acc.items():
        if ci:
            out[_chain(fs, dg, fw, (fw, 0) + rm)] = ci
    return _canonical("dif_riso", out)


# ---------------------------------------------------------------------------
# Bounded boundary search


def _ambient_generators(ambient: str, max_index: int) -> list[Generator]:
    fams, cap = _AMBIENTS[ambient]
    top = max_index if cap is None else min(max_index, cap)
    out: list[Generator] = []
    for fam in ("f", "g", "fb", "gb"):
        if fam in fams:
            out.extend(gen(fam, n) for n in range(top + 1))
    if "xb" in fams:
        out.append(XBAR)
    if "yb" in fams:
        out.append(YBAR)
    return out


def _walk(ambient: str, src: str, caps: TruncationCaps, step=None, degrees: tuple[int, int] | None = None):
    """Every nonempty composable word of the ambient from ``src`` within
    the index, length and fweight caps whose degree lies in the window
    ``degrees`` (lo, hi), clipped to (-max_degree, max_degree), which is
    also its default; depth first, as (factors, fweight, degree, value)
    nodes.  A word grows on the left: z w is a child of w, and its value
    is ``step(z, value of w)``, with None for the empty word (all values
    are None without a step).  A word is visited only when it lies in the
    window or some longer word can reach it, by the smallest and largest
    generator degree.  Only composable generators are joined, so a caller
    may build the words unchecked."""
    band, max_length = caps.max_fweight, caps.max_length
    lo, hi = degrees or (-caps.max_degree, caps.max_degree)
    lo, hi = max(lo, -caps.max_degree), min(hi, caps.max_degree)
    if lo > hi:
        return
    gens = [z for z in _ambient_generators(ambient, caps.max_index) if z.fweight <= band]
    # what extends a word on the left, by its target colour: every generator
    # below the band, the plain ones at it; each with its one-factor tuple
    below = {col: [((z,), z.fweight, z.degree, z) for z in gens if z.src == col] for col in ("B", "W")}
    at_band = {col: [g for g in grown if not g[1]] for col, grown in below.items()}
    # the degrees a word of each length is visited at: 0 to r more factors
    # move its degree by at least min(0, r dmin) and at most max(0, r dmax);
    # a one-factor word is visited even at length cap 0
    dmin, dmax = min([z.degree for z in gens], default=0), max([z.degree for z in gens], default=0)
    reach = [(lo - max(0, r * dmax), hi - min(0, r * dmin))
             for r in range(max_length, -1, -1)] + [(lo, hi)]
    a, b = reach[1]
    stack = [(zs, fw, dg, step and step(z, None)) for zs, fw, dg, z in below[src] if a <= dg <= b]
    while stack:
        node = stack.pop()
        factors, fweight, deg, val = node
        if lo <= deg <= hi:
            yield node
        length = len(factors)
        if length < max_length:
            a, b = reach[length + 1]
            for zs, fw, dg, z in (below if fweight < band else at_band)[factors[0].dst]:
                if a <= deg + dg <= b:
                    stack.append((zs + factors, fweight + fw, deg + dg, step and step(z, val)))


def enumerate_words(
    ambient: str, src: str, dst: str, caps: TruncationCaps,
    degree: int | None = None, include_identity: bool = True,
) -> list[Word]:
    """All composable words of the ambient within caps, sorted by key;
    optionally filtered to one degree."""
    found: list[Word] = []
    if include_identity and src == dst and (degree is None or degree == 0):
        found.append(id_word(src))
    window = None if degree is None else (degree, degree)
    for factors, fweight, deg, _ in _walk(ambient, src, caps, degrees=window):
        if factors[0].dst == dst:
            found.append(_chain(factors, deg, fweight, (fweight, 0, *[z.rank for z in factors])))
    found.sort(key=_word_key)
    return found


def bounded_boundary_search(
    c: OperadElement, caps: TruncationCaps, *, modulo_fweight: int | None = None,
) -> OperadElement | None:
    """Preimage y with d(y) = c within the caps window, or None.

    None is a bounded certificate ("no preimage among words within caps"),
    not a proof of non-existence.  With ``modulo_fweight`` set, both the
    cycle condition and the equation are taken in the quotient that
    discards words of higher fweight.
    """

    def cut(e: OperadElement) -> OperadElement:
        return e if modulo_fweight is None else truncate_fweight(e, modulo_fweight)

    c = cut(c)
    if c.is_zero():
        return zero(c.ambient)
    if not cut(diff(c)).is_zero():
        raise ValueError("target is not a cycle (its differential does not vanish)")
    src, dst = hom_colors(c)
    target_degree = degree_of(c) + 1
    candidates = enumerate_words(c.ambient, src, dst, caps, degree=target_degree)
    images = [cut(diff(single(c.ambient, w))) for w in candidates]
    row_words: list[Word] = sorted(
        {w for img in images for w, _ in img.terms} | {w for w, _ in c.terms},
        key=_word_key,
    )
    pos = {w: i for i, w in enumerate(row_words)}
    flat = [0] * (len(row_words) * len(candidates))
    for j, img in enumerate(images):
        for w, coeff in img.terms:
            flat[pos[w] * len(candidates) + j] = coeff
    a = IntMatrix(len(row_words), len(candidates), tuple(flat))
    coeffs = dict(c.terms)
    b = tuple(coeffs.get(w, 0) for w in row_words)
    x = solve_integer(a, b)
    if x is None:
        return None
    return element(c.ambient, {w: coeff for w, coeff in zip(candidates, x)})


# ---------------------------------------------------------------------------
# Rendering and parsing


def render_element(e: OperadElement) -> str:
    if e.is_zero():
        return "0"
    parts: list[str] = []
    for i, (w, c) in enumerate(e.terms):
        mag = abs(c)
        body = w.render() if mag == 1 else f"{mag} {w.render()}"
        if i == 0:
            parts.append(body if c > 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


_TOKEN_RE = re.compile(r"^(fb|gb|f|g)([0-9]+)$")


def _parse_token(tok: str) -> Generator | Word:
    if tok == "xb":
        return XBAR
    if tok == "yb":
        return YBAR
    if tok in ("1B", "1W"):
        return id_word(tok[1])
    m = _TOKEN_RE.match(tok)
    if not m:
        raise ValueError(f"unrecognized token {tok!r}")
    return gen(m.group(1), int(m.group(2)))


def parse_element(text: str, ambient: str) -> OperadElement:
    """Inverse of render_element; whitespace-separated tokens with + and -."""
    text = text.strip()
    if text == "0" or not text:
        return zero(ambient)
    tokens = text.split()
    acc: dict[Word, int] = {}
    i = 0
    sign = 1
    # a term runs to the next sign, so every term but the first starts at one
    while i < len(tokens):
        if tokens[i] in ("+", "-"):
            sign = 1 if tokens[i] == "+" else -1
            i += 1
            if i == len(tokens):
                raise ValueError("empty term")
        coeff = 1
        if tokens[i].isascii() and tokens[i].isdigit():
            coeff = int(tokens[i])
            i += 1
        got: list[Generator | Word] = []
        while i < len(tokens) and tokens[i] not in ("+", "-"):
            got.append(_parse_token(tokens[i]))
            i += 1
        if not got:
            raise ValueError("empty term")
        # an identity token stands alone in its term
        if len(got) > 1 and any(isinstance(t, Word) for t in got):
            raise ValueError("identity token inside a factor word")
        w = got[0] if isinstance(got[0], Word) else Word(tuple(got))
        acc[w] = acc.get(w, 0) + sign * coeff
    return element(ambient, acc)


def render_retraction_line(z: Generator) -> str:
    """Kernel-symbol form of a barred generator's retraction value."""
    triples = retraction_terms(z)
    body = " + ".join(f"{l.token} Z{r} {rt.token}" for l, r, rt in triples)
    return f"r({z.token}) = {body}"


def generator_element(z: Generator) -> OperadElement:
    ambient = "riso" if z.family in ("f", "g") else "riso_tilde"
    return single(ambient, word(z))


def render_generator_diff(z: Generator) -> str:
    return f"d {z.token} = " + render_element(diff(generator_element(z)))


# ---------------------------------------------------------------------------
# Identity suite


@dataclass(frozen=True, slots=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str


def _pair_sum(first: str, second: str, start: int, degree: int, ambient: str) -> OperadElement:
    """The sum of first_a second_(degree - a) over a = start, start + 2, ...
    while both indices are at least ``start``: gf and fg for start 0, the
    squares hh = ff and ll = gg of the odd homotopies for start 1."""
    return element(ambient, [(word(gen(first, a), gen(second, degree - a)), 1)
                             for a in range(start, degree - start + 1, 2)])


def _prepend_rank(z: Generator, ranks: tuple[int, ...] | None) -> tuple[int, ...]:
    """The rank tuple of z w from that of w, as a ``_walk`` step."""
    return (z.rank,) + ranks if ranks else (z.rank,)


def _homotopy_defect(factors: tuple[Generator, ...], ranks: tuple[int, ...], row) -> bool:
    """Whether theta(d+ w) + d+(theta w) != w for the chain w with these
    factors and rank tuple, where ``row`` reads the terms of d+ for
    ``_splice``.  Both sides are summed in one dict keyed by rank tuple;
    theta rewrites a leading pair by ``_theta_rep``.

    Theta reads only the leading pair of a term of d+ w, so only that pair
    is built.  A term that replaces a factor past position 1 keeps w's own
    pair: theta rewrites it to w's ``rep``, and when theta kills w it kills
    every such term, so those terms are not made."""
    acc = {ranks: -1}
    rep = _theta_rep(factors[0], factors[1]) if len(factors) > 1 else None
    if rep is not None:
        for k, _, c in _splice((rep,) + factors[2:], (rep.rank,) + ranks[2:], row):
            acc[k] = acc.get(k, 0) + c
    sign = 1
    for i, z in enumerate(factors if rep is not None else factors[:2]):
        for rr, rf, c in row(z):
            if i < 2:
                pair = (factors[:i] + rf + factors[i + 1:i + 3])[:2]
                p = _theta_rep(*pair) if len(pair) > 1 else None
                if p is None:
                    continue
                k = (p.rank,) + (ranks[:i] + rr + ranks[i + 1:])[2:]
            else:
                k = (rep.rank,) + ranks[2:i] + rr + ranks[i + 1:]
            acc[k] = acc.get(k, 0) + sign * c
        if z.degree % 2:
            sign = -sign
    return any(acc.values())


def _transfer_witness(n: int) -> tuple[OperadElement, OperadElement]:
    """(lhs, witness) of the chain-level transfer identity at index n >= 2,

        x_0 d(f_n) + (-1)^n d(g_n) f_0 = d(sum_{0<k<n} (-1)^(k+1) x_k f_(n-k)),

    where x_k is f_k when n + k is odd and g_k when it is even."""
    x = [gen("f" if (n + k) % 2 else "g", k) for k in range(n)]
    lhs = (multiply(generator_element(x[0]), diff(generator_element(gen("f", n))))
           + multiply(diff(generator_element(gen("g", n))), generator_element(gen("f", 0))).scale((-1) ** n))
    return lhs, element("riso", [(word(x[k], gen("f", n - k)), (-1) ** (k + 1)) for k in range(1, n)])


def _first_by_key(failing: dict[str, list[Word]]) -> list[Word]:
    """The first word in key order of each nonempty list, target B before W."""
    return [min(failing[dst], key=_word_key) for dst in ("B", "W") if failing[dst]]


def verify_identity_suite(caps: TruncationCaps) -> list[IdentityCheck]:
    """Symbolic verification of every closed identity the package relies on.

    Each check is exact on its stated window; see the individual blocks.
    The report lists one entry per identity family with the first failing
    case in ``detail``.
    """
    w_band = caps.max_fweight
    checks: list[IdentityCheck] = []

    def add(name: str, failures: list[str]) -> None:
        checks.append(IdentityCheck(name, not failures, failures[0] if failures else "ok"))

    # (a) d d = 0 on the plain generators, (a') on the extended ones (exact:
    # the tables are finite)
    indices = range(caps.max_index + 1)
    plain_gens = [gen(fam, n) for fam in ("f", "g") for n in indices]
    tilde_gens = plain_gens + [gen(fam, n) for fam in ("fb", "gb") for n in indices] + [XBAR, YBAR]
    for name, ambient, gens in (("square_zero_plain", "riso", plain_gens),
                                ("square_zero_extended", "riso_tilde", tilde_gens)):
        add(name, [f"d d {z.token} != 0" for z in gens if not diff(diff(single(ambient, word(z)))).is_zero()])

    # (b) contracting homotopy on positive-degree plain words, against the
    # lengthening part d+ of d (the table without its identity terms), on
    # the words ``enumerate_words`` gives one shorter than the length cap,
    # because the homotopy passes through words one longer.  One walk per
    # source colour carries each word's rank tuple; w passes when
    # theta(d+ w) + d+(theta w) - w, summed by rank tuple, is zero.  Each
    # (src, dst) pair names its first failing word in key order.
    fails: list[str] = []
    theta_caps = TruncationCaps(
        caps.max_index, max(1, caps.max_length - 1), caps.max_fweight, caps.max_degree
    )
    row = _rows(lengthening=True)
    for src in ("B", "W"):
        failing: dict[str, list[Word]] = {"B": [], "W": []}
        for factors, fweight, deg, ranks in _walk("riso", src, theta_caps, _prepend_rank, (1, caps.max_degree)):
            if _homotopy_defect(factors, ranks, row):
                failing[factors[0].dst].append(_chain(factors, deg, fweight, (fweight, 0, *ranks)))
        fails += [f"homotopy identity fails on {w.render()}" for w in _first_by_key(failing)]
    add("contracting_homotopy", fails)

    # (c) retraction is a chain map, per fweight band
    fails = []
    for z in tilde_gens:
        e = single("riso_tilde", word(z))
        lhs = truncate_fweight(diff(retraction_r(e, caps)), w_band)
        rhs = truncate_fweight(retraction_r(diff(e), caps), w_band)
        if lhs != rhs:
            fails.append(f"r d != d r on {z.token}")
    add("retraction_chain_map", fails)

    # (c') retraction splits the inclusion, on the words ``enumerate_words``
    # gives: one walk per source colour carries r(w) down the word tree, and
    # w passes when r(w) has one nonzero term, w with coefficient 1; the
    # identities go through r and iota.  Each (src, dst) pair names its first
    # failing word in key order.
    fails = []
    images = _retraction_table(caps)
    step = lambda z, img: _fold_left(_retraction_row(images, z, caps), img, w_band)  # noqa: E731
    for src in ("B", "W"):
        failing = {"B": [], "W": []}
        e = OperadElement("dif_riso", ((id_word(src), 1),))
        if retraction_r(iota(e), caps) != e:
            failing[src].append(id_word(src))
        for factors, fweight, deg, img in _walk("dif_riso", src, caps, step):
            live = [term for term in img.values() if term[0]]
            if len(live) != 1 or live[0][0] != 1 or live[0][1] != factors:
                key = (fweight, 0, *[z.rank for z in factors])
                failing[factors[0].dst].append(_chain(factors, deg, fweight, key))
        fails += [f"r(iota({w.render()})) != {w.render()}" for w in _first_by_key(failing)]
    add("retraction_splits_inclusion", fails)

    # (d) compact differential of the odd squares, and its colour mirror
    fails = []
    for k in range(0, (caps.max_index + 1) // 2 + 1):
        deg = 2 * k
        for own, other, square, cross in (("f", "g", "hh", "gf"), ("g", "f", "ll", "fg")):
            if diff(_pair_sum(own, own, 1, deg, "riso")) != diff(_pair_sum(other, own, 0, deg, "riso")):
                fails.append(f"d({square}) != d({cross}) in degree {deg}")
    add("compact_square", fails)

    # (e) kernel differential, per degree and band
    fails = []
    for r in (-1, 1, 3):
        lhs = truncate_fweight(diff(kernel_Z(r, caps)), w_band)
        terms: list[tuple[Word, int]] = []
        for r1 in range(-1, r + 1, 2):
            for r2 in range(-1, r - 1 - r1 + 1, 2):
                mid_deg = r - 1 - r1 - r2
                mid = (_pair_sum("g", "f", 0, mid_deg, "dif_riso")
                       - _pair_sum("f", "f", 1, mid_deg, "dif_riso"))
                part = multiply(kernel_Z(r1, caps), mid, w_band)
                terms += multiply(part, kernel_Z(r2, caps), w_band).terms
        if lhs != -truncate_fweight(element("dif_riso", terms), w_band):
            fails.append(f"kernel differential identity fails at degree {r}")
    add("kernel_differential", fails)

    # (e') kernel absorption: xb + kernel . f_odd . xb = kernel, per degree
    fails = []
    xb_elt = single("dif_riso", word(XBAR))
    for r in (-1, 1, 3):
        terms = list(xb_elt.terms) if r == -1 else []
        for a in range((r + 1) // 2 + 1):
            part = multiply(kernel_Z(r - 2 * a, caps), single("dif_riso", word(gen("f", 2 * a + 1))), w_band)
            terms += multiply(part, xb_elt, w_band).terms
        lhs = truncate_fweight(element("dif_riso", terms), w_band)
        if lhs != truncate_fweight(kernel_Z(r, caps), w_band):
            fails.append(f"kernel absorption identity fails at degree {r}")
    add("kernel_absorption", fails)

    # (f) chain-level transfer witnesses, filed by the parity of the index
    transfer: dict[str, list[str]] = {"even": [], "odd": []}
    for n in range(2, caps.max_index + 1):
        lhs, witness = _transfer_witness(n)
        if lhs != diff(witness):
            parity = ("even", "odd")[n % 2]
            transfer[parity].append(f"{parity} transfer witness fails at index {n}")
    for parity, fails in transfer.items():
        add(f"chain_level_transfer_{parity}", fails)

    return checks


def all_passed(report: list[IdentityCheck]) -> bool:
    return all(c.passed for c in report)
