"""Exact monomial and monomial-ideal arithmetic.

Monomials are exponent maps over named variables, ideals are stored by
their unique minimal generating set, and all arithmetic is exact
(arbitrary-precision integer exponents).  Every value is immutable after
construction and may be shared freely between threads.  Variables are
interned, one live object per name and built under a lock, so equality is
identity; their hashes change with memory addresses, as string hashes do
with the hash seed, so no output may depend on the order of a set of them.

Textual syntax, used by the CLI and the tests:

    monomial   x1*x2^3          '*' separates variables, '^' exponents
    polarized  x1_2             base name, underscore, polarization index
    ideal      (x1*x2^3, x2)    comma-separated generators in parentheses
    zero ideal (0)
"""

from __future__ import annotations

import re
import threading
import weakref
from functools import lru_cache, total_ordering
from itertools import accumulate, compress, count, repeat
from operator import attrgetter, floordiv
from typing import Iterable, Mapping, Sequence


class IdealSyntaxError(ValueError):
    """Raised on malformed monomial/ideal text; carries the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.text = text
        self.pos = pos


def _name_key(base: str) -> tuple:
    """Validate a base variable name and return its sort key.

    Digit runs compare numerically, so x2 sorts before x10.  Names whose
    runs compare equal (x1 and x01) are ordered by the name itself, so
    distinct variables never share a key.  Raises ``ValueError`` for a name
    no variable can have.
    """
    if not base or not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", base):
        raise ValueError(f"invalid variable name: {base!r}")
    if re.search(r"_\d+$", base):
        # would render identically to a polarized variable
        raise ValueError(
            f"variable name {base!r} ends in _<digits>, which is reserved "
            f"for polarization indices"
        )
    natural = tuple(
        (1, "", int(run)) if run.isdigit() else (0, run, 0) for run in re.findall(r"\d+|\D+", base)
    )
    return natural, base


_registry: weakref.WeakValueDictionary = weakref.WeakValueDictionary()  # (base, polar) -> the live Variable
_registry_lock = threading.Lock()


@lru_cache(maxsize=4096)
def _interned(base: str, polar: int | None) -> "Variable":
    """The one live Variable of (base, polar).  The cache keeps recent ones
    alive and the registry finds any other live one, so no name has two
    objects.  ``lru_cache`` keeps no failures: bad names raise every time."""
    with _registry_lock:
        v = _registry.get((base, polar))
        if v is None:
            name_key = _name_key(base)
            if polar is not None and polar < 1:
                raise ValueError(f"polarization index must be >= 1, got {polar}")
            v = _registry[base, polar] = object.__new__(Variable)
            for slot, value in zip(Variable.__slots__, (base, polar, (name_key, polar or 0))):
                object.__setattr__(v, slot, value)
    return v


@total_ordering
class Variable:
    """A polynomial-ring variable, optionally carrying a polarization index.

    Ordinary variables have ``polar=None``; polarization produces doubly
    indexed variables rendered ``base_j`` (j >= 1).  Variables are
    interned: ``Variable(base, polar)`` returns the one live object of its
    name, so equality is identity and hashing is ``object.__hash__``.
    """

    __slots__ = ("base", "polar", "_sort_key", "__weakref__")

    def __new__(cls, base: str, polar: int | None = None) -> "Variable":
        return _interned(base, polar)

    def __setattr__(self, name, *value):
        raise AttributeError(f"Variable is immutable; cannot set {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self):
        return Variable, (self.base, self.polar)

    def is_polarized(self) -> bool:
        return self.polar is not None

    def __lt__(self, other: "Variable") -> bool:
        return self._sort_key < other._sort_key

    def __str__(self) -> str:
        return self.base if self.polar is None else f"{self.base}_{self.polar}"

    def __repr__(self) -> str:
        return f"Variable({str(self)!r})"


def _variable_order(item: tuple[Variable, int]) -> tuple:
    return item[0]._sort_key


@total_ordering
class Monomial:
    """A monomial, stored as a map from Variable to positive exponent.

    The empty map is the unit monomial 1.  Monomials are immutable and
    hashable; ordering is by (degree, sorted exponent vector), which is a
    deterministic total order used for stable output.
    """

    __slots__ = ("_exp", "_key", "_hash", "_order")

    def __init__(self, exponents: Mapping[Variable, int] | Iterable[tuple[Variable, int]] = ()):
        exp = {}
        for v, e in exponents.items() if isinstance(exponents, dict) or isinstance(exponents, Mapping) else exponents:
            if not isinstance(v, Variable):
                raise TypeError(f"monomial keys must be Variable, got {v!r}")
            if e < 0:
                raise ValueError(f"negative exponent {e} for {v}")
            exp[v] = e
            if not e:
                del exp[v]  # zeros are dropped, and a later pair overrides an earlier one
        self._exp = exp
        self._key = tuple(sorted(exp.items(), key=_variable_order))
        self._hash = hash(self._key)
        self._order = (sum(exp.values()), tuple([(v._sort_key, e) for v, e in self._key]))

    @property
    def exponents(self) -> dict[Variable, int]:
        return dict(self._exp)

    def exponent(self, v: Variable) -> int:
        return self._exp.get(v, 0)

    def degree(self) -> int:
        return sum(self._exp.values())

    def support(self) -> frozenset[Variable]:
        return frozenset(self._exp)

    def is_unit(self) -> bool:
        return not self._exp

    def divides(self, other: "Monomial") -> bool:
        return all(other._exp.get(v, 0) >= e for v, e in self._exp.items())

    def lcm(self, other: "Monomial") -> "Monomial":
        exp = dict(self._exp)
        for v, e in other._exp.items():
            if exp.get(v, 0) < e:
                exp[v] = e
        return Monomial(exp)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Monomial") -> bool:
        return self._order < other._order

    def __str__(self) -> str:
        if not self._exp:
            return "1"
        return "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in self._key)

    def __repr__(self) -> str:
        return f"Monomial({str(self)!r})"


class MonomialIdeal:
    """A monomial ideal, held by its minimal generators over an ordered ambient.

    Construct through :func:`make_ideal`, which minimalizes; the direct
    constructor trusts its input.  ``generators == ()`` is the zero ideal.
    The unit ideal is not representable.
    """

    __slots__ = ("ambient", "generators")

    def __init__(self, ambient: tuple[Variable, ...], generators: tuple[Monomial, ...]):
        self.ambient = tuple(ambient)
        self.generators = tuple(generators)

    def is_zero(self) -> bool:
        return not self.generators

    def support(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for g in self.generators:
            out |= g.support()
        return frozenset(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.ambient == other.ambient
            and set(self.generators) == set(other.generators)
        )

    def __hash__(self) -> int:
        return hash((self.ambient, frozenset(self.generators)))

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    def __repr__(self) -> str:
        return f"MonomialIdeal({str(self)})"

    def __contains__(self, m: Monomial) -> bool:
        """Ideal membership: some minimal generator divides ``m``."""
        return any(g.divides(m) for g in self.generators)


def make_ideal(raw_generators: Iterable[Monomial], ambient: Iterable[Variable]) -> MonomialIdeal:
    """Build the ideal generated by ``raw_generators``, minimalizing them.

    Rejects unit generators (the unit ideal is unsupported) and any
    generator using a variable outside ``ambient``.  Idempotent: feeding a
    minimal generating set back returns the same ideal.
    """
    amb = tuple(ambient)
    if len(set(amb)) != len(amb):
        raise ValueError("ambient contains repeated variables")
    amb_set = set(amb)
    gens: set[Monomial] = set()
    for g in raw_generators:
        if g.is_unit():
            raise ValueError("unit monomial among generators: the unit ideal is unsupported")
        if not amb_set.issuperset(g._exp):
            names = ", ".join(sorted(str(v) for v in g.support() - amb_set))
            raise ValueError(f"generator {g} uses variables outside the ambient: {names}")
        gens.add(g)
    # Sorted by degree first, a proper divisor of g comes before g, and so
    # does a minimal generator dividing g.  A divisor's variables all occur
    # in g, so each kept generator is filed under its first variable only.
    minimal: list[Monomial] = []
    by_first: dict[Variable, list[Monomial]] = {}
    for g in sorted(gens, key=attrgetter("_order")):  # Monomial.__lt__'s order, in C
        if not any(h.divides(g) for v in g._exp for h in by_first.get(v, ())):
            minimal.append(g)
            by_first.setdefault(g._key[0][0], []).append(g)
    return MonomialIdeal(amb, tuple(minimal))


def exponent_vectors(I: MonomialIdeal) -> tuple[tuple[Variable, ...], list[tuple[int, ...]]]:
    """supp(I) in ambient order, and each generator's exponents over it."""
    sup = I.support()
    order = tuple(v for v in I.ambient if v in sup)
    position = {v: k for k, v in enumerate(order)}
    vectors = []
    for g in I.generators:
        vec = [0] * len(order)
        for v, e in g._exp.items():
            vec[position[v]] = e
        vectors.append(tuple(vec))
    return order, vectors


def thermometer_masks(vectors: Sequence[Sequence[int]]) -> list[int]:
    """Bitmask encoding of exponent vectors under which lcm is bitwise OR.

    Position k gets a slot as wide as its largest exponent, and exponent e
    sets the low e bits of that slot.  Each bit is a variable of the
    polarization, and each mask is its generator's polarization.  So the
    lcm of a set is the OR of its masks, divisibility is mask inclusion,
    and the total degree of an lcm is the popcount of the OR.  The masks
    carry no slot layout: exponents are read from the vectors, never
    decoded from a mask.
    """
    offsets = [0, *accumulate(max(column) for column in zip(*vectors))]
    masks = []
    for vec in vectors:
        mask = 0
        for start, e in zip(offsets, vec):
            mask |= ((1 << e) - 1) << start
        masks.append(mask)
    return masks


def set_bit_positions(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending, in O(width) C steps."""
    return list(compress(count(), map("1".__eq__, bin(mask)[:1:-1])))


def subset_counts(masks: list[int]) -> dict[tuple[int, int], int]:
    """T(t, u) = Σ_S t^{|S|} u^{deg lcm S} over all generator subsets S, as
    {(|S|, degree): count}, the empty subset included.

    Each bit is a variable of the polarization, so deg lcm S is the number
    of bits set in some member of S, and a frontier DP over the generators
    counts the subsets exactly.  A state is the OR of the taken masks on
    the open bits: a bit opens, and enters the degree, when its first
    owner is taken, and leaves the key after its last owner.  Generators
    go in BFS order over shared bits, which keeps few bits open at once.
    States never outnumber the subsets of the generators seen so far.

    Each state holds its polynomial in t and u packed into one int: the
    count at t^k u^j is the B-bit field at bit (k·(W+1) + j)·B, W being
    the mask width and B = m + 1 rounded up to a whole byte.  Taking a
    generator shifts by t and by u per bit it opens; states that meet
    add.  Each field is exact at every step: it counts the k-subsets of
    the generators seen so far that cover j bits, at most C(m, k) < 2^m,
    so no field carries into the next, and the result is unpacked once.
    """
    m = len(masks)
    width = max(masks, default=0).bit_length()
    set_bits = [set_bit_positions(mask) for mask in masks]
    owners: list[list[int]] = [[] for _ in range(width)]
    for i, own in enumerate(set_bits):
        for b in own:
            owners[b].append(i)
    order: list[int] = []
    placed = [False] * m
    for root in range(m):
        if placed[root]:
            continue
        placed[root] = True
        queue = [root]
        for i in queue:  # grows while it is read: BFS from root
            for b in set_bits[i]:
                for j in owners[b]:
                    if not placed[j]:
                        placed[j] = True
                        queue.append(j)
        order += queue
    later = [0] * (m + 1)  # position in order -> OR of the masks from there on
    for pos in range(m - 1, -1, -1):
        later[pos] = later[pos + 1] | masks[order[pos]]
    field_bytes = m // 8 + 1
    B = 8 * field_bytes
    take = (width + 1) * B  # one power of t
    states = {0: 1}  # open bits of the lcm -> packed polynomial of its subsets
    for pos, i in enumerate(order):
        mask = masks[i]
        keep = later[pos + 1]  # the bits that a later generator still owns
        step: dict[int, int] = {}
        for bits, poly in states.items():
            key = bits & keep
            step[key] = step.get(key, 0) + poly
            key = (bits | mask) & keep
            step[key] = step.get(key, 0) + (poly << take + (mask & ~bits).bit_count() * B)
        states = step
    raw = states[0].to_bytes((m + 1) * take // 8, "little")
    out = {}
    # the fields with a nonzero byte, found at C speed
    for index in dict.fromkeys(map(floordiv, compress(range(len(raw)), raw), repeat(field_bytes))):
        start = index * field_bytes
        out[divmod(index, width + 1)] = int.from_bytes(raw[start:start + field_bytes], "little")
    return out


def intersect(J: MonomialIdeal, K: MonomialIdeal) -> MonomialIdeal:
    """Intersection of two monomial ideals over the same ambient.

    For monomial ideals the pairwise lcms of the generators generate the
    intersection; the zero ideal absorbs.
    """
    if J.ambient != K.ambient:
        raise ValueError("intersect requires identical ambients")
    if J.is_zero() or K.is_zero():
        return MonomialIdeal(J.ambient, ())
    return make_ideal((u.lcm(v) for u in J.generators for v in K.generators), J.ambient)


def polarize_monomial(u: Monomial) -> Monomial:
    """Replace each v^a by the product of the a distinct variables v_1..v_a."""
    exp: dict[Variable, int] = {}
    for v, a in u.exponents.items():
        for j in range(1, a + 1):
            exp[Variable(v.base, j)] = 1
    return Monomial(exp)


def polarize(I: MonomialIdeal) -> MonomialIdeal:
    """Polarization: a squarefree ideal in doubly indexed variables.

    Each generator v1^{a1}···vn^{an} maps to the product of v_i,1..v_i,ai;
    the ambient consists of v_j for 1 <= j <= (max exponent of v over all
    generators), ordered by (base variable order, polarization index).
    Degrees and the whole Betti table are preserved.
    """
    if I.is_zero():
        raise ValueError("cannot polarize the zero ideal")
    if any(v.is_polarized() for v in I.ambient):
        raise ValueError("input is already polarized; refusing to double-index")
    max_exp = {v: 0 for v in I.ambient}
    for g in I.generators:
        for v, e in g.exponents.items():
            if e > max_exp[v]:
                max_exp[v] = e
    ambient = tuple(
        Variable(v.base, j) for v in I.ambient for j in range(1, max_exp[v] + 1)
    )
    polarized = [polarize_monomial(g) for g in I.generators]
    out = make_ideal(polarized, ambient)
    if len(out.generators) != len(I.generators):
        raise AssertionError("polarization collapsed generators; input was not minimal")
    return out


_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|\d+|[*^(),])")


def _split_polar(name: str, text: str, pos: int) -> Variable:
    m = re.fullmatch(r"(.+?)_(\d+)", name)
    if m:
        idx = int(m.group(2))
        if idx < 1:
            raise IdealSyntaxError(f"polarization index must be >= 1 in {name!r}", text, pos)
        return Variable(m.group(1), idx)
    return Variable(name)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str | None:
        m = _TOKEN.match(self.text, self.pos)
        return m.group(1) if m else None

    def next(self) -> tuple[str, int]:
        m = _TOKEN.match(self.text, self.pos)
        if not m:
            rest = self.text[self.pos :].strip()
            what = f"unexpected character {rest[0]!r}" if rest else "unexpected end of input"
            raise IdealSyntaxError(what, self.text, self.pos)
        self.pos = m.end()
        return m.group(1), m.start(1)

    def at_end(self) -> bool:
        return not self.text[self.pos :].strip()


def _parse_monomial_tokens(sc: _Scanner) -> Monomial:
    exp: dict[Variable, int] = {}
    while True:
        tok, tokpos = sc.next()
        if tok == "1" and not exp:
            pass  # unit monomial
        elif tok[0].isdigit() or tok in "*^(),":
            raise IdealSyntaxError(f"expected a variable, got {tok!r}", sc.text, tokpos)
        else:
            v = _split_polar(tok, sc.text, tokpos)
            e = 1
            if sc.peek() == "^":
                sc.next()
                etok, epos = sc.next()
                if not etok.isdigit() or int(etok) < 1:
                    raise IdealSyntaxError(f"expected a positive exponent, got {etok!r}", sc.text, epos)
                e = int(etok)
            exp[v] = exp.get(v, 0) + e
        if sc.peek() == "*":
            sc.next()
            continue
        return Monomial(exp)


def parse_monomial(text: str) -> Monomial:
    """Parse ``x1*x2^3`` syntax; ``1`` is the unit monomial."""
    sc = _Scanner(text)
    m = _parse_monomial_tokens(sc)
    if not sc.at_end():
        raise IdealSyntaxError("trailing input after monomial", text, sc.pos)
    return m


def parse_ideal(text: str, ambient: Iterable[Variable] | None = None) -> MonomialIdeal:
    """Parse ``(g1, g2, ...)``; ``(0)`` and ``()`` denote the zero ideal.

    When ``ambient`` is omitted it is the sorted set of variables appearing
    in the generators.
    """
    sc = _Scanner(text)
    tok, tokpos = sc.next()
    if tok != "(":
        raise IdealSyntaxError(f"expected '(', got {tok!r}", text, tokpos)
    gens: list[Monomial] = []
    if sc.peek() == ")":
        sc.next()
    elif sc.peek() == "0":
        sc.next()
        tok, tokpos = sc.next()
        if tok != ")":
            raise IdealSyntaxError(f"expected ')' after 0, got {tok!r}", text, tokpos)
    else:
        while True:
            gens.append(_parse_monomial_tokens(sc))
            tok, tokpos = sc.next()
            if tok == ")":
                break
            if tok != ",":
                raise IdealSyntaxError(f"expected ',' or ')', got {tok!r}", text, tokpos)
    if not sc.at_end():
        raise IdealSyntaxError("trailing input after ideal", text, sc.pos)
    if ambient is None:
        seen: set[Variable] = set()
        for g in gens:
            seen |= g.support()
        ambient = sorted(seen)
    return make_ideal(gens, ambient)
