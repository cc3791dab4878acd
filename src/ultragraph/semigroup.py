"""The inverse semigroup of ultrapath pairs with matching ranges.

Elements are pairs (x, y) of ultrapaths with range(x) = range(y), plus an
absorbing zero.  The partial product follows three rewrite rules driven by
initial segments; everything else multiplies to the zero.  Semicharacters
of the idempotent semilattice come in three kinds: ultrapath, lasso, and
the constant-one character.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .core import LatticeG0, SizeLimitError, Ultragraph, set_key
from .paths import (
    LassoPath,
    Ultrapath,
    concat,
    enumerate_paths,
    initial_segment,
    strip_lasso,
)


class SGElement(NamedTuple):
    """A pair of range-matched ultrapaths, or the absorbing zero (both None),
    as an immutable named tuple."""

    left: Optional[Ultrapath]
    right: Optional[Ultrapath]

    @property
    def is_omega(self) -> bool:
        return self.left is None

    def __str__(self) -> str:
        if self.is_omega:
            return "omega"
        return f"[{self.left} | {self.right}]"


OMEGA = SGElement(None, None)


def pair(x: Ultrapath, y: Ultrapath) -> SGElement:
    if x.terminal != y.terminal:
        raise ValueError("both coordinates must share one range set")
    return SGElement(x, y)


def idempotent(x: Ultrapath) -> SGElement:
    return SGElement(x, x)


def product(g: Ultragraph, s: SGElement, t: SGElement) -> SGElement:
    """Partial product with the zero filling every undefined case.

    Writing s = (w, z) and t = (x, y): if x extends z the product is
    (w . x', y) for the remainder x'; if z extends x it is (w, y . z');
    and when both inner coordinates are length zero with overlapping sets
    the product is (w . range(y), y . range(w)).  When several rules apply
    their results coincide, which is checked.
    """
    w, z = s.left, s.right
    x, y = t.left, t.right
    if w is None or x is None:
        return OMEGA
    out = OMEGA

    rem = initial_segment(g, x, z)
    if rem is not None:
        grown = concat(g, w, rem)
        if grown is None:
            raise RuntimeError("remainder of x does not extend w")
        out = SGElement(grown, y)

    rem = initial_segment(g, z, x)
    if rem is not None:
        grown = concat(g, y, rem)
        if grown is None:
            raise RuntimeError("remainder of z does not extend y")
        out = _agree(out, SGElement(w, grown))

    if not z.word and not x.word and (z.terminal & x.terminal):
        a = concat(g, w, x)
        b = concat(g, y, z)
        if a is None or b is None:
            raise RuntimeError("overlapping length-zero sets do not extend")
        out = _agree(out, SGElement(a, b))
    return out


def _agree(first: SGElement, later: SGElement) -> SGElement:
    """The earlier rule's result, once a later rule that applies agrees."""
    if first is OMEGA:
        return later
    if later != first:
        raise RuntimeError("overlapping rules disagree")
    return first


def star(s: SGElement) -> SGElement:
    """The involution swapping coordinates; fixes the zero."""
    if s.left is None:
        return OMEGA
    return SGElement(s.right, s.left)


def is_idempotent(s: SGElement) -> bool:
    return s.is_omega or s.left == s.right


def idempotent_leq(g: Ultragraph, e: SGElement, f: SGElement) -> bool:
    """e <= f in the idempotent semilattice: the product ef equals e."""
    if not (is_idempotent(e) and is_idempotent(f)):
        raise ValueError("order is defined on idempotents only")
    return product(g, e, f) == e


def idempotent_leq_by_shape(g: Ultragraph, e: SGElement, f: SGElement) -> bool:
    """Order decided from lengths and ranges instead of a product.

    For nonzero idempotents (z, z) and (x, x) with nonzero product:
    (z, z) <= (x, x) iff z is longer than x, or they have equal length and
    range(z) is contained in range(x).  Used as a cross-check on
    idempotent_leq.
    """
    if not (is_idempotent(e) and is_idempotent(f)):
        raise ValueError("order is defined on idempotents only")
    if e.is_omega:
        return True
    if f.is_omega:
        return False
    if product(g, e, f).is_omega:
        return False
    z, x = e.left, f.left
    return z.length > x.length or (
        z.length == x.length and z.terminal <= x.terminal
    )


def generate_elements(
    g: Ultragraph, lat: LatticeG0, max_len: int, max_count: int = 200_000
) -> List[SGElement]:
    """The zero plus every range-matched pair of ultrapaths up to max_len."""
    paths = enumerate_paths(g, lat, max_len, max_count=max_count)
    by_range = {}
    for p in paths:
        by_range.setdefault(p.terminal, []).append(p)
    out: List[SGElement] = [OMEGA]
    for terminal in sorted(by_range, key=set_key):
        group = by_range[terminal]
        for x in group:
            for y in group:
                out.append(SGElement(x, y))
                if len(out) > max_count:
                    raise SizeLimitError(
                        f"element generation exceeded max_count={max_count}"
                    )
    return out


@dataclass(frozen=True)
class Semicharacter:
    """A multiplicative 0/1 functional on the idempotents.

    Three kinds: an ultrapath (finite filter), a lasso (filter of all its
    finite initial segments), or neither set, the constant-one character.
    """

    path: Optional[Ultrapath] = None
    ray: Optional[LassoPath] = None

    def __post_init__(self):
        if self.path is not None and self.ray is not None:
            raise ValueError("at most one of path and ray may be set")

    @property
    def is_constant_one(self) -> bool:
        return self.path is None and self.ray is None


OMEGA_CHARACTER = Semicharacter()


def eval_char(g: Ultragraph, chi: Semicharacter, e: SGElement) -> int:
    """Value of the semicharacter on an idempotent, 0 or 1.

    An ultrapath y accepts (x, x) when their product is nonzero and x is
    shorter than y, or equally long with range(x) containing range(y).
    A lasso accepts (x, x) when x is an initial segment of it.
    """
    if not is_idempotent(e):
        raise ValueError("semicharacters act on idempotents")
    if chi.is_constant_one:
        return 1
    if e.is_omega:
        return 0
    x = e.left
    if chi.path is not None:
        y = chi.path
        if product(g, e, SGElement(y, y)).is_omega:
            return 0
        ok = x.length < y.length or (
            x.length == y.length and x.terminal >= y.terminal
        )
        return 1 if ok else 0
    return 1 if strip_lasso(g, chi.ray, x) is not None else 0


def filter_of(
    g: Ultragraph, chi: Semicharacter, universe: Sequence[SGElement]
) -> Tuple[SGElement, ...]:
    """The idempotents in the universe the character accepts, in universe order."""
    return tuple(e for e in universe if eval_char(g, chi, e) == 1)
