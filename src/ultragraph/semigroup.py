"""The inverse semigroup of ultrapath pairs with matching ranges.

Elements are pairs (x, y) of ultrapaths with range(x) = range(y), plus an
absorbing zero.  The partial product follows three rewrite rules driven by
initial segments; everything else multiplies to the zero.  Semicharacters
of the idempotent semilattice come in three kinds: ultrapath, lasso, and
the constant-one character.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core import SizeLimitError, Ultragraph, VSet, set_key
from .paths import (
    LassoPath,
    Ultrapath,
    _counted_paths,
    concat,
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

# builds an SGElement from a pair without the Python frame of the
# NamedTuple's own __new__, for star and generate_elements, which build
# one per listed element
_new = tuple.__new__


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
    their results coincide, which is checked.  Past the length-zero branch
    the rules take two steps: rule_remainders reads the inner pair (z, x),
    and glue joins w and y onto what it found.

    Inner coordinates of length zero, as in every Cuntz-Krieger meet, take
    one inline branch.  There z and x are sets, C = z n x, and every rule
    glues a set onto w or y, so each result is built from w n x and y n z:
    rule 1 applies iff x lies in z, rule 2 iff z lies in x, and the overlap
    rule iff C is nonempty.  The errors fire in the order of the general
    path, on hand-built elements whose ranges do not match too.  The
    idempotent (C, C) of a Cuntz-Krieger meet comes from a memo keyed by C.
    """
    w, z = s.left, s.right
    x, y = t.left, t.right
    if w is None or x is None:
        return OMEGA

    if not z.word and not x.word:
        zt, xt = z.terminal, x.terminal
        meet = zt & xt
        if not meet:
            # a containment rule still applies when one set is empty
            if not xt:
                raise RuntimeError("remainder of x does not extend w")
            if not zt:
                raise RuntimeError("remainder of z does not extend y")
            return OMEGA
        wt, yt = w.terminal, y.terminal
        # in a Cuntz-Krieger meet w is z and y is x: both cuts are the meet,
        # and the result is the shared idempotent on it
        left_t = meet if wt is zt else wt & xt
        right_t = meet if yt is xt else yt & zt
        rule1 = meet == xt
        rule2 = meet == zt
        if rule1 and not left_t:
            raise RuntimeError("remainder of x does not extend w")
        if rule2 and not right_t:
            raise RuntimeError("remainder of z does not extend y")
        if not left_t or not right_t:
            raise RuntimeError("overlapping length-zero sets do not extend")
        # rule 1 keeps y and rule 2 keeps w, where the overlap rule cuts both
        if (rule1 and right_t != yt) or (rule2 and left_t != wt):
            raise RuntimeError("overlapping rules disagree")
        if right_t is left_t and not w.word and not y.word:
            return _set_idempotent(left_t)
        return SGElement(Ultrapath(w.word, left_t), Ultrapath(y.word, right_t))

    rem1, rem2 = rule_remainders(g, z, x)
    return glue(
        w,
        y,
        rem1,
        rem2,
        None if rem1 is None else concat(g, w, rem1),
        None if rem2 is None else concat(g, y, rem2),
    )


@lru_cache(maxsize=4096)
def _set_idempotent(t: VSet) -> SGElement:
    """The length-zero idempotent (t, t), shared per set t across graphs."""
    return idempotent(Ultrapath((), t))


def rule_remainders(
    g: Ultragraph, z: Ultrapath, x: Ultrapath
) -> Tuple[Optional[Ultrapath], Optional[Ultrapath]]:
    """The remainders of the inner pair (z, x) that decide (w, z)(x, y):
    x' with x = z . x' for rule 1 and z' with z = x . z' for rule 2, each
    None when its rule does not apply.  The pair (x, z) has the same two,
    swapped."""
    return initial_segment(g, x, z), initial_segment(g, z, x)


def glue(
    w: Ultrapath,
    y: Ultrapath,
    rule1: Optional[Ultrapath],
    rule2: Optional[Ultrapath],
    grown_w: Optional[Ultrapath],
    grown_y: Optional[Ultrapath],
) -> SGElement:
    """Rules 1 and 2 on (w, z)(x, y), given what rule_remainders found for
    (z, x): rule1 and rule2 are the remainders x' and z', None when the
    rule does not apply; grown_w = w . x' and grown_y = y . z', None when
    the concatenation is undefined.  The zero when neither rule applies."""
    out = OMEGA
    if rule1 is not None:
        if grown_w is None:
            raise RuntimeError("remainder of x does not extend w")
        out = SGElement(grown_w, y)
    if rule2 is not None:
        if grown_y is None:
            raise RuntimeError("remainder of z does not extend y")
        out = _agree(out, SGElement(w, grown_y))
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
    return _new(SGElement, (s.right, s.left))


def is_idempotent(s: SGElement) -> bool:
    return s.is_omega or s.left == s.right


def idempotent_leq(g: Ultragraph, e: SGElement, f: SGElement) -> bool:
    """e <= f in the idempotent semilattice: the product ef equals e."""
    if not (is_idempotent(e) and is_idempotent(f)):
        raise ValueError("order is defined on idempotents only")
    return product(g, e, f) == e


def idempotent_leq_by_shape(g: Ultragraph, e: SGElement, f: SGElement) -> bool:
    """Order read off initial segments instead of a product: (z, z) <=
    (x, x) iff z extends x, z = x . z'.  The zero lies below everything
    and nothing nonzero lies below it.  Used as a cross-check on
    idempotent_leq.
    """
    if not (is_idempotent(e) and is_idempotent(f)):
        raise ValueError("order is defined on idempotents only")
    return _leq_by_shape(g, e, f)


def _leq_by_shape(g: Ultragraph, e: SGElement, f: SGElement) -> bool:
    """idempotent_leq_by_shape for callers that have already picked e and f
    as idempotents: the same answer with no idempotent check."""
    if e.is_omega or f.is_omega:
        return e.is_omega
    return initial_segment(g, e.left, f.left) is not None


def generate_elements(
    g: Ultragraph, max_len: int, max_count: int = 200_000
) -> List[SGElement]:
    """The zero plus every range-matched pair of ultrapaths up to max_len.

    A terminal shared by n paths gives n^2 pairs, so a path drawn with k
    before it in its terminal's group adds 2k + 1 of them: the pairs are
    counted as the paths are drawn, and past max_count it raises
    SizeLimitError before the rest are built."""
    by_range: Dict[VSet, List[Ultrapath]] = {}
    count = 1
    for p in _counted_paths(g, max_len, max_count)[1]:
        group = by_range.setdefault(p.terminal, [])
        count += 2 * len(group) + 1
        if count > max_count:
            raise SizeLimitError(f"element generation exceeded max_count={max_count}")
        group.append(p)
    out: List[SGElement] = [OMEGA]
    for terminal in sorted(by_range, key=set_key):
        group = by_range[terminal]
        out.extend(_new(SGElement, (x, y)) for x in group for y in group)
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
    """Value of the semicharacter on an idempotent, 0 or 1: an ultrapath
    or a lasso accepts (x, x) when x is an initial segment of it.
    """
    if not is_idempotent(e):
        raise ValueError("semicharacters act on idempotents")
    if chi.is_constant_one:
        return 1
    if e.is_omega:
        return 0
    if chi.path is not None:
        return 1 if initial_segment(g, chi.path, e.left) is not None else 0
    return 1 if strip_lasso(g, chi.ray, e.left) is not None else 0


def filter_of(
    g: Ultragraph, chi: Semicharacter, universe: Sequence[SGElement]
) -> Tuple[SGElement, ...]:
    """The idempotents in the universe the character accepts, in universe order."""
    return tuple(e for e in universe if eval_char(g, chi, e) == 1)
