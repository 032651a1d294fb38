"""Subset-indexed exact algebra: bitmask families, shift operator, moment matrices.

Subsets of the ground set V = {0, ..., n-1} are encoded as int bitmasks
(n <= 63). Dense operations that enumerate the full power set are capped
at n <= 20. `signed_base` is the one coefficient form of the signed sum
B(I, J) = sum_{L <= J} (-1)^|L| y_{I u L} (Laurent 2003); B(X, S\\X) is
the indicator polynomial of assignment X on S, and z^X sums y' over it.
"""

from __future__ import annotations

import json
import math

from .rationals import Q, ZERO, rat, rat_str

MAX_GROUND = 63
MAX_DENSE = 20


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def submasks(mask: int):
    """All submasks of `mask`, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def canon_key(mask: int) -> tuple[int, int]:
    """Canonical family order: cardinality first, then numeric bitmask."""
    return (mask.bit_count(), mask)


def count_p_t(n: int, t: int) -> int:
    """|P_t(V)| for |V| = n: the number of subsets of size at most t."""
    return sum(math.comb(n, k) for k in range(min(t, n) + 1))


def family_p_t(n: int, t: int) -> tuple[int, ...]:
    """P_t(V): the masks of all subsets of {0..n-1} of size at most t, in
    canonical order (`canon_key`)."""
    if n > MAX_GROUND:
        raise ValueError(f"ground set too large: {n} > {MAX_GROUND}")
    # enumerate by size: each mask extends a smaller one by a higher item,
    # so every mask comes once; no subset has more than n items
    out = [0] if t >= 0 else []
    frontier = [0]
    for _ in range(min(t, n)):
        nxt = []
        for m in frontier:
            top = m.bit_length()
            for i in range(top, n):
                nxt.append(m | (1 << i))
        out.extend(nxt)
        frontier = nxt
    return tuple(sorted(out, key=canon_key))


def family_powerset(mask: int) -> tuple[int, ...]:
    """P(U) for the ground subset U given as a bitmask: the masks of its
    subsets in canonical order."""
    return tuple(sorted(submasks(mask), key=canon_key))


def is_closed_under_shifting(masks, s_mask: int) -> bool:
    """True iff Y in T and X subset of S imply X | Y in T, for the family
    T of subset masks given as any iterable."""
    family = set(masks)
    return all((x | y) in family for y in family for x in submasks(s_mask))


class SetVector:
    """Exact rational vector indexed by subsets of the ground set.

    Lookup outside the stored support raises KeyError unless the vector
    is flagged `extended`, in which case missing entries read as 0.
    """

    __slots__ = ("n", "values", "extended")

    def __init__(self, n: int, values: dict[int, Q], extended: bool = False):
        if n > MAX_GROUND:
            raise ValueError(f"ground set too large: {n} > {MAX_GROUND}")
        self.n = n
        self.values = values
        self.extended = extended

    def __getitem__(self, mask: int):
        v = self.values.get(mask)
        if v is not None:
            return v
        if self.extended:
            return ZERO
        raise KeyError(f"subset {indices_of(mask)} outside support of non-extended vector")

    def get(self, mask: int, default=ZERO):
        return self.values.get(mask, default)

    def __eq__(self, other):
        if not isinstance(other, SetVector) or self.n != other.n:
            return NotImplemented
        keys = set(self.values) | set(other.values)
        return all(self.get(k) == other.get(k) for k in keys)

    def __repr__(self):
        nz = sum(1 for v in self.values.values() if v != 0)
        return f"SetVector(n={self.n}, {len(self.values)} stored, {nz} nonzero)"

    def copy(self) -> "SetVector":
        return SetVector(self.n, dict(self.values), self.extended)


def extend(y: SetVector) -> SetVector:
    """Extension: same stored entries, out-of-support lookups read as 0."""
    return SetVector(y.n, dict(y.values), extended=True)


def restrict_reindex(y: SetVector, keep_mask: int) -> SetVector:
    """Keep only subsets of keep_mask and relabel its items as 0..|keep|-1."""
    keep = indices_of(keep_mask)
    pos = {i: p for p, i in enumerate(keep)}
    values = {}
    for m, v in y.values.items():
        if m & ~keep_mask:
            continue
        values[mask_of(pos[i] for i in indices_of(m))] = v
    return SetVector(len(keep), values, y.extended)


def signed_base(i_mask: int, j_mask: int, extra_bit: int = 0) -> dict:
    """B(I, J) = sum_{L <= J} (-1)^|L| y_{I u L u extra} as {mask: coefficient},
    the one coefficient form of B(I, J). B(X, S\\X) is the indicator
    polynomial prod_{i in X} x_i prod_{j in S\\X} (1 - x_j) of X on S.
    The coefficients are plain ints (+-1, or 0 where extra lies in J), so
    rows built from them stay on ints until a rational scale meets them."""
    out = {}
    for l in submasks(j_mask):
        m = i_mask | l | extra_bit
        out[m] = out.get(m, 0) + (-1 if l.bit_count() % 2 else 1)
    return out


def shift(x: SetVector, y: SetVector) -> SetVector:
    """Shift operator: (x*y)_I = sum_J x_J y_{I u J} over the full power set."""
    n = x.n
    if n != y.n:
        raise ValueError("ground-set mismatch")
    if n > MAX_DENSE:
        raise ValueError(f"dense shift capped at n <= {MAX_DENSE}")
    if not (x.extended or len(x.values) == 1 << n):
        raise ValueError("x must be extended over the full power set")
    if not (y.extended or len(y.values) == 1 << n):
        raise ValueError("y must be extended over the full power set")
    xs = [(j, v) for j, v in x.values.items() if v != 0]
    values = {}
    for i in range(1 << n):
        acc = ZERO
        for j, v in xs:
            acc += v * y.get(i | j)
        values[i] = acc
    return SetVector(n, values, extended=True)


def z_vector(yext: SetVector, s_mask: int, x_mask: int, masks=None) -> SetVector:
    """z^X = P^X * y' on `masks` (default: the full power set): z^X_I =
    sum c_m y'_{I u m} over {m: c_m} = signed_base(X, S\\X)."""
    if x_mask & ~s_mask:
        raise ValueError("X must be a subset of S")
    if not yext.extended:
        raise ValueError("z_vector requires an extended vector")
    if masks is None:
        if yext.n > MAX_DENSE:
            raise ValueError("default full-power-set support capped at n <= 20")
        masks = range(1 << yext.n)
    items = signed_base(x_mask, s_mask & ~x_mask).items()
    values = {}
    for i in masks:
        acc = ZERO
        for m, c in items:
            acc += c * yext[i | m]
        values[i] = acc
    return SetVector(yext.n, values)


def moment_matrix(y: SetVector, masks) -> list[list]:
    """M_T(y) as row lists: entry (I, J) is y_{I u J} for the family T given
    as a sequence of subset masks, rows and columns in its order."""
    get = y.values.get
    rows = [[None] * len(masks) for _ in masks]
    # unions are symmetric, so each entry fills both triangles
    for i, mi in enumerate(masks):
        row = rows[i]
        for j in range(i + 1):
            v = get(mi | masks[j])
            if v is None:  # ZERO, or the KeyError of a non-extended vector
                v = y[mi | masks[j]]
            row[j] = rows[j][i] = v
    return rows


def setvector_to_json(y: SetVector) -> str:
    obj = {json.dumps(indices_of(m)): rat_str(v)
           for m, v in sorted(y.values.items(), key=lambda kv: canon_key(kv[0]))}
    return json.dumps(obj, indent=1)


def setvector_from_json(text: str, n: int) -> SetVector:
    """Parse {"[i, j, ...]": "p/q", ...}; each subset may appear once."""
    # objects load as tuples of pairs, so a repeated key is seen, not dropped
    pairs = json.loads(text, object_pairs_hook=tuple)
    if not isinstance(pairs, tuple):
        raise ValueError("point must be a JSON object mapping subsets to values")
    values = {}
    for key, val in pairs:
        try:
            idx = json.loads(key)
        except json.JSONDecodeError:
            idx = None
        if not (isinstance(idx, list)
                and all(type(i) is int for i in idx)):  # bool is an int
            raise ValueError(f"point key {key!r} is not a list of item indices")
        if any(i < 0 for i in idx):
            raise ValueError(f"point key {key!r} has a negative item index")
        m = mask_of(idx)
        if m >> n:
            raise ValueError(f"subset {idx} outside ground set of size {n}")
        if m in values:
            raise ValueError(f"subset {indices_of(m)} is given twice")
        values[m] = rat(val)
    return SetVector(n, values)
