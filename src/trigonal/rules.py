"""The one-row rules, in pure Python: the tuple rule, the confluence and line
trichotomies, and the closed form of the bijection on one row.

`classify` answers from this module alone, on Python ints, so it loads no
numpy and builds no table.  Each rule is defined here once; `monodromy`,
`sympf3` and `correspondence` import what they use of it beside its array
form, and the tests pin the two equal.  The chain's two forms are stated
here, and only here, each on its own: the Hermitian Gram matrix `GRAM`
over Z[tau], as integer pairs, which `lattice` builds on and `export gram`
writes without loading numpy, and its symplectic reduction mod theta,
`SYMP_COLUMNS`, which is not derived from `GRAM`, so that `verify`'s
mod-theta row compares two independent statements.  The sizes come from
the package's RANK, read once, at import: DIM = RANK coordinates and
TUPLE_LEN = RANK + 2 slots.
"""

from __future__ import annotations

import operator


def supported_rank() -> int:
    """The package's RANK, or ValueError for an odd rank or one below 4."""
    from . import RANK
    if RANK % 2 or RANK < 4:
        raise ValueError(f"rank {RANK} is not supported: the package "
                         "supports even ranks from 4 up")
    return RANK


DIM = supported_rank()
TUPLE_LEN = DIM + 2

# -- the tuple side -----------------------------------------------------------

#: the tuple rule, in the order it is applied; a raw 12-tuple breaks none
TUPLE_RULES = (
    "transposition codes must lie in {0, 1, 2}",
    "monodromy not surjective: a constant tuple generates a group of order 2",
    f"the ordered product of the {TUPLE_LEN} transpositions is not the "
    "identity")

_LETTERS = frozenset(range(3))


def broken_rules(codes) -> int:
    """The index of the first of TUPLE_RULES that one row of TUPLE_LEN
    letters, a list or tuple, breaks, or -1 for a raw tuple.

    A letter is a value equal to 0, 1 or 2, so a float, a huge int or NaN
    breaks the first rule without a cast; the sums run only on letters."""
    seen = set(codes)
    if not seen <= _LETTERS:
        return 0
    if len(seen) == 1:
        return 1
    if (sum(codes[::2]) - sum(codes[1::2])) % 3:
        return 2
    return -1


def parse_tuple_string(s: str) -> list[int]:
    """Decode a 12-character code string over {0, 1, 2} that is raw, as a
    list of ints.

    The letters are the string's UTF-8 bytes less ord("0"): any other
    character is a byte outside 0..2, or more than one byte.  A lone
    surrogate, which argv can hold, is encoded as "?"."""
    zero = ord("0")
    codes = [c - zero for c in s.encode(errors="replace")]
    broken = broken_rules(codes) if len(codes) == TUPLE_LEN else 0
    if broken == 0:
        raise ValueError(f"a monodromy tuple is {TUPLE_LEN} characters "
                         "over {0,1,2}")
    if broken > 0:
        raise ValueError(TUPLE_RULES[broken])
    return codes


CONFLUENCE_CLASSES = ("H", "RM", "SG")


def check_slot(pos: int) -> None:
    """IndexError unless pos is a slot 0..TUPLE_LEN - 1; no other value is
    one, such as the [] that argparse gives the slot of `classify T -- --`."""
    if pos not in range(TUPLE_LEN):
        raise IndexError(f"position must be in 0..{TUPLE_LEN - 1}, got {pos!r}")


def classify_confluence_codes(codes, pos: int) -> str:
    """The label of one row of 12 letters collapsed at slots (pos, pos+1 mod
    12): RM when the two letters differ, otherwise H when the other ten
    letters are all equal, otherwise SG.  The row rotated by pos starts
    with the collapsed pair.  `monodromy.confluence_labels` is its array
    form."""
    check_slot(pos)
    rotated = [*codes[pos:], *codes[:pos]]
    if rotated[0] != rotated[1]:
        return CONFLUENCE_CLASSES[1]
    return CONFLUENCE_CLASSES[0 if len(set(rotated[2:])) == 1 else 2]


# -- the chain's Hermitian form -----------------------------------------------
#
# The element a + b*tau of Z[tau], tau^2 = tau - 1, is the pair (a, b) of
# ints.  theta = tau - conj(tau) = -1 + 2*tau has theta^2 = -3 and generates
# the prime above 3, with residue field F_3.

THETA = (-1, 2)

#: the chain's entries GRAM[i][i + d] by the offset d; zero off the chain
_CHAIN = {0: (-3, 0), 1: THETA, -1: (1, -2)}     # (1, -2) = -theta
#: the chain Gram matrix herm(a_i, a_j), a nested tuple of pairs
GRAM = tuple(tuple(_CHAIN.get(j - i, (0, 0)) for j in range(DIM))
             for i in range(DIM))


# -- the line side ------------------------------------------------------------

LINE_CLASSES = ("H", "RM", "SG")
#: the lines of each class relative to a fixed line ell: ell-perp is a
#: hyperplane of 3^(DIM-1) vectors, RM is its lines other than ell, and SG
#: the 3^(DIM-1) points off it
LINE_CLASS_COUNTS = {"H": 1, "RM": (3 ** (DIM - 1) - 1) // 2 - 1,
                     "SG": 3 ** (DIM - 1)}

#: the columns of the chain's symplectic form mod 3, as lists: column j
#: holds symp(alpha_i, alpha_j), 1 for i = j - 1, 2 = -1 for i = j + 1 and
#: 0 elsewhere.  This is the form's one definition: `sympf3.SYMP_GRAM` is
#: its array, and the CLI's mod-theta check compares every column with the
#: lattice's Gram matrix reduced mod theta.
SYMP_COLUMNS = [[{j - 1: 1, j + 1: 2}.get(i, 0) for i in range(DIM)]
                for j in range(DIM)]


def line_labels(v: list, ell: list) -> int:
    """The label code, 0=H, 1=RM, 2=SG, of one nonzero vector v relative to
    one line [ell], lists of DIM ints 0..2: SG when symp(v, ell) = v .
    (SYMP_GRAM ell) is nonzero mod 3, otherwise H when v = ell or v = 2 ell
    = -ell, otherwise RM.  The form is alternating, so the line ell has
    symp 0 with itself, and testing symp first gives the same labels.  Only
    the columns where ell is nonzero are read.
    `sympf3.line_class_vector` is its array form."""
    symp = 0
    for e, column in zip(ell, SYMP_COLUMNS):
        if e:
            symp += e * sum(map(operator.mul, v, column))
    if symp % 3:
        return 2
    return 0 if v == ell or v == [2 * e % 3 for e in ell] else 1


# -- the closed form of the bijection -----------------------------------------


def _p_column(i: int) -> list[int]:
    """Column i of P = D S, i = 1..DIM, without its trailing zeros: the
    coefficients of t_0..t_i in v_i = sum of d_k over k <= i, k = i (mod 2),
    with d_k = t_k - t_{k-1}."""
    column = [0] * (i + 1)
    for k in range(i, 0, -2):
        column[k] += 1
        column[k - 1] -= 1
    return column


#: the columns of the (TUPLE_LEN, DIM) matrix P as lists without their
#: trailing zeros, so that the products of `point_vectors` stop at the
#: shorter list
P_COLUMNS = [_p_column(i) for i in range(1, DIM + 1)]


def point_vectors(codes: list) -> list[int]:
    """The closed form of forward^{-1} on one row of 12 letters, a list of
    ints: the vector v = t P mod 3, as a list of 10 ints.

    v spans the point of the class of the row: v_i = sum of d_k over k <= i,
    k = i (mod 2), with d_k = t_k - t_{k-1} mod 3, i.e. v_1 = d_1, v_2 = d_2
    and v_i = d_i + v_{i-2}.  This map is F_3-linear; on a whole table it
    is the product `codes @ P % 3`, P the matrix of P_COLUMNS padded with
    zeros.  Any of the six relabelings of a row gives the same point, so
    rows need not be canonical: every column of P sums to 0, and a
    relabeling c -> +-c + a only changes the sign of v.  No table is built.
    """
    return [sum(map(operator.mul, codes, column)) % 3
            for column in P_COLUMNS]
