"""Exact integer linear algebra: Smith normal form, kernels, cohomology.

Everything here is over Z with arbitrary-precision integers.  Matrices are
dense lists of lists, except for coboundaries: there a sparse elimination
splits off unit pivots (invariant factor 1), taking the shortest waiting
row from a heap instead of searching the whole matrix, and hands the small
dense core that is left to the Smith form.  The Smith form has one call
shape: it always returns U, W and both inverses.  A cohomology basis reads
its kernel off W and the kernel coordinates of a vector off W^-1, one
Smith form of the outgoing map.  Maps of cohomology groups test
injectivity through an integer kernel on the presentation coordinates
whose relation is not 1, the only ones the groups see.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress

from .scalars import padic_valuation


class IntMatrix:
    """Dense integer matrix with explicit shape (zero-size shapes allowed)."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            self.rows = [[0] * ncols for _ in range(nrows)]
        else:
            rows = [list(r) for r in rows]
            if len(rows) != nrows or any(len(r) != ncols for r in rows):
                raise ValueError("shape mismatch")
            self.rows = rows

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        m = cls(n, n)
        for i in range(n):
            m.rows[i][i] = 1
        return m

    @classmethod
    def from_cols(cls, cols, nrows: int) -> "IntMatrix":
        m = cls(nrows, len(cols))
        for j, c in enumerate(cols):
            for i, v in enumerate(c):
                m.rows[i][j] = v
        return m

    def column(self, j: int) -> list:
        return [r[j] for r in self.rows]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        out = IntMatrix(self.nrows, other.ncols)
        for i, row in enumerate(self.rows):
            orow = out.rows[i]
            for k, v in enumerate(row):
                if v:
                    brow = other.rows[k]
                    for j, w in enumerate(brow):
                        if w:
                            orow[j] += v * w
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.rows)))

    def is_zero(self) -> bool:
        return all(v == 0 for r in self.rows for v in r)

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols})"


def _add_row(rows, i, j, k):
    """rows[i] += k * rows[j], visiting only the nonzero entries of rows[j]."""
    ri, rj = rows[i], rows[j]
    for c in compress(range(len(rj)), rj):
        ri[c] += k * rj[c]


def _snf(M: IntMatrix):
    """(D, U, W, Uinv, Winv): U @ M @ W == D, diagonal chain d_i | d_{i+1}, d_i >= 0.

    Uinv and Winv are the inverses of the unimodular U and W.  Pivoting on
    a minimal-magnitude entry of M's block keeps intermediate growth down;
    the four transforms follow each step and never steer it.  W and Uinv
    are kept transposed, so every transform update is a row operation.
    """
    m, n = M.nrows, M.ncols
    A = [r[:] for r in M.rows]
    U = IntMatrix.identity(m).rows
    Uinv_t = IntMatrix.identity(m).rows
    W_t = IntMatrix.identity(n).rows
    Winv = IntMatrix.identity(n).rows

    def row_swap(i, j):
        for rows in (A, U, Uinv_t):
            rows[i], rows[j] = rows[j], rows[i]

    def row_add(i, j, k):
        # row i += k * row j; Uinv col j -= k * col i
        _add_row(A, i, j, k)
        _add_row(U, i, j, k)
        _add_row(Uinv_t, j, i, -k)

    def row_neg(i):
        for rows in (A, U, Uinv_t):
            rows[i] = [-v for v in rows[i]]

    def col_swap(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for rows in (W_t, Winv):
            rows[i], rows[j] = rows[j], rows[i]

    def col_add(i, j, k):
        # col i += k * col j; Winv row j -= k * row i
        for r in A:
            if r[j]:
                r[i] += k * r[j]
        _add_row(W_t, i, j, k)
        _add_row(Winv, j, i, -k)

    t = 0
    while True:
        # locate a minimal nonzero entry in the remaining block
        piv = None
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                v = Ai[j]
                if v:
                    a = abs(v)
                    if best is None or a < best:
                        best = a
                        piv = (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        i, j = piv
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if A[t][t] < 0:
            row_neg(t)

        dirty = False
        for i in range(t + 1, m):
            v = A[i][t]
            if v:
                q = v // A[t][t]
                if q:
                    row_add(i, t, -q)
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            v = A[t][j]
            if v:
                q = v // A[t][t]
                if q:
                    col_add(j, t, -q)
                if A[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders left; rerun pivot search on the same corner

        # pivot divides its row and column; enforce divisibility into the rest
        d = A[t][t]
        bad = None
        if d != 1:  # a unit pivot divides everything
            for i in range(t + 1, m):
                Ai = A[i]
                for j in range(t + 1, n):
                    if Ai[j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
        if bad is not None:
            row_add(t, bad, 1)
            continue
        t += 1

    return (
        IntMatrix(m, n, A),
        IntMatrix(m, m, U),
        IntMatrix(n, n, zip(*W_t)),
        IntMatrix(m, m, zip(*Uinv_t)),
        IntMatrix(n, n, Winv),
    )


def diagonal_of(D: IntMatrix) -> list:
    return [D.rows[i][i] for i in range(min(D.nrows, D.ncols))]


def invariant_factors_dense(M: IntMatrix):
    """(rank, nontrivial invariant factors), read off the Smith form's diagonal."""
    D = _snf(M)[0]
    diag = [d for d in diagonal_of(D) if d != 0]
    return len(diag), [d for d in diag if d != 1]


def invariant_factors_sparse(entries: dict, nrows: int, ncols: int):
    """(rank, nontrivial invariant factors) for a sparse integer matrix.

    entries maps (i, j) to a nonzero value.  Unit pivots are split off with
    integer row eliminations (each contributes invariant factor 1); whatever
    remains goes through the dense routine.

    Candidate pivot rows wait in a heap keyed by row length.  The shortest
    live row is popped and pivots on its unit entry whose column is
    shortest.  A row with no unit entry is parked: it goes back into the
    heap only when an elimination changes it.  Entries made stale by an
    elimination are skipped when popped, so a pivot costs its own row
    operations and never a scan of the whole matrix.  The invariant factors
    do not depend on the pivot order.
    """
    rows: dict = {}
    cols: dict = {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
    queue = [(len(r), i) for i, r in rows.items()]
    heapify(queue)
    unit_count = 0
    while queue:
        length, pi = heappop(queue)
        prow = rows.get(pi)
        if prow is None or len(prow) != length:
            continue  # eliminated or changed since it was queued
        pj = None
        best = None
        for j, v in prow.items():
            if v == 1 or v == -1:
                height = len(cols[j])
                if best is None or height < best:
                    best, pj = height, j
                    if height == 1:
                        break
        if pj is None:
            continue  # parked until an elimination changes the row
        del rows[pi]
        for j in prow:
            col = cols[j]
            col.discard(pi)
            if not col:
                del cols[j]
        piv = prow[pj]  # +-1, so the quotient below stays integral
        for i2 in list(cols.get(pj, ())):
            r2 = rows[i2]
            f = r2[pj] * piv
            for j2, v2 in prow.items():
                nv = r2.get(j2, 0) - f * v2
                if nv:
                    r2[j2] = nv
                    cols.setdefault(j2, set()).add(i2)
                elif j2 in r2:
                    del r2[j2]
                    col = cols[j2]
                    col.discard(i2)
                    if not col:
                        del cols[j2]
            if r2:
                heappush(queue, (len(r2), i2))
            else:
                del rows[i2]
        unit_count += 1

    if not rows:
        return unit_count, []
    live_rows = sorted(rows)
    live_cols = sorted({j for r in rows.values() for j in r})
    colpos = {j: k for k, j in enumerate(live_cols)}
    core = IntMatrix(len(live_rows), len(live_cols))
    for a, i in enumerate(live_rows):
        for j, v in rows[i].items():
            core.rows[a][colpos[j]] = v
    crank, cfactors = invariant_factors_dense(core)
    return unit_count + crank, cfactors


def cochain_invariants(maps) -> list:
    """(rank, nontrivial invariant factors) of each map, one sparse elimination each.

    Each map is (entries, nrows, ncols), as coboundary_sign_entries
    returns it.  They are taken one at a time, so a lazy iterable can
    do work (a deadline check) just before each elimination.
    """
    return [invariant_factors_sparse(entries, nrows, ncols) for entries, nrows, ncols in maps]


def matrix_rank(M: IntMatrix) -> int:
    entries = {}
    for i, row in enumerate(M.rows):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = v
    rank, _ = invariant_factors_sparse(entries, M.nrows, M.ncols)
    return rank


def matrix_rank_mod_p(M: IntMatrix, p: int) -> int:
    """Rank of M over the field Z/p, by dense Gaussian elimination.

    Simplicial complexes read their F_p ranks off cochain_invariants; this
    stays as the independent dense route.
    """
    rows = [[v % p for v in row] for row in M.rows]
    rank = 0
    for col in range(M.ncols):
        pivot = next((i for i in range(rank, M.nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(M.nrows):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == M.nrows:
            break
    return rank


def _rank(D: IntMatrix) -> int:
    """The rank of a Smith form: its nonzero diagonal entries come first."""
    return sum(1 for d in diagonal_of(D) if d)


def integer_kernel(M: IntMatrix) -> list:
    """Basis of {x in Z^n : M x = 0}, as a list of column vectors.

    The columns of W past the rank of the Smith form; this basis generates
    the full kernel subgroup, not just a finite-index sublattice.
    """
    D, _, W, _, _ = _snf(M)
    return [W.column(k) for k in range(_rank(D), M.ncols)]


class FinAbGroup:
    """Finitely generated abelian group: free rank plus invariant factors.

    Factors are the cyclic orders d_1 | d_2 | ... with every d_i >= 2.

    >>> FinAbGroup.from_diagonal([1, 2, 0], ambient_rank=3)
    Z + Z/2
    >>> FinAbGroup(0, (2,)).describe()
    {'rank': 0, 'torsion': [2]}
    >>> FinAbGroup.trivial().is_trivial()
    True
    """

    __slots__ = ("free_rank", "factors")

    def __init__(self, free_rank: int, factors=()):
        factors = tuple(map(int, factors))
        if free_rank < 0:
            raise ValueError("negative free rank")
        if factors:  # most groups are torsion-free, and pay for no chain check
            for a, b in zip(factors, factors[1:]):
                if b % a:
                    raise ValueError(f"invariant factors {factors} not a divisibility chain")
            if any(d < 2 for d in factors):
                raise ValueError(f"invariant factors must be >= 2, got {factors}")
        self.free_rank = free_rank
        self.factors = factors

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(0, ())

    @classmethod
    def from_diagonal(cls, diag, ambient_rank: int) -> "FinAbGroup":
        """Cokernel Z^ambient_rank / (diagonal relations)."""
        nonzero = [d for d in diag if d != 0]
        return cls(ambient_rank - len(nonzero), [d for d in nonzero if d != 1])

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.factors

    def describe(self) -> dict:
        return {"rank": self.free_rank, "torsion": list(self.factors)}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinAbGroup)
            and self.free_rank == other.free_rank
            and self.factors == other.factors
        )

    def __hash__(self):
        return hash((self.free_rank, self.factors))

    def __repr__(self):
        bits = []
        if self.free_rank == 1:
            bits.append("Z")
        elif self.free_rank:
            bits.append(f"Z^{self.free_rank}")
        bits.extend(f"Z/{d}" for d in self.factors)
        return " + ".join(bits) if bits else "0"


def _surviving(xdiag) -> list:
    """Presentation coordinates whose relation is not 1."""
    return [i for i, d in enumerate(xdiag) if d != 1]


def complex_cohomology(deltas: list, spot: int) -> FinAbGroup:
    """Cohomology at one spot of a complex of free Z-modules.

    deltas[i] maps module i to module i+1 (shape dims[i+1] x dims[i]);
    consecutive maps must compose to zero.  The group at the spot is
    ker(deltas[spot]) / im(deltas[spot-1]): its torsion is the nontrivial
    invariant factors of the incoming map, its rank is dim - rank(in) -
    rank(out).
    """
    if not deltas:
        raise ValueError("empty complex")
    for a, b in zip(deltas, deltas[1:]):
        if not (b @ a).is_zero():
            raise ValueError("consecutive differentials do not compose to zero")
    nmod = len(deltas) + 1
    if not 0 <= spot < nmod:
        raise ValueError(f"spot {spot} outside complex of {nmod} modules")
    dim = deltas[spot].ncols if spot < len(deltas) else deltas[spot - 1].nrows
    rank_out = matrix_rank(deltas[spot]) if spot < len(deltas) else 0
    if spot >= 1:
        d_in = deltas[spot - 1]
        rank_in, torsion = invariant_factors_sparse(
            {(i, j): v for i, r in enumerate(d_in.rows) for j, v in enumerate(r) if v},
            d_in.nrows,
            d_in.ncols,
        )
    else:
        rank_in, torsion = 0, []
    return FinAbGroup(dim - rank_in - rank_out, torsion)


class CohomologyBasis:
    """Explicit presentation of ker(d_out)/im(d_in) supporting induced maps.

    One Smith form U d_out W = D of rank r gives both the kernel and its
    coordinates: K, the columns of W past r, is an integer basis of
    ker(d_out), and a vector b lies in ker(d_out) exactly when the first r
    entries of W^-1 b vanish, the rest being its coordinates in K.  X
    expresses im(d_in) in that basis; the Smith form of X gives
    presentation coordinates z = U_X y in which the relation lattice is
    diagonal.  With no outgoing map d_out is the map to zero, so K is the
    identity.
    """

    __slots__ = ("dim", "K", "winv", "xdiag", "ux", "uxinv", "group")

    def __init__(self, d_in, d_out, dim: int):
        D, _, W, _, Winv = _snf(d_out if d_out is not None else IntMatrix(0, dim))
        r = _rank(D)
        self.dim = dim
        self.K = IntMatrix(dim, dim - r, [row[r:] for row in W.rows])
        self.winv = Winv.rows
        k = self.K.ncols
        if d_in is not None and d_in.ncols:
            xcols = []
            for j in range(d_in.ncols):
                x = self._solve_in_kernel(d_in.column(j))
                if x is None:
                    raise ValueError("incoming image not inside the kernel")
                xcols.append(x)
            X = IntMatrix.from_cols(xcols, k)
        else:
            X = IntMatrix(k, 0)
        D_X, U_X, _, Uinv_X, _ = _snf(X)
        diag = diagonal_of(D_X)
        self.xdiag = [diag[i] if i < len(diag) else 0 for i in range(k)]
        self.ux = U_X
        self.uxinv = Uinv_X
        self.group = FinAbGroup.from_diagonal(self.xdiag, k)

    def _solve_in_kernel(self, b: list):
        """Integer x with K x = b, or None when b is outside ker(d_out).

        x is the tail of W^-1 b past the rank, whose head must vanish; b
        (a coboundary column or an included kernel vector) is mostly
        zeros, so each entry sums only over its nonzero entries.
        """
        bnz = [(t, v) for t, v in enumerate(b) if v]
        y = [sum(row[t] * v for t, v in bnz) for row in self.winv]
        r = self.dim - self.K.ncols
        return None if any(y[:r]) else y[r:]

    def presentation_rank(self) -> int:
        return self.K.ncols

    def in_relation_lattice(self, z: list) -> bool:
        for d, v in zip(self.xdiag, z):
            if d == 0:
                if v != 0:
                    return False
            elif v % d:
                return False
        return True

    def in_relation_lattice_localized(self, z: list, p: int) -> bool:
        """Lattice membership after inverting every prime except p."""
        for d, v in zip(self.xdiag, z):
            if d == 0:
                if v != 0:
                    return False
            else:
                e = padic_valuation(d, p)
                if e and v % (p**e):
                    return False
        return True


class InducedMap:
    """A map of cohomology groups induced by a chain-level matrix."""

    __slots__ = ("source", "target", "pres_matrix", "_injective_at")

    def __init__(self, source: CohomologyBasis, target: CohomologyBasis, chain: IntMatrix):
        if chain.ncols != source.dim or chain.nrows != target.dim:
            raise ValueError("chain matrix shape mismatch")
        phi_k = chain @ source.K
        ycols = []
        for j in range(phi_k.ncols):
            y = target._solve_in_kernel(phi_k.column(j))
            if y is None:
                raise ValueError("chain map does not send kernel into kernel")
            ycols.append(y)
        Y = IntMatrix.from_cols(ycols, target.presentation_rank())
        self.source = source
        self.target = target
        self.pres_matrix = target.ux @ Y @ source.uxinv
        self._injective_at = {}  # p -> is_injective_localized(p); caches share maps

    def is_zero(self) -> bool:
        return all(
            self.target.in_relation_lattice(self.pres_matrix.column(j))
            for j in range(self.pres_matrix.ncols)
        )

    def _kernel_block(self):
        """Kept source coordinates and [pres | -target relations] on them.

        Integer kernel vectors (y, z) of the block, pres y = relations * z,
        project onto generators of {y : pres y in the target relation
        lattice}; the map is injective when each y lies in the source
        relation lattice.  Coordinates whose relation is 1 drop out exactly.
        A target row with relation 1 imposes no condition.  A source
        coordinate j with relation 1 is zero in the group, and
        well-definedness puts pres[:, j] into the target relation lattice,
        so that set splits off Z e_j, which the source relations contain.
        """
        src = _surviving(self.source.xdiag)
        tgt = _surviving(self.target.xdiag)
        ks = len(src)
        block = IntMatrix(len(tgt), ks + len(tgt))
        for a, i in enumerate(tgt):
            prow = self.pres_matrix.rows[i]
            brow = block.rows[a]
            for b, j in enumerate(src):
                brow[b] = prow[j]
            brow[ks + a] = -self.target.xdiag[i]
        return src, block

    def _kernel_in(self, in_lattice) -> bool:
        """Whether every kernel vector of the block passes in_lattice on the source."""
        src, block = self._kernel_block()
        y = [0] * self.source.presentation_rank()
        for vec in integer_kernel(block):
            for b, j in enumerate(src):
                y[j] = vec[b]
            if not in_lattice(y):
                return False
        return True

    def is_injective_localized(self, p: int) -> bool:
        """Injectivity after tensoring with the p-local integers."""
        if p not in self._injective_at:
            self._injective_at[p] = all(d != 0 and d % p for d in self.source.xdiag) or (
                self._kernel_in(lambda y: self.source.in_relation_lattice_localized(y, p))
            )
        return self._injective_at[p]

    def component_matrix(self):
        """Rows/cols restricted to surviving components, torsion entries reduced."""
        src = _surviving(self.source.xdiag)
        out = []
        for i in _surviving(self.target.xdiag):
            d = self.target.xdiag[i]
            row = []
            for j in src:
                v = self.pres_matrix.rows[i][j]
                row.append(v % d if d > 1 else v)
            out.append(row)
        return out
