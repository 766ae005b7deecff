"""Affine matrix-inequality modelling and a self-contained feasibility solver.

A feasibility problem is a list of symmetric affine blocks F_j(x) over scalar
decision slots, asked to satisfy F_j(x) < 0 strictly.  The solver minimizes
the shared epigraph variable t subject to F_j(x) <= t*I and a box |x_i| <=
box_bound (the inequalities are homogeneous, so the box just normalizes
scale), using a log-det barrier with damped Newton steps.

Expressions and blocks share one layout: strictly increasing slots and a
stack of the constant and one coefficient matrix per slot.  A variable's
basis stack is built by index, each operation of the expression algebra is
array work on stacks (a sum places its operands over the union of their
slots), and a block is its expression's stack symmetrized.  So evaluation,
the barrier Hessian (the Gram matrix of L^-1 F_i L^-T, t I - F(x) = L L^T)
and the dual bound are a few contractions per block.  Problems are
desk-scale (a few hundred slots, blocks of a few dozen rows), so dense
factorizations throughout are deliberate.

At this size a Newton step costs more in per-call overhead than in
arithmetic, so the barrier builds, once per solve and for each block, what
does not depend on the iterate: the identity, the operand (-I, F_1, ...,
F_m), the stack flattened to (m, d^2), the slot index with t first and the
flat positions of the block's Hessian entries.  Evaluation is one np.dot
with the flattened stack, the Hessian is scattered by flat index, and the
Cholesky factor comes from LAPACK's dpotrf directly (scipy's wrapper costs
several times the factorization on a few rows).  Each of these computes
exactly what np.tensordot, an np.ix_ scatter and scipy.linalg.cholesky
compute, bit for bit (tests/test_lmi.py keeps that arithmetic as a
reference), so the speed costs no change in any iterate.

Posing a problem is kept to a few array operations as well, since a small
admissibility LMI often certifies at its first Newton step.  What the
algebra builds from valid expressions (a transpose, negation, scaling,
either product, a placement) goes through a private constructor that skips
the public one's checks; parts that share their slots, as in every sym(.)
and the sector's blocks, add their stacks without a union of slots;
:func:`sym_of` skips :func:`block_of`'s asymmetry check, which a sum with
its own transpose cannot fail; and an all-zero F0 (every block the toolkit
poses is homogeneous) has lambda_max 0 without an eigensolve.  Each gives
the general route's arrays and iterates bit for bit.
``python3 scripts/lmi_sweep.py`` times the admissibility LMI alone, in
Newton steps, ms a step and µs a call.

A caller that needs only the verdict passes ``first_certificate``: the
path stops at the first certificate of either verdict, checked after every
accepted Newton step, not at the end of its centering round.  One point
with t <= -margin proves feasibility (Boyd & Vandenberghe, *Convex
Optimization*, 11.4.1); one dual point whose weak-duality bound clears
-margin proves infeasibility.  An infeasible strict LMI always has such a
witness, Z >= 0 with A*(Z) = 0 (theorem of alternatives, ibid. 5.9), and
the dual bound looks for it as the Frobenius projection of the inverse
slacks onto A*(Z) = 0, so it can certify at the first centering round
(eta = 1), where the central-path bound t - 2 nu / eta needs eta up to
1e3-1e9.  The admissibility test passes it; the gain solves do not, since
their gains come from the deeper iterate (their round-end bound holds the
projection too).  On ``scripts/lmi_sweep.py`` that cuts the Feasible
solves' Newton steps by 65-84 % at every size and side, and the Infeasible
ones' from 96-289 to 4-239 at n <= 12; from n = 16 on, where a stable mode
beside the unstable one holds slots at the box, the projection is not
positive semidefinite and Infeasible solves take the central-path bound's
steps as before.

A solve does no I/O: its iterates, one (eta, t, decrement2, step_size) row a
Newton step, are returned with its verdict on :class:`LmiSolution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import InputError, LmiNumericalError

__all__ = [
    "VariableRegistry",
    "AffineExpr",
    "LmiBlock",
    "LmiSolution",
    "sym_of",
    "block_of",
    "solve_feasibility",
]

DEFAULT_FEAS_MARGIN = 1e-7
DEFAULT_BOX_BOUND = 1e4
DUALITY_TOL = 1e-9
MAX_NEWTON_STEPS = 2000
# Approximate centering suffices for path-following; this bounds the squared
# Newton decrement at which an inner centering loop stops.
CENTERING_TOL = 1e-6


# ---------------------------------------------------------------------------
# Decision variables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _VarEntry:
    name: str
    kind: str           # "symmetric" | "skew" | "rectangular"
    shape: tuple
    start: int
    count: int


def _positions(entry: _VarEntry):
    """Row and column of each of a variable's slots, in slot order.

    Slot k of the variable (counted from its start) is entry (i, j) of the
    upper triangle, strict for skew variables, or of the whole matrix, row
    by row.
    """
    rows, cols = entry.shape
    i, j = np.divmod(np.arange(rows * cols), cols)
    if entry.kind != "rectangular":
        upper = j >= i + (entry.kind == "skew")
        i, j = i[upper], j[upper]
    return i, j


class VariableRegistry:
    """Flat scalar-slot layout for named structured matrix variables.

    A symmetric k x k variable owns k(k+1)/2 slots (upper triangle), a skew
    variable k(k-1)/2 (strict upper triangle), a rectangular k x l variable
    k*l.  Slot ranges are contiguous and disjoint in registration order.
    """

    def __init__(self):
        self._entries: dict[str, _VarEntry] = {}
        self._num_slots = 0

    @property
    def num_slots(self) -> int:
        return self._num_slots

    def add(self, name: str, kind: str, rows: int, cols: int | None = None) -> str:
        if name in self._entries:
            raise InputError(f"variable {name!r} already registered")
        if kind == "symmetric":
            shape, count = (rows, rows), rows * (rows + 1) // 2
        elif kind == "skew":
            shape, count = (rows, rows), rows * (rows - 1) // 2
        elif kind == "rectangular":
            if cols is None:
                raise InputError("rectangular variables need a column count")
            shape, count = (rows, cols), rows * cols
        else:
            raise InputError(f"unknown variable kind {kind!r}")
        self._entries[name] = _VarEntry(name, kind, shape, self._num_slots, count)
        self._num_slots += count
        return name

    def entry(self, name: str) -> _VarEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise InputError(f"unknown variable {name!r}") from None

    def expr(self, name: str) -> "AffineExpr":
        """Affine expression equal to the named matrix variable.

        The basis matrix of a slot at (i, j) is 1 there and, mirrored, +1
        (symmetric) or -1 (skew) at (j, i).
        """
        entry = self.entry(name)
        i, j = _positions(entry)
        k = np.arange(1, entry.count + 1)
        stack = np.zeros((entry.count + 1, *entry.shape))
        stack[k, i, j] = 1.0
        if entry.kind != "rectangular":
            stack[k, j, i] = 1.0 if entry.kind == "symmetric" else -1.0
        return AffineExpr(np.arange(entry.start, entry.start + entry.count), stack)

    def materialize(self, name: str, assignment: np.ndarray) -> np.ndarray:
        """Matrix value of one variable under a scalar assignment.

        The variable's slots are scattered to their positions, mirrored as
        in :meth:`expr`; equal to ``expr(name).evaluate(assignment)``.
        """
        entry = self.entry(name)
        i, j = _positions(entry)
        x = assignment[entry.start:entry.start + entry.count]
        M = np.zeros(entry.shape)
        M[i, j] = x
        if entry.kind != "rectangular":
            M[j, i] = x if entry.kind == "symmetric" else -x
        return M

    def materialize_all(self, assignment: np.ndarray) -> dict:
        return {name: self.materialize(name, assignment) for name in self._entries}


# ---------------------------------------------------------------------------
# Affine matrix expressions
# ---------------------------------------------------------------------------

class AffineExpr:
    """Matrix-valued expression ``stack[0] + sum_i x[slots[i]] * stack[i + 1]``.

    ``slots`` is strictly increasing and ``stack`` holds the constant, then
    one coefficient matrix per slot: shape (len(slots) + 1, rows, cols), the
    layout of :class:`LmiBlock`.  Supports addition, negation, transpose,
    scaling, multiplication by constant matrices on either side, and block
    composition via :meth:`bmat` -- enough to assemble the synthesis
    inequalities without ever forming products of two unknowns (which would
    not be affine).  Each is one array operation on the stack; a sum places
    its operands' stacks over the union of their slots.
    """

    __array_priority__ = 100  # keep ndarray @ AffineExpr out of numpy's hands

    def __init__(self, slots, stack):
        self.slots = np.asarray(slots, dtype=np.intp).reshape(-1)
        self.stack = np.asarray(stack, dtype=float)
        if self.stack.ndim != 3 or len(self.stack) != len(self.slots) + 1:
            raise InputError(f"{len(self.slots)} slots need a stack of {len(self.slots) + 1} "
                             f"matrices, got shape {self.stack.shape}")
        if (self.slots[1:] <= self.slots[:-1]).any():
            raise InputError("expression slots are not strictly increasing")

    @classmethod
    def _made(cls, slots, stack) -> "AffineExpr":
        """An expression the algebra built from valid ones: intp slots, strictly
        increasing, and a float stack of their layout, so nothing is checked."""
        expr = object.__new__(cls)
        expr.slots, expr.stack = slots, stack
        return expr

    @property
    def shape(self) -> tuple:
        return self.stack.shape[1:]

    @staticmethod
    def constant(M) -> "AffineExpr":
        return AffineExpr((), _matrix(M)[None])

    @staticmethod
    def _coerce(other):
        return other if isinstance(other, AffineExpr) else AffineExpr.constant(other)

    @property
    def T(self) -> "AffineExpr":
        return AffineExpr._made(self.slots, self.stack.transpose(0, 2, 1))

    def __neg__(self):
        return AffineExpr._made(self.slots, -self.stack)

    def __add__(self, other):
        other = self._coerce(other)
        if other.shape != self.shape:
            raise InputError(f"shape mismatch in +: {self.shape} vs {other.shape}")
        return _placed(self.shape, [(self, 0, 0), (other, 0, 0)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, scalar):
        return AffineExpr._made(self.slots, float(scalar) * self.stack)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, AffineExpr):
            if not other.slots.size:
                other = other.stack[0]
            elif not self.slots.size:
                return other.__rmatmul__(self.stack[0])
            else:
                raise InputError("product of two variable expressions is not affine")
        return AffineExpr._made(self.slots, self.stack @ _matrix(other))

    def __rmatmul__(self, other):
        return AffineExpr._made(self.slots, _matrix(other) @ self.stack)

    @staticmethod
    def bmat(rows) -> "AffineExpr":
        """Block composition; entries are AffineExpr or constant matrices."""
        rows = [[AffineExpr._coerce(e) for e in row] for row in rows]
        heights = [row[0].shape[0] for row in rows]
        widths = [e.shape[1] for e in rows[0]]
        for row, h in zip(rows, heights):
            if len(row) != len(widths):
                raise InputError("ragged block structure")
            for e, w in zip(row, widths):
                if e.shape != (h, w):
                    raise InputError("inconsistent block shapes")
        r0 = np.cumsum([0] + heights)
        c0 = np.cumsum([0] + widths)
        return _placed((r0[-1], c0[-1]),
                       [(e, r0[i], c0[j]) for i, row in enumerate(rows)
                        for j, e in enumerate(row)])

    def evaluate(self, assignment: np.ndarray) -> np.ndarray:
        rows, cols = self.shape
        return self.stack[0] + _combine(
            assignment[self.slots], self.stack[1:].reshape(-1, rows * cols), self.shape)


def _matrix(M) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise InputError(f"a constant operand must be a matrix, got shape {M.shape}")
    return M


def _placed(shape, parts) -> AffineExpr:
    """Sum of (expr, row, col) parts, each added at that corner of a zero
    matrix of ``shape``, over the union of their slots.

    Parts that all have the same slots (every sym(.), the sector's blocks)
    add their whole stacks: what the union's index of each part would pick.
    """
    slots = parts[0][0].slots
    shared = all(e.slots is slots or np.array_equal(e.slots, slots)
                 for e, _, _ in parts[1:])
    if not shared:
        slots = np.unique(np.concatenate([e.slots for e, _, _ in parts]))
    stack = np.zeros((len(slots) + 1, *shape))
    for e, r, c in parts:
        at = (slice(None) if shared
              else np.concatenate([[0], np.searchsorted(slots, e.slots) + 1]))
        h, w = e.shape
        stack[at, r:r + h, c:c + w] += e.stack
    return AffineExpr._made(slots, stack)


# ---------------------------------------------------------------------------
# Blocks and solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LmiBlock:
    """Symmetric affine block F(x) = F0 + sum_i x[slots[i]] stack[i] < 0.

    ``slots`` is strictly increasing; ``stack`` holds one symmetric
    coefficient matrix per slot, shape (len(slots), dim, dim).
    """

    F0: np.ndarray
    slots: np.ndarray
    stack: np.ndarray
    label: str = ""

    @property
    def dim(self) -> int:
        return self.F0.shape[0]

    def evaluate(self, assignment: np.ndarray) -> np.ndarray:
        d = self.dim
        return self.F0 + _combine(assignment[self.slots], self.stack.reshape(-1, d * d),
                                  (d, d))


def _combine(coef, stack2d, shape):
    """sum_i coef[i] F_i from the (m, rows*cols) stack, as a matrix of ``shape``.

    One np.dot of a row with the flattened stack: the product that
    np.tensordot(coef, stack, 1) forms, bit for bit, without its set-up.
    """
    return np.dot(coef[None], stack2d).reshape(shape)


def sym_of(expr: AffineExpr, label: str = "") -> LmiBlock:
    """Block for sym(expr) = expr + expr^T < 0.

    The sum is symmetric to the bit (floating-point addition commutes), so
    :func:`block_of`'s asymmetry check, which it cannot fail, is not run.
    """
    return _symmetrized(expr + expr.T, label)


def block_of(expr: AffineExpr, label: str = "") -> LmiBlock:
    """Block for an expression that is already symmetric by construction.

    The expression's stack is symmetrized; a term that is not symmetric to
    1e-9 is an InputError.
    """
    if expr.shape[0] != expr.shape[1]:
        raise InputError("an LMI block needs a square expression")
    mats = expr.stack
    skew = np.abs(mats - mats.transpose(0, 2, 1)).max(axis=(1, 2))
    bad = np.flatnonzero(skew > 1e-9 * np.maximum(np.abs(mats).max(axis=(1, 2)), 1.0))
    if bad.size:
        i = bad[0]
        what = "constant term" if i == 0 else f"coefficient {expr.slots[i - 1]}"
        raise InputError(f"{what} of {label or 'block'} is not symmetric "
                         f"(asymmetry {skew[i]:.3e})")
    return _symmetrized(expr, label)


def _symmetrized(expr: AffineExpr, label: str) -> LmiBlock:
    mats = expr.stack
    sym = (mats + mats.transpose(0, 2, 1)) / 2.0
    return LmiBlock(F0=sym[0], slots=expr.slots, stack=sym[1:], label=label)


@dataclass(frozen=True)
class LmiSolution:
    """Outcome of a feasibility solve.

    ``t`` is the achieved epigraph value, max(margins), at the returned
    iterate: the end of the last centering round, or for a
    ``first_certificate`` solve that is Feasible, the first iterate that
    certifies.  ``lower_bound`` is the best weak-duality lower bound on the
    optimal t taken at a round's end (or at a ``first_certificate`` stop),
    from the inverse slacks or their projection onto A*(Z) = 0, and the
    central-path bound t - 2 nu / eta; an Infeasible verdict has it above
    -feas_margin.  Feasible guarantees every margin (the independently
    recomputed lambda_max of each block) is <= -feas_margin.
    ``iterates`` has one (eta, t, decrement2, step_size) row a Newton step;
    a step with a non-positive decrement is counted but not recorded.
    An Infeasible ``first_certificate`` solve ends at the first iterate
    whose bound certifies, so its t and margins are that point's.
    """

    status: str                         # "Feasible" | "Infeasible" | "NumericalFailure"
    assignment: np.ndarray | None
    margins: tuple
    t: float
    lower_bound: float
    newton_steps: int
    feas_margin: float
    box_bound: float
    block_labels: tuple = ()
    iterates: tuple = ()

    @property
    def feasible(self) -> bool:
        return self.status == "Feasible"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "assignment": None if self.assignment is None else list(self.assignment),
            "margins": list(self.margins),
            "t": self.t,
            "lower_bound": self.lower_bound,
            "newton_steps": self.newton_steps,
            "feas_margin": self.feas_margin,
            "box_bound": self.box_bound,
            "block_labels": list(self.block_labels),
            "iterates": [{"eta": eta, "t": t, "decrement2": dec2, "step_size": size}
                         for eta, t, dec2, size in self.iterates],
        }


# ---------------------------------------------------------------------------
# Barrier solver
# ---------------------------------------------------------------------------

def _chol_or_none(S):
    # LAPACK directly: what sla.cholesky(S, lower=True) computes, bit for bit,
    # without its wrapper's checks and exception.
    L, info = sla.lapack.dpotrf(S, lower=1, clean=1)
    return L if info == 0 else None


@dataclass(frozen=True)
class _Operands:
    """What the barrier needs of one block that does not depend on z."""

    eye: np.ndarray         # (d, d) identity
    G: np.ndarray           # (m+1, d, d): -I, then the stack (t first)
    stack2d: np.ndarray     # (m, d*d) stack, for evaluation
    idx: np.ndarray         # (m+1,) positions in z = (x, t): t, then the slots
    flat: np.ndarray        # ((m+1)^2,) positions of the block's Hessian entries


class _Barrier:
    """Log-det barrier for {F_j(x) <= t I, |x_i| <= box} in z = (x, t)."""

    def __init__(self, blocks, num_slots, box):
        self.blocks = blocks
        self.nx = num_slots
        self.box = box
        # Barrier parameter: block dims plus two log terms per box slot.
        self.nu = sum(b.dim for b in blocks) + 2 * num_slots
        self.ops = []
        for b in blocks:
            eye = np.eye(b.dim)
            idx = np.concatenate([[num_slots], b.slots])
            self.ops.append(_Operands(
                eye=eye, G=np.concatenate([-eye[None], b.stack]),
                stack2d=b.stack.reshape(-1, b.dim ** 2), idx=idx,
                flat=(idx[:, None] * (num_slots + 1) + idx).ravel()))
        self.diag = np.arange(num_slots) * (num_slots + 2)
        # The slots' Gram matrix M_ik = sum_j <F_ji, F_jk>, for the dual
        # bound's projection onto A*(Z) = 0 (with no slots, A* = 0 and there
        # is nothing to project).  It is the Hessian's LMI part at S = I,
        # scattered the same way, without the t row and column.  A shift of
        # one rounding unit of its trace lets a slot that no block uses, or
        # dependent slots, factor too; the bound recomputes its residual, so
        # it stays rigorous.
        gram = np.zeros((num_slots + 1, num_slots + 1))
        for op in self.ops:
            Gf = op.G.reshape(len(op.G), -1)
            gram.reshape(-1)[op.flat] += (Gf @ Gf.T).ravel()
        gram = gram[:-1, :-1]
        gram.flat[::num_slots + 1] += np.finfo(float).eps * gram.trace()
        self.gram_factor = _chol_or_none(gram) if num_slots else None

    def slacks(self, z):
        """Cholesky factors of t*I - F_j(x), or None if not interior."""
        x, t = z[:-1], z[-1]
        if np.abs(x).max(initial=0.0) >= self.box:
            return None
        factors = []
        for b, op in zip(self.blocks, self.ops):
            F = b.F0 + _combine(x[b.slots], op.stack2d, (b.dim, b.dim))
            L = _chol_or_none(t * op.eye - F)
            if L is None:
                return None
            factors.append(L)
        return factors

    def value(self, z, factors):
        x = z[:-1]
        # ndarray methods rather than np.sum and np.diag: the same reductions,
        # without the wrappers (the line search calls this several times a step).
        logdet = sum(2.0 * np.log(L.diagonal()).sum() for L in factors)
        return -logdet - (np.log(self.box - x).sum() + np.log(self.box + x).sum())

    def grad_hess(self, z, factors):
        x = z[:-1]
        g, H = np.zeros(self.nx + 1), np.zeros((self.nx + 1, self.nx + 1))
        for op, L in zip(self.ops, factors):
            # S = t I - F(x) = L L^T.  With G = (-I, F_1, ..., F_m), t first, and
            # W_i = L^-1 G_i L^-T: g_i = tr(S^-1 G_i) = tr(W_i), H_ij = <W_i, W_j>.
            # trtri, not solve_triangular: the latter's BLAS threads contend with
            # numpy's (k = 3 lifted designs ran ~20x slower on a 2-CPU host).
            Linv = sla.lapack.dtrtri(L, lower=1)[0]
            W = Linv @ op.G @ Linv.T
            Wf = W.reshape(len(W), -1)
            g[op.idx] += W.trace(axis1=1, axis2=2)
            # The slot indices are distinct, so this adds each entry once.
            H.reshape(-1)[op.flat] += (Wf @ Wf.T).ravel()
        up, dn = 1.0 / (self.box - x), 1.0 / (self.box + x)
        g[:-1] += up - dn
        H.reshape(-1)[self.diag] += up ** 2 + dn ** 2
        return g, H

    def dual_lower_bound(self, factors):
        """Rigorous lower bound on min t from the current slacks.

        For any Z_j >= 0 with sum tr(Z_j) = 1, weak duality gives the bound
        sum_j <F_j0, Z_j> - box * sum_i |r_i|, r = A*(Z) = (sum_j <F_ji,
        Z_j>)_i, where the second term absorbs the x-stationarity residual
        into the box multipliers.  Two Z are tried, and the larger bound is
        returned; both are valid at every interior point:

        * Z_j proportional to the inverse slacks, which tightens the bound
          as the iterate approaches the central path;
        * its Frobenius-nearest point on {A*(Z) = 0}, Z_j - sum_i c_i F_ji
          with M c = r, if every block of it is positive definite, rescaled
          to trace 1 and its residual recomputed from the stacks.  That is
          the witness an infeasible strict LMI always has (theorem of
          alternatives; Boyd & Vandenberghe, *Convex Optimization*, 5.9),
          free of the box, so it can certify at the first centering round.
        """
        # dpotrs is what sla.cho_solve calls, and the ndarray methods are
        # the reductions np.trace and np.sum make, bit for bit, without the
        # wrappers: this runs every Newton step of a first_certificate solve.
        Sinvs = [sla.lapack.dpotrs(L, op.eye, lower=1)[0]
                 for L, op in zip(factors, self.ops)]
        total = sum(S.trace() for S in Sinvs)
        bound, resid = self._weak_duality([S / total for S in Sinvs])
        if self.gram_factor is None:
            return bound
        c = sla.lapack.dpotrs(self.gram_factor, resid, lower=1)[0]
        projected = []
        for b, op, S in zip(self.blocks, self.ops, Sinvs):
            Z = S / total - _combine(c[b.slots], op.stack2d, (b.dim, b.dim))
            Z = (Z + Z.T) / 2.0
            if _chol_or_none(Z) is None:
                return bound
            projected.append(Z)
        total = sum(Z.trace() for Z in projected)
        return max(bound, self._weak_duality([Z / total for Z in projected])[0])

    def _weak_duality(self, Zs):
        """The weak-duality bound of a trace-1 Z and its residual A*(Z)."""
        bound = 0.0
        resid = np.zeros(self.nx)
        for b, op, Z in zip(self.blocks, self.ops, Zs):
            bound += float((b.F0 * Z).sum())
            # The product np.tensordot(b.stack, Z, 2) forms, bit for bit.
            resid[b.slots] += op.stack2d @ Z.ravel()
        return bound - self.box * float(np.abs(resid).sum()), resid


def solve_feasibility(blocks, registry, box_bound: float = DEFAULT_BOX_BOUND, *,
                      first_certificate: bool = False) -> LmiSolution:
    """Decide strict feasibility of F_j(x) < 0 over the registry's slots.

    Minimizes t subject to F_j(x) <= t*I and |x_i| <= box_bound by
    path-following on a log-det barrier (10x barrier-weight increase per
    outer step, damped Newton inner steps).  Classification, at the margin
    m = :data:`DEFAULT_FEAS_MARGIN`: Feasible when the achieved t is <= -m;
    Infeasible when the duality lower bound proves no point in the box
    reaches -m; NumericalFailure when the step budget runs out in the gap
    between the two.  The two verdicts share the same threshold, so
    "Infeasible" means precisely "not feasible at margin m".  The path stops
    at the first outer step that gives either verdict.  With
    ``first_certificate``, it also stops at the first accepted Newton step
    that certifies either verdict: t <= -m, once the recomputed margins say
    Feasible there (if they do not, the path goes on), or a dual bound
    (:meth:`_Barrier.dual_lower_bound`, with its projection onto A*(Z) = 0)
    above -m.  Its iterates are then a prefix of the solve without it.
    NumericalFailure comes as without it.  The solve does no I/O.
    """
    if not blocks:
        raise InputError("no LMI blocks given")
    if box_bound <= 0:
        raise InputError("box_bound must be positive")
    nx = registry.num_slots
    for b in blocks:
        if not (np.isfinite(b.F0).all() and np.isfinite(b.stack).all()):
            raise InputError(f"non-finite coefficients in block {b.label!r}")
        unknown = b.slots[(b.slots < 0) | (b.slots >= nx)]
        if unknown.size:
            raise InputError(f"block {b.label!r} references unknown slots {unknown.tolist()}")
        if (b.slots[1:] <= b.slots[:-1]).any():
            raise InputError(f"slots of block {b.label!r} are not strictly increasing")

    barrier = _Barrier(blocks, nx, box_bound)
    z = np.zeros(nx + 1)
    # Every block the toolkit poses is homogeneous: an all-zero F0 has
    # lambda_max 0 without an eigensolve.
    lams = [float(np.linalg.eigvalsh(b.F0)[-1]) if b.F0.any() else 0.0
            for b in blocks]
    # The margin is relative too: past |lambda_max| ~ 1e16 a margin of 1
    # rounds away, and t I - F0 would be singular.
    t0 = max(lams) + max(1.0, 1e-6 * abs(max(lams)))
    z[-1] = t0
    factors = barrier.slacks(z) if np.isfinite(t0) else None
    if factors is None:
        if np.isfinite(t0):
            bad = next(b for b in blocks
                       if _chol_or_none(t0 * np.eye(b.dim) - b.F0) is None)
        else:
            bad = blocks[int(np.argmax(lams))]
        raise LmiNumericalError(f"no interior starting point: t I - F0 of block "
                                f"{bad.label!r} does not factor at t = {t0:.6g}")
    phi = barrier.value(z, factors)
    ident = np.eye(nx + 1)

    iterates = []
    status = None
    eta = 1.0
    steps = 0
    best_lower = -np.inf
    consecutive_stalls = 0

    def classify(zc, lower):
        x = zc[:-1]
        margins = tuple(float(np.linalg.eigvalsh(b.evaluate(x))[-1]) for b in blocks)
        t = max(margins)  # effective achieved epigraph value at the iterate
        if t <= -DEFAULT_FEAS_MARGIN:
            return "Feasible", margins, t
        if lower > -DEFAULT_FEAS_MARGIN:
            return "Infeasible", margins, t
        return "NumericalFailure", margins, t

    while True:
        # Center (approximately) for the current eta.  The per-round cap
        # keeps a single hard centering problem from exhausting the whole
        # step budget at one eta.
        stalled = False
        last_decrement2 = np.inf
        round_steps = 0
        while steps < MAX_NEWTON_STEPS and round_steps < 100:
            round_steps += 1
            g, H = barrier.grad_hess(z, factors)
            g[-1] += eta
            Hr = H + ident * (1e-14 * max(np.trace(H) / (nx + 1), 1.0))
            try:
                step = -np.linalg.solve(Hr, g)
            except np.linalg.LinAlgError:
                step = -np.linalg.lstsq(Hr, g, rcond=None)[0]
            decrement2 = float(-g @ step)
            steps += 1
            if decrement2 <= 0:
                break
            # Backtracking line search: stay interior, Armijo decrease.
            # phi is the barrier value at z, kept from the step that accepted z.
            base = eta * float(z[-1]) + phi
            size = 1.0
            for _ in range(60):
                z_new = z + size * step
                f_new = barrier.slacks(z_new)
                if f_new is not None:
                    phi_new = barrier.value(z_new, f_new)
                    val = eta * float(z_new[-1]) + phi_new
                    if val <= base - 0.01 * size * decrement2:
                        break
                size *= 0.5
            else:
                z_new, f_new, phi_new = z, factors, phi
                size = 0.0
            z, factors, phi = z_new, f_new, phi_new
            last_decrement2 = decrement2
            iterates.append((eta, float(z[-1]), decrement2, size))
            if size < 1e-12:
                stalled = True  # at numerical precision for this eta
                break
            if first_certificate:
                if z[-1] <= -DEFAULT_FEAS_MARGIN:
                    # Every t I - F_j(x) has just factored, so lambda_max < t.
                    status, margins, t = classify(z, best_lower)
                    if status == "Feasible":
                        best_lower = max(best_lower, barrier.dual_lower_bound(factors))
                        break
                # One dual point whose bound clears -m proves infeasibility.
                # A bound that does not is dropped, so that lower_bound keeps
                # to the points it was taken at before (round ends and the
                # Feasible stop).
                lower = barrier.dual_lower_bound(factors)
                if lower > -DEFAULT_FEAS_MARGIN:
                    best_lower = max(best_lower, lower)
                    status, margins, t = classify(z, best_lower)
                    break
            if decrement2 < CENTERING_TOL:
                break
        if status in ("Feasible", "Infeasible"):
            break

        best_lower = max(best_lower, barrier.dual_lower_bound(factors))
        if last_decrement2 <= 1e-2:
            # Near-centered iterate (Newton decrement <= 0.1): the
            # path-following duality measure bounds the optimality gap; the
            # factor 2 absorbs the centering error.  The problems this
            # toolkit poses are homogeneous (F(0) = 0); an infeasible one has
            # a witness Z >= 0 with A*(Z) = 0, which the dual bound's
            # projection finds unless the box hides it (a slot held at the
            # box, as beside a stable mode).  Then this central-path bound,
            # at a large eta, is what decides infeasibility.
            best_lower = max(best_lower, float(z[-1]) - 2.0 * barrier.nu / eta)
        consecutive_stalls = consecutive_stalls + 1 if stalled else 0
        status, margins, t = classify(z, best_lower)
        if status != "NumericalFailure":
            break
        if steps >= MAX_NEWTON_STEPS or consecutive_stalls >= 3 \
                or barrier.nu / eta <= DUALITY_TOL:
            break
        eta *= 10.0

    return LmiSolution(
        status=status,
        assignment=z[:-1].copy() if status == "Feasible" else None,
        margins=margins,
        t=float(t),
        lower_bound=float(best_lower),
        newton_steps=steps,
        feas_margin=DEFAULT_FEAS_MARGIN,
        box_bound=box_bound,
        block_labels=tuple(b.label for b in blocks),
        iterates=tuple(iterates),
    )
