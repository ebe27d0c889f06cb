"""Exact calculus of oscillatory Gaussian kernels.

A kernel over labelled variables v is

    K(v) = amp * (2 pi hbar)^pihbar_pow * V^vol_pow
           * exp[(i/hbar) v^T A v / 2] * prod(delta(coupling . v)),

with A symmetric and in action units.  A kernel carries no hbar:
A, amp and the constraints do not depend on it, and the powers of 2 pi
hbar are symbolic, so whoever evaluates K supplies hbar.  The exponent is
homogeneous, as the quadratic Lagrangians of the lattice are: no linear
term and no constant.  V is the formally infinite volume constant
produced when an integration variable drops out of the exponent; it is
tracked symbolically and never realised numerically.

Integrating one variable out lands in exactly one of three exact cases:

  Gaussian   |A_vv| > 0:  Schur complement update, amplitude gains
             exp(i sgn(A_vv) pi/4)/sqrt(|A_vv|) and half a power of 2 pi hbar
             (the Fresnel integral with the branch sqrt(i) = exp(i pi/4));
  volume     the whole row vanishes: one power of V;
  delta      A_vv ~ 0 but the couplings survive: the integral is
             2 pi hbar * delta(coupling . v); the constraint is recorded
             and, when it binds a variable still to be integrated, consumed
             at once by substituting that variable away (amplitude divides
             by |coefficient|).

Pivots inside the band (PIVOT_TOL, 100 PIVOT_TOL) relative to their row are
refused with NearCaustic rather than silently classified, and so is a pivot
whose relative size is NaN (a NaN in its row, or an infinite diagonal).

A kernel holds A as its upper-triangle entries, a dict from (i, j), i <= j
indices into its vars, to A_ij, as the engine's sparse rows leave them.
OscKernel.A builds the dense m x m matrix on each access, for tests and
scripts; the library never asks for it.  compare puts delta kernels on their
constraint surface through the engine's own delta step.

There is one elimination engine, and every kernel the library builds comes
out of it (OscKernel.from_json reads the entries of one, with the
validating constructor's checks).  It takes an ordered list of steps (part,
variables), adds each part's entries (a kernel's, or monomials not yet built
into one) into its sparse rows, integrates that step's variables, then
moves to the next part.  marginalize_all(k, vs) is the one-step case ((k, vs),), glue(k1, k2,
shared) the two-step case ((k1, ()), (k2, shared)), and from_terms the one
step with nothing to integrate.  momentum_factorized_kernel hands
marginalize_all its monomials as one _Terms.  path_kernel and
surface_kernel hand it a part of their own (qprop1d._PathSteps,
qsurface._Plaquettes), whose _add_into writes each step's or plaquette's
terms straight into the engine's rows, each entry the sum the monomial form
would give, bit for bit.  n_step_kernels hands the engine the one-step
monomial forms as one chain per length, each starting from the kernel of
the length before.
An integration updates only the pivot's nonzero couplings, at a Python cost
in the square of the pivot's degree plus a heap update per row it touches;
marginalize_all says in which order, and why bit for bit.
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import NearCaustic, VariableMismatch

#: Relative pivot size below which a variable counts as absent from the
#: quadratic part; the refusal band extends to 100x this.
PIVOT_TOL = 1e-9
_NEAR_BAND = 100.0
_ABS_FLOOR = 1e-13
#: exp(i sgn(A_vv) pi/4), the Fresnel phase of a Gaussian step
_FRESNEL_UP = cmath.exp(1j * math.copysign(math.pi / 4.0, 1.0))
_FRESNEL_DOWN = cmath.exp(1j * math.copysign(math.pi / 4.0, -1.0))
#: the pihbar_diff of two equal powers
_NO_POWER = Fraction(0)


@dataclass(frozen=True)
class AffineConstraint:
    """Linear relation  sum(coeff * var) = 0  from a delta reduction."""

    coeffs: tuple[tuple[str, float], ...]

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def coefficient(self, var: str) -> float:
        for v, cv in self.coeffs:
            if v == var:
                return cv
        return 0.0

    def lead(self) -> str:
        """The first by name of the largest-magnitude coefficients.  A NaN
        coefficient never leads, unless every one is NaN: then the first does."""
        max_abs = max((abs(cv) for _, cv in self.coeffs if cv == cv), default=0.0)
        return min((v for v, cv in self.coeffs if abs(cv) >= max_abs * (1.0 - 1e-12)), default=self.coeffs[0][0])

    def normalized(self) -> "AffineConstraint":
        """Scale the lead coefficient to +1, sorted.  A NaN coefficient is
        carried; when every one is NaN, the result is all NaN."""
        s = 1.0 / self.coefficient(self.lead())
        return AffineConstraint(tuple(sorted((v, cv * s) for v, cv in self.coeffs)))


@dataclass(frozen=True, init=False)
class OscKernel:
    """Immutable oscillatory Gaussian kernel over named variables.

    A is held as `entries`, its upper triangle: a dict from (i, j), i <= j
    indices into vars, to A_ij.  An entry exists where the builder wrote one,
    which may be a +0.0; an absent entry is +0.0.  `A` builds the dense
    m x m matrix from them afresh on each access."""

    vars: tuple[str, ...]
    entries: dict[tuple[int, int], float] = field(repr=False)
    amp: complex
    pihbar_pow: Fraction
    vol_pow: int
    constraints: tuple[AffineConstraint, ...]

    def __init__(self, vars, A, amp=1.0 + 0.0j, pihbar_pow=Fraction(0), vol_pow=0, constraints=()):
        """The kernel of a dense symmetric A over vars.  Repeated names, a
        shape that does not fit vars, a non-finite number, a delta constraint
        that repeats a name, names one not in vars or has no coefficient but
        0.0, and an A that is not symmetric to 1e-12 of its largest entry are
        refused; an A that is not symmetric bit for bit is symmetrized, and
        every upper-triangle entry but a +0.0 is kept."""
        vars, A, constraints = tuple(vars), np.array(A, dtype=float), tuple(constraints)
        _refuse_repeats(vars)
        _refuse_constraints(vars, constraints)
        n = len(vars)
        if A.shape != (n, n):
            raise VariableMismatch(f"matrix shape {A.shape} does not fit {n} variables")
        _refuse_non_finite(np.isfinite(A).all(), amp, constraints)
        if n and abs(A - A.T).max() > 1e-12 * max(1.0, float(abs(A).max())):
            raise VariableMismatch("exponent matrix must be symmetric")
        # an A already symmetric bit for bit stays as it is: 0.5 (A + A^T) overflows above half the largest double
        if not np.array_equal(A.view(np.int64), A.T.view(np.int64)):
            A = 0.5 * (A + A.T)
        ii, jj = np.nonzero(np.triu(A).view(np.int64))
        self.__dict__.update(vars=vars, entries=dict(zip(zip(ii.tolist(), jj.tolist()), A[ii, jj].tolist())),
                             amp=complex(amp), pihbar_pow=Fraction(pihbar_pow), vol_pow=vol_pow,
                             constraints=constraints)

    @classmethod
    def _built(cls, vars, entries, amp, pihbar_pow, vol_pow, constraints) -> "OscKernel":
        """A kernel from fields the library built itself, taken as they are:
        vars a tuple of distinct names, entries a dict of upper-triangle
        entries, amp a complex, pihbar_pow a Fraction and constraints a tuple.
        On such fields the constructor's checks pass, so none is run."""
        kernel = object.__new__(cls)
        kernel.__dict__.update(vars=vars, entries=entries, amp=amp, pihbar_pow=pihbar_pow, vol_pow=vol_pow,
                               constraints=constraints)
        return kernel

    @property
    def A(self) -> np.ndarray:
        """The dense symmetric float64 matrix over vars, a new m x m array on each access."""
        m = len(self.vars)
        A = np.zeros((m, m))
        if self.entries:
            ij = np.array(list(self.entries), dtype=np.intp)
            x = np.fromiter(self.entries.values(), float, len(self.entries))
            A[ij[:, 0], ij[:, 1]] = x
            A[ij[:, 1], ij[:, 0]] = x
        return A

    # -- inspection ------------------------------------------------------------

    def index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise VariableMismatch(f"no variable {var!r} in kernel over {self.vars}") from None

    # -- canonical form ----------------------------------------------------------

    def canonical_dict(self) -> dict:
        """The canonical form, kernel_format 4: vars sorted, A as the sorted
        [i, j, round(x, 15)] triples (i <= j, indices into the sorted vars)
        of every upper-triangle entry x whose round(x, 15) is not +0.0, and
        each delta constraint normalized.  There is no hbar key, as a kernel
        carries no hbar.

        An entry that is its own rounding is written as it is, with no call
        to round: x with x 2^15 an integer has at most 15 decimals, and
        doubles of magnitude 8 or more are at least 2^-49 apart, so every
        decimal within 5e-16 of such an x reads back as x."""
        # Python's order of the names, as the engine's: a fixed-width numpy string would drop a trailing NUL
        order = sorted(range(len(self.vars)), key=self.vars.__getitem__)
        rank = [0] * len(order)
        for r, i in enumerate(order):
            rank[i] = r
        # each entry by sorted rank, upper triangle; the pairs are distinct, so no sort compares two values
        triples = sorted((rank[i], rank[j], x) if rank[i] <= rank[j] else (rank[j], rank[i], x)
                         for (i, j), x in self.entries.items())
        return {
            "kernel_format": 4,
            "vars": [self.vars[i] for i in order],
            # a +0.0, or an entry that rounds to one, is left out; a -0.0 or a NaN is written
            "A": [[i, j, r] for i, j, v in triples
                  if (r := v if abs(v) >= 8.0 or (v * 32768.0).is_integer() else round(v, 15))
                  or math.copysign(1.0, r) < 0.0],
            "amp": {"modulus": round(abs(self.amp), 15), "phase": round(cmath.phase(self.amp), 15)},
            "pihbar_pow": str(self.pihbar_pow),
            "vol_pow": self.vol_pow,
            # each item's one key needs no sort_keys
            "constraints": sorted(({"coeffs": [[v, round(cv, 15)] for v, cv in con.normalized().coeffs]}
                                   for con in self.constraints), key=json.dumps),
        }

    def to_json(self) -> str:
        """Canonical JSON; a non-finite entry raises ValueError, since NaN and
        Infinity are not JSON."""
        return json.dumps(self.canonical_dict(), sort_keys=True, allow_nan=False)

    def _add_into(self, rows, at) -> list[int]:
        """Add each entry of A that is not ±0.0 into the engine's sparse rows,
        whose position of a name `at` gives, A_ij into row i and row j; return
        the positions of vars."""
        pos = [at[v] for v in self.vars]
        for (i, j), x in self.entries.items():
            if x:
                i, j = pos[i], pos[j]
                row = rows[i]
                row[j] = row.get(j, 0.0) + x
                if i != j:
                    row = rows[j]
                    row[i] = row.get(i, 0.0) + x
        return pos

    @staticmethod
    def from_json(text: str) -> "OscKernel":
        """The kernel of a canonical JSON text, its A triples read straight
        into the entries.  ValueError on what to_json never writes: a NaN or
        infinite number, a kernel_format other than 4 (formats 1-3 carried an
        hbar key, or terms every kernel held at zero), and an A triple with an
        index out of range, below the diagonal or repeated, and a delta
        constraint with no coefficient but 0.0; VariableMismatch on a repeated
        name, and on a constraint's name that is repeated or not in vars, as
        the constructor refuses them."""
        data = json.loads(text, parse_constant=_refuse_constant)
        if type(fmt := data.get("kernel_format")) is not int or fmt != 4:
            raise ValueError(f"kernel_format must be 4, got {fmt!r}")
        vars = tuple(data["vars"])
        n, entries = len(vars), {}
        for triple in data["A"]:
            i, j, x = triple
            if not (type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n):
                raise ValueError(f"A triple {triple} has an index out of range for {n} variables")
            if i > j:
                raise ValueError(f"A triple {triple} lies below the diagonal")
            if (i, j) in entries:
                raise ValueError(f"A triple {triple} repeats the entry ({i}, {j})")
            entries[i, j] = float(x)
        amp = cmath.rect(data["amp"]["modulus"], data["amp"]["phase"])
        cons = tuple(AffineConstraint(tuple((v, cv) for v, cv in item["coeffs"])) for item in data["constraints"])
        _refuse_repeats(vars)
        _refuse_constraints(vars, cons)
        _refuse_non_finite(all(map(math.isfinite, entries.values())), amp, cons)
        return OscKernel._built(vars, entries, amp, Fraction(data["pihbar_pow"]), data["vol_pow"], cons)


def _refuse_repeats(vars: tuple[str, ...]) -> None:
    """The constructor's and from_json's check of the names."""
    if len(set(vars)) != len(vars):
        raise VariableMismatch(f"repeated variable names in {vars}")


def _refuse_constraints(vars: tuple[str, ...], constraints) -> None:
    """The constructor's and from_json's check of the delta constraints, as
    to_json writes them: each over distinct variables of the kernel, with a
    coefficient that is not 0.0 to normalize by."""
    known = set(vars)
    for con in constraints:
        names = con.variables()
        if len(set(names)) != len(names):
            raise VariableMismatch(f"delta constraint {con.coeffs} repeats a variable")
        if not known.issuperset(names):
            raise VariableMismatch(f"no variable {min(set(names) - known)!r} in kernel over {vars}")
        if not any(cv for _, cv in con.coeffs):
            raise ValueError(f"delta constraint {con.coeffs} has no nonzero coefficient")


def _refuse_non_finite(finite_A: bool, amp, constraints) -> None:
    """The constructor's and from_json's check of the numbers, A's told by finite_A."""
    numbers = [cv for con in constraints for _, cv in con.coeffs]
    if not (finite_A and cmath.isfinite(amp) and all(map(math.isfinite, numbers))):
        raise ValueError("kernel entries are not finite: NaN and infinity are refused, as in the JSON form")


def _refuse_constant(token: str):
    """json.loads hook for NaN, Infinity and -Infinity, which to_json never writes."""
    raise ValueError(f"{token} is not a JSON number")


class _Terms(NamedTuple):
    """A kernel in the monomial form from_terms takes, read by the engine
    without building A."""

    vars: tuple[str, ...]
    quadratic: dict[tuple[str, str], float]
    amp: complex
    pihbar_pow: Fraction
    vol_pow: int = 0
    constraints: tuple[AffineConstraint, ...] = ()

    def _add_into(self, rows, at) -> list[int]:
        """Add each monomial, in dict order, into the engine's sparse rows,
        whose position of a name `at` gives: u*u adds 2 cv to A_uu, and u*w
        adds cv to A_uw and then to A_wu.  Return the positions of vars."""
        for (u, w), cv in self.quadratic.items():
            i, j = at[u], at[w]
            if i == j:
                row = rows[i]
                row[i] = row.get(i, 0.0) + 2.0 * cv
            else:
                row = rows[i]
                row[j] = row.get(j, 0.0) + cv
                row = rows[j]
                row[i] = row.get(i, 0.0) + cv
        return [at[v] for v in self.vars]


def from_terms(
    vars: tuple[str, ...],
    quadratic: dict[tuple[str, str], float],
    amp: complex = 1.0,
    pihbar_pow: Fraction | int = 0,
) -> OscKernel:
    """Build a kernel from monomial coefficients: quadratic[(u, w)] is the
    full coefficient of the monomial u*w in the exponent.

    The kernel is the engine's step with nothing to integrate,
    ((terms, ()),): entries add up from 0.0 in dict order, as the engine adds
    every part's.
    """
    terms = _Terms(tuple(vars), quadratic, complex(amp),
                   pihbar_pow if type(pihbar_pow) is Fraction else Fraction(pihbar_pow))
    known = set(terms.vars)
    if not known.issuperset(itertools.chain.from_iterable(quadratic)):
        v = next(v for pair in quadratic for v in pair if v not in known)
        raise VariableMismatch(f"no variable {v!r} in kernel over {terms.vars}")
    return _eliminate(((terms, ()),))


def marginalize(kernel: OscKernel, var: str) -> OscKernel:
    """Integrate one variable out of the kernel, exactly.

    If the variable participates in an active delta constraint the integral
    just evaluates the delta: the variable is substituted away and the
    amplitude divides by the matching coefficient magnitude.  Otherwise the pivot
    A_vv is classified relative to its row into the Gaussian, volume or delta
    case; NearCaustic is raised inside the undecidable band and on a NaN
    relative pivot.  In the delta case the new constraint is recorded on the
    result: every other variable is kept, so none is substituted away.
    """
    return marginalize_all(kernel, (var,))


def marginalize_all(kernel, variables) -> OscKernel:
    """Integrate a set of variables out, choosing a stable order: the
    engine's one-step case ((kernel, variables),).  `kernel` may also be a
    part that no kernel was built of: a _Terms, the monomial form, or a
    builder's own part, qprop1d._PathSteps or qsurface._Plaquettes, which
    writes its steps' or plaquettes' terms straight into the engine's rows.

    Constraint-bound variables are consumed first (they are free), then the
    variable with the largest relative pivot |A_vv| / max(max_w |A_vw|,
    _ABS_FLOOR), the first in sorted-name order on a tie; rows that vanished
    become volume factors whenever they are reached.  Every name, and every
    variable of a delta constraint, must be a variable of the kernel; a name
    that a delta substitution consumes on the way is no longer pending.  A
    delta step substitutes away only a constrained variable that is still
    pending, the one with the largest coefficient; every other variable is
    kept, so a constraint that ties kept variables only stays on the result.

    A pivot whose relative size is NaN (its row holds a NaN, or an infinite
    diagonal) is refused with NearCaustic: no case can be told.  A row is a
    volume factor when its scale max_w |A_vw| is at most
    _ABS_FLOOR * max(1, the largest row scale); while any row scale is NaN,
    only a row whose scale is exactly 0 is one.

    The engine holds A as sparse rows of Python floats, one dict per variable
    in sorted-name order from position to coupling (an entry exists only
    where a part or an update wrote one, so row i holds key j exactly when
    row j holds key i), and the row scales as a list; each part adds its
    entries straight into them (_add_into).  The pending pivot ratios sit
    in a lazy heap keyed (-ratio, position); a ratio lies in [0, 1] or is
    NaN, and a NaN one is keyed -inf, so a pop makes np.argmax's choice: the
    first NaN, else the largest ratio, the first in sorted-name order on a
    tie.  A refresh pushes a pending row's key whenever it changes, so the
    heap always holds each pending row's current key, and a pop skips every
    entry that is not its row's current key; each step starts a new heap.
    The volume test keeps an upper bound `top` on the scales; only a row at
    or below _ABS_FLOOR * max(1, top) reads the scales, in one walk
    (_max_abs, as every row scale is computed) whose maximum is NaN when one
    scale is.  A pivot detaches its row and walks it once, listing its
    nonzero couplings and deleting itself from every row it couples to; the
    row stays in place and the position's key becomes None, since nothing
    reads an eliminated row again (a substitution leaves out a constraint's
    zero coefficients, which may name one).  A step rewrites only the
    block of those couplings (for a substitution, of those couplings and the
    constraint's variables), with the per-entry expressions of a dense
    update, and refreshes the caches on those rows; a step with nothing to
    integrate refreshes none, and leaves its rows to the next step that
    integrates.  One OscKernel is built at the end, through the constructor
    that skips re-validation, from the live rows' upper-triangle entries:
    no dense matrix is made.
    Outside the block a dense update would add or subtract an exact zero, and
    the Gaussian update is exactly symmetric, so the result is bit-identical
    to eliminating one variable at a time with dense updates, for any kernel
    without negative zeros (from_terms, the parts and glue make none).

    A step list of several parts, one pass, gives the kernel of the fold
    that builds an OscKernel after each step and glues the next part onto
    it, bit for bit.  That round trip only drops exact zeros (_add_into
    skips them) and adds the next part's entries onto 0.0, which changes
    nothing on kernels without negative zeros.  The running bound `top` may
    differ in one pass, since it keeps the scales of earlier steps; it only
    decides whether the exact test runs, so every volume decision is the
    same.
    """
    return _eliminate(((kernel, variables),))


def _max_abs(values):
    """max |x| over values in one walk, as np.max(np.abs(values)) reads it:
    0.0 when there is none or every one is ±0.0, an infinity kept, and a NaN
    anywhere wins and stays.  Only comparison and negation touch the values,
    so a Fraction row gives its exact maximum."""
    s = 0.0
    for x in values:
        if x < 0.0:
            x = -x
        if x > s or x != x:
            s = x
    return s


def _eliminate(steps) -> OscKernel:
    """The engine: for each (part, variables) of `steps` in turn, add the
    part's entries (a kernel, or a part not yet built into one) into the
    running sum over the union of the parts' variables, as a dense sum
    would, then integrate that step's variables out.  A name of a step or of a delta
    constraint that no part has, a name that an earlier step integrated, or
    a name a part lists twice raises VariableMismatch.  A pivot k detaches row
    k and walks it once, deleting k from each row it couples to (the key
    pattern is symmetric) and listing its nonzero couplings: the update block."""
    seen, gone, named = {}, set(), set()
    for part, variables in steps:
        if len(listed := dict.fromkeys(part.vars)) != len(part.vars):
            raise VariableMismatch(f"repeated variable names in {part.vars}")
        seen.update(listed)
        # own: the step's names and its delta constraints' variables; each must exist and be still there
        own = (*variables, *(v for con in part.constraints for v, _ in con.coeffs)) if part.constraints else variables
        if gone and not gone.isdisjoint(read := (*own, *listed)):
            raise VariableMismatch(f"variable {min(gone.intersection(read))!r} was integrated by an earlier step")
        gone.update(variables)
        named.update(own)
    vars = tuple(seen)
    if missing := named.difference(seen):
        raise VariableMismatch(f"no variable {min(missing)!r} in kernel over {vars}")
    first = steps[0][0]
    if len(steps) == 1 and not gone and isinstance(first, OscKernel):
        return first
    names = sorted(vars)
    n = len(names)
    at = dict(zip(names, range(n)))
    rows: list[dict[int, float]] = [{} for _ in range(n)]
    amp, vol, halves, cons, stale = first.amp, first.vol_pow, 0, [], ()
    # order: each position's rank in vars, which orders a delta's coupled variables; built at the first delta
    order = None
    is_pending = [False] * n
    # scale: the row scales max_w |A_vw|, NaN if the row holds a NaN; top bounds every one ever set but the NaNs
    scale, top = [0.0] * n, 0.0
    # the pending pivot ratios as a lazy heap keyed (-ratio, position), in np.argmax's order: the first NaN, else
    # the largest ratio, the first position on a tie.  A ratio lies in [0, 1] or is NaN, and a NaN one is keyed
    # -inf.  cur[i] is row i's current key; a refresh pushes an entry whenever the key changes, so the heap holds
    # each pending row's current key, and the first popped entry that is its row's current key is the choice.  A
    # position is pending in one step at most, so each starts keyed +inf, and an eliminated one is keyed None,
    # which no entry equals.
    cur, nan_key = [math.inf] * n, -math.inf
    heappush, heappop, sqrt = heapq.heappush, heapq.heappop, math.sqrt
    floor, band = _ABS_FLOOR, _NEAR_BAND * PIVOT_TOL
    for step, (part, variables) in enumerate(steps):
        if step:
            amp, vol = amp * part.amp, vol + part.vol_pow
        cons += part.constraints
        pos = part._add_into(rows, at)
        pending = {at[v] for v in variables}
        for i in pending:
            is_pending[i] = True
        # stale, grown in the pending set: those rows, the ones the last elimination wrote and those of every part
        # added since; every other row's cache is current.  A step with nothing to integrate reads no cache
        left = len(pending)
        pending.update(pos, stale)
        stale = pending
        if not left:
            continue
        # sub: (constraint index, position) handed on by a delta step; the last heap holds eliminated rows only
        sub, heap = None, []
        while left:
            # refresh the caches of the stale rows: at the first pivot those of the step, then those k wrote
            for i in stale:
                row = rows[i]
                # a NaN wins as in np.max, and an empty row's scale is 0.0
                s = _max_abs(row.values())
                if s > top:
                    top = s
                scale[i] = s
                if is_pending[i]:
                    r = -abs(row.get(i, 0.0)) / (floor if s < floor else s)
                    if r != r:
                        r = nan_key
                    if r != cur[i]:
                        heappush(heap, (r, i))
                        cur[i] = r
            if sub is None and cons:
                bound = [k for k in {at[v] for con in cons for v, cv in con.coeffs if abs(cv) > 0.0} if is_pending[k]]
                if bound:
                    k = min(bound)
                    sub = (next(m for m, con in enumerate(cons) if abs(con.coefficient(names[k])) > 0.0), k)
            if sub:
                k = sub[1]
            else:
                key, k = heappop(heap)
                # an eliminated row's entry is skipped, and so is one that a pending row's key has since replaced
                while key != cur[k]:
                    key, k = heappop(heap)
            # detach row k and walk it once: its nonzero neighbours, and k deleted from every neighbour's row.  The
            # row stays in place, as no later step, refresh or read-out reads an eliminated row
            row_k, near = rows[k], []
            akk = row_k.pop(k, 0.0)
            for i, v in row_k.items():
                del rows[i][k]
                if v:
                    near.append(i)
            if sub:
                # var = -sum_{w != var} coeff_w * w / cv over the remaining variables
                con, var = cons.pop(sub[0]), names[k]
                cv = con.coefficient(var)
                # a zero coefficient is left out: it names no pending variable, but may name an eliminated one
                s = {at[w]: -cw / cv for w, cw in con.coeffs if w != var and cw}
                sub = None
                near = list(s.keys() | set(near))
                # each unordered pair {i, j} once, i met at or before j in near: X = A + s a^T + a s^T + akk s s^T,
                # written as 0.5 (X + X^T)
                met = []
                for j in near:
                    sj, aj, row_j = s.get(j, 0.0), row_k.get(j, 0.0), rows[j]
                    met.append((j, sj, aj, row_j))
                    for i, si, ai, row_i in met:
                        aij = row_i.get(j, 0.0)
                        x_ij = aij + si * aj + ai * sj + akk * (si * sj)
                        x_ji = aij + sj * ai + aj * si + akk * (sj * si)
                        row_i[j] = row_j[i] = 0.5 * (x_ij + x_ji)
                amp = amp / abs(cv)
                for j, other in enumerate(cons):
                    ocv = other.coefficient(var)
                    if ocv == 0.0:
                        continue
                    coeffs = {w: cw for w, cw in other.coeffs if w != var}
                    for w, cw in con.coeffs:
                        if w != var:
                            coeffs[w] = coeffs.get(w, 0.0) - ocv * cw / cv
                    items = tuple((w, cw) for w, cw in coeffs.items() if cw != 0.0)
                    cons[j] = AffineConstraint(items) if items else None
                cons = [other for other in cons if other is not None]
            elif key == nan_key:
                # a NaN relative pivot (a NaN in the row, or an infinite diagonal): no case can be told
                raise NearCaustic(f"pivot for {names[k]!r} is not finite")
            else:
                # row_scale <= _ABS_FLOOR * max(max(scale), 1), false on a NaN scale unless the row vanished exactly;
                # the scales are read only when top may pass, in one walk whose maximum is NaN when one scale is
                row_scale = scale[k]
                if row_scale == 0.0 or (row_scale <= floor or row_scale <= floor * top) and (
                        (t := _max_abs(scale)) == t and row_scale <= floor * max(t, 1.0)):
                    # variable absent from the exponent: a pure volume factor
                    vol += 1
                elif (rel := abs(akk) / row_scale) >= band:
                    # Gaussian: Schur complement plus Fresnel prefactor, each unordered pair {i, j} once, i met at
                    # or before j in near
                    met = []
                    for j in near:
                        aj, row_j = row_k[j], rows[j]
                        met.append((j, aj, row_j))
                        for i, ai, row_i in met:
                            row_i[j] = row_j[i] = row_i.get(j, 0.0) - ai * aj / akk
                    amp = amp * (_FRESNEL_UP if akk > 0.0 else _FRESNEL_DOWN) / sqrt(abs(akk))
                    halves += 1
                elif rel > PIVOT_TOL:
                    raise NearCaustic(f"pivot for {names[k]!r} sits at relative size {rel:.3e}; refusing to classify")
                else:
                    # delta: exponent is (coupling . u) * v up to negligible curvature; the constraint lists its
                    # variables in the order the parts first named them
                    if order is None:
                        order = sorted(range(n), key=vars.__getitem__)
                    tied = sorted((i for i in near if abs(row_k[i]) > floor * row_scale), key=order.__getitem__)
                    if not tied:
                        # only an infinite coupling, which no finite multiple of the row scale exceeds, leaves none
                        raise NearCaustic(f"integrating {names[k]!r} leaves a delta of no finite coupling")
                    con = AffineConstraint(tuple((names[i], row_k[i]) for i in tied))
                    cons.append(con)
                    halves += 2
                    candidates = [i for i in tied if is_pending[i]]
                    if candidates:
                        sub = (len(cons) - 1, max(candidates, key=lambda i: abs(row_k[i])))
            # k's scale clears after the volume test; only the rows k wrote need a fresh cache, now or at the next step
            scale[k] = 0.0
            # every chosen pivot is pending: a bound or candidate variable, or a popped current key
            left -= 1
            is_pending[k] = False
            cur[k] = None
            stale = near
    # the parts' powers of 2 pi hbar and the halves over a common denominator: one Fraction, not one addition per part
    num, den = halves, 2
    for part, _ in steps:
        p = part.pihbar_pow
        if den % p.denominator:
            up = p.denominator // math.gcd(den, p.denominator)
            num, den = num * up, den * up
        num += p.numerator * (den // p.denominator)
    kept = [v for v in vars if v not in gone] if gone else vars
    # the live rows' upper-triangle entries, indices into kept: a live row holds no eliminated position
    live, out, entries = [at[v] for v in kept], [0] * n, {}
    for p, i in enumerate(live):
        out[i] = p
    for p, i in enumerate(live):
        for j, x in rows[i].items():
            if p <= (q := out[j]):
                entries[p, q] = x
    return OscKernel._built(tuple(kept), entries, amp, Fraction(num, den), vol, tuple(cons))


def glue(k1: OscKernel, k2: OscKernel, shared) -> OscKernel:
    """Multiply two kernels and integrate over the shared variables: the
    engine's two-step case ((k1, ()), (k2, shared)).

    Exponents add over the variable union, k1's variables first; with an
    empty shared set this is the plain product kernel.
    """
    shared = tuple(shared)
    for v in shared:
        k1.index(v)
        k2.index(v)
    return _eliminate(((k1, ()), (k2, shared)))


@dataclass(frozen=True)
class KernelDiff:
    """Alignment report between two kernels over the same boundary set."""

    exponent_diff: float
    amp_ratio: complex
    pihbar_diff: Fraction
    vol_diff: int

    @property
    def amp_ratio_error(self) -> float:
        return abs(self.amp_ratio - 1.0)


def compare(k1: OscKernel, k2: OscKernel) -> KernelDiff:
    """Align variable order and report exponent and amplitude differences.

    `exponent_diff` is the max-norm difference over A and the coefficients
    of the normalized delta constraints; a non-finite difference always
    wins.  A is compared over the union of the two kernels' entries, k1's
    re-keyed to k2's variable order, an absent entry reading 0.0.  Kernels
    with constraints are first put on their constraint surface by the
    engine's delta step: while k1 has a constraint, the lead of its first
    sorted normalized one is substituted away in both kernels,
    _eliminate(((k, (lead,)),)), and each amp divides by that lead's
    coefficient.  Over all steps each amp divides by |det C_L|, C's columns
    at the substituted leads L, as the integral of delta(C v) over v_L is
    1 / |det C_L|.  No step runs when a normalized coefficient differs by
    NaN, and a lead to which k2's constraints give a 0.0 coefficient is
    refused with VariableMismatch.  Volume and 2-pi-hbar powers are
    reported, never folded into the exponent measure.
    """
    if k1.vars != k2.vars and set(k1.vars) != set(k2.vars):
        raise VariableMismatch(f"variable sets differ: {k1.vars} vs {k2.vars}")
    if len(k1.constraints) != len(k2.constraints):
        raise VariableMismatch("kernels carry different numbers of delta constraints")
    # the signed differences of each part, each constraint's coefficients, then A; _max_abs takes their magnitudes
    diffs = []
    if k1.constraints:
        cons1, cons2 = (sorted((con.normalized() for con in k.constraints), key=lambda con: con.coeffs)
                        for k in (k1, k2))
        for con1, con2 in zip(cons1, cons2):
            if con1.variables() != con2.variables():
                raise VariableMismatch("delta constraints tie different variables")
            diffs += [a - b for (_, a), (_, b) in zip(con1.coeffs, con2.coeffs)]
        # a normalized coefficient lies in [-1, 1] or is NaN, so only a NaN difference keeps the kernels as they are
        if (d := _max_abs(diffs)) == d:
            while k1.constraints:
                lead = min((con.normalized() for con in k1.constraints), key=lambda con: con.coeffs).lead()
                if not any(abs(con.coefficient(lead)) > 0.0 for con in k2.constraints):
                    raise VariableMismatch(f"the second kernel's delta constraints give {lead!r} no coefficient")
                k1, k2 = _eliminate(((k1, (lead,)),)), _eliminate(((k2, (lead,)),))
    e1, e2 = k1.entries, k2.entries
    if k1.vars != k2.vars:
        # k1's entries re-keyed to k2's variable order
        at = {v: n for n, v in enumerate(k2.vars)}
        perm = [at[v] for v in k1.vars]
        e1 = {}
        for (i, j), x in k1.entries.items():
            i, j = perm[i], perm[j]
            e1[(i, j) if i <= j else (j, i)] = x
    # the entries outside both patterns differ by 0.0, which changes no maximum
    diffs += [x - e2.get(ij, 0.0) for ij, x in e1.items()]
    diffs += [x for ij, x in e2.items() if ij not in e1]
    # a NaN wins as in np.max, and no difference at all reads 0.0
    exponent_diff = float(_max_abs(diffs))
    # the frozen result from fields built here, as OscKernel._built does: no keyword __init__, and no Fraction
    # subtraction when the powers agree
    diff = object.__new__(KernelDiff)
    diff.__dict__.update(exponent_diff=exponent_diff, amp_ratio=k1.amp / k2.amp if k2.amp != 0 else complex("inf"),
                         pihbar_diff=_NO_POWER if k1.pihbar_pow == k2.pihbar_pow else k1.pihbar_pow - k2.pihbar_pow,
                         vol_diff=k1.vol_pow - k2.vol_pow)
    return diff
