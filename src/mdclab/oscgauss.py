"""Exact calculus of oscillatory Gaussian kernels.

A kernel over labelled variables v is

    K(v) = amp * (2 pi hbar)^pihbar_pow * V^vol_pow
           * exp[(i/hbar) (v^T A v / 2 + B^T v + c)] * prod(delta factors),

with A symmetric and stored in action units; hbar enters only through the
i/hbar convention and the bookkeeping powers.  V is the formally infinite
volume constant produced when an integration variable drops out of the
exponent; it is tracked symbolically and never realised numerically.

Integrating one variable out lands in exactly one of three exact cases:

  Gaussian   |A_vv| > 0:  Schur complement update, amplitude gains
             exp(i sgn(A_vv) pi/4)/sqrt(|A_vv|) and half a power of 2 pi hbar
             (the Fresnel integral with the branch sqrt(i) = exp(i pi/4));
  volume     the whole row and the linear term vanish: one power of V;
  delta      A_vv ~ 0 but the couplings survive: the integral is
             2 pi hbar * delta(coupling . v + B_v); the constraint is recorded
             and, when allowed, immediately consumed by substituting one of
             the constrained variables (amplitude divides by |coefficient|).

Pivots inside the band (tol, 100 tol) relative to their row are refused with
NearCaustic rather than silently classified.

marginalize_all is the one elimination engine; marginalize calls it, glue
feeds it both kernels' entries without building their product, and
marginalize_terms feeds it monomials without building a dense kernel, which is
how the kernel builders (path_kernel, surface_kernel) integrate.  It consumes
constraint-bound variables first, then the largest relative pivot, the first
in sorted-name order on a tie.  A is held as sparse rows of Python floats and
a step updates only the pivot's nonzero couplings, at a Python cost in the
square of the pivot's degree plus one O(n) numpy argmax, bit-identical to
dense one-variable-at-a-time elimination for kernels without negative zeros.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import NearCaustic, VariableMismatch

#: Relative pivot size below which a variable counts as absent from the
#: quadratic part; the refusal band extends to 100x this.
PIVOT_TOL = 1e-9
_NEAR_BAND = 100.0
_ABS_FLOOR = 1e-13


@dataclass(frozen=True)
class AffineConstraint:
    """Linear relation  sum(coeff * var) + const = 0  from a delta reduction."""

    coeffs: tuple[tuple[str, float], ...]
    const: float

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def coefficient(self, var: str) -> float:
        for v, cv in self.coeffs:
            if v == var:
                return cv
        return 0.0

    def normalized(self) -> "AffineConstraint":
        """Scale the first largest-magnitude coefficient to +1, sorted."""
        max_abs = max(abs(cv) for _, cv in self.coeffs)
        lead = min(v for v, cv in self.coeffs if abs(cv) >= max_abs * (1.0 - 1e-12))
        s = 1.0 / self.coefficient(lead)
        items = tuple(sorted((v, cv * s) for v, cv in self.coeffs))
        return AffineConstraint(coeffs=items, const=self.const * s)

    def residual(self, assignment: dict[str, float]) -> float:
        return abs(sum(cv * assignment[v] for v, cv in self.coeffs) + self.const)


@dataclass(frozen=True)
class OscKernel:
    """Immutable oscillatory Gaussian kernel over named variables."""

    vars: tuple[str, ...]
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    c: float
    amp: complex = 1.0 + 0.0j
    pihbar_pow: Fraction = Fraction(0)
    vol_pow: int = 0
    constraints: tuple[AffineConstraint, ...] = ()
    hbar: float = 1.0

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        B = np.array(self.B, dtype=float)
        n = len(self.vars)
        if A.shape != (n, n) or B.shape != (n,):
            raise VariableMismatch(f"matrix shapes {A.shape}, {B.shape} do not fit {n} variables")
        if n and abs(A - A.T).max() > 1e-12 * max(1.0, float(abs(A).max())):
            raise VariableMismatch("exponent matrix must be symmetric")
        A = 0.5 * (A + A.T)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "amp", complex(self.amp))
        object.__setattr__(self, "pihbar_pow", Fraction(self.pihbar_pow))
        object.__setattr__(self, "constraints", tuple(self.constraints))

    # -- inspection ------------------------------------------------------------

    def index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise VariableMismatch(f"no variable {var!r} in kernel over {self.vars}") from None

    def coeff(self, v1: str, v2: str) -> float:
        """Full coefficient of the monomial v1*v2 in the exponent."""
        i, j = self.index(v1), self.index(v2)
        return float(0.5 * self.A[i, j]) if i == j else float(self.A[i, j])

    def exponent(self, assignment: dict[str, float]) -> float:
        v = np.array([assignment[name] for name in self.vars])
        return float(0.5 * v @ self.A @ v + self.B @ v + self.c)

    def value(self, assignment: dict[str, float], volume: float = 1.0) -> complex:
        """Numeric value with V set to `volume`; delta weights are not
        realised, but the value is 0 off the constraint surface."""
        for con in self.constraints:
            if con.residual(assignment) > 1e-9:
                return 0.0j
        mag = self.amp * (2.0 * math.pi * self.hbar) ** float(self.pihbar_pow)
        mag *= volume**self.vol_pow
        return mag * cmath.exp(1j * self.exponent(assignment) / self.hbar)

    # -- canonical form ----------------------------------------------------------

    def canonical_dict(self) -> dict:
        order = np.argsort(np.array(self.vars))
        return {
            "vars": [self.vars[i] for i in order],
            "A": _rounded(self.A[np.ix_(order, order)].reshape(-1)),
            "B": _rounded(self.B[order]),
            "c": round(float(self.c), 15),
            "amp": {
                "modulus": round(abs(self.amp), 15),
                "phase": round(cmath.phase(self.amp), 15),
            },
            "pihbar_pow": str(self.pihbar_pow),
            "vol_pow": self.vol_pow,
            "hbar": self.hbar,
            "constraints": sorted(
                (
                    {
                        "coeffs": [[v, round(cv, 15)] for v, cv in con.normalized().coeffs],
                        "const": round(con.normalized().const, 15),
                    }
                    for con in self.constraints
                ),
                key=lambda item: json.dumps(item, sort_keys=True),
            ),
        }

    def to_json(self) -> str:
        """Canonical JSON; a non-finite entry raises ValueError, since NaN and
        Infinity are not JSON."""
        return json.dumps(self.canonical_dict(), sort_keys=True, allow_nan=False)

    def _entries(self):
        """(row, column, value) of each nonzero entry of A, by position in vars."""
        ii, jj = np.nonzero(self.A)
        return zip(ii.tolist(), jj.tolist(), self.A[ii, jj].tolist())

    def _linear(self):
        """(position, value) of each entry of B."""
        return enumerate(self.B.tolist())

    @staticmethod
    def from_json(text: str) -> "OscKernel":
        data = json.loads(text)
        n = len(data["vars"])
        amp = data["amp"]["modulus"] * cmath.exp(1j * data["amp"]["phase"])
        cons = tuple(
            AffineConstraint(coeffs=tuple((v, cv) for v, cv in item["coeffs"]), const=item["const"])
            for item in data["constraints"]
        )
        return OscKernel(
            vars=tuple(data["vars"]),
            A=np.array(data["A"], dtype=float).reshape(n, n),
            B=np.array(data["B"], dtype=float),
            c=data["c"],
            amp=amp,
            pihbar_pow=Fraction(data["pihbar_pow"]),
            vol_pow=data["vol_pow"],
            constraints=cons,
            hbar=data["hbar"],
        )


def _rounded(values: np.ndarray) -> list[float]:
    """round(x, 15) of each entry as a Python float.  An exact zero rounds to
    itself, sign included, so only the nonzero entries (NaN among them) pay
    for the call."""
    out = values.tolist()
    for i in np.flatnonzero(values).tolist():
        out[i] = round(out[i], 15)
    return out


class _Terms(NamedTuple):
    """A kernel in the monomial form from_terms takes, read by the engine
    without building A."""

    vars: tuple[str, ...]
    quadratic: dict[tuple[str, str], float]
    linear: dict[str, float]
    c: float
    amp: complex
    pihbar_pow: Fraction
    hbar: float
    vol_pow: int = 0
    constraints: tuple[AffineConstraint, ...] = ()

    def _entries(self):
        """(row, column, increment) for each monomial, by position in vars and
        in dict order: u*u adds 2 cv to A_uu, u*w adds cv to A_uw and A_wu."""
        idx = {v: k for k, v in enumerate(self.vars)}
        for (u, w), cv in self.quadratic.items():
            i, j = idx[u], idx[w]
            if i == j:
                yield i, i, 2.0 * cv
            else:
                yield i, j, cv
                yield j, i, cv

    def _linear(self):
        """(position, increment) for each linear monomial, in dict order."""
        idx = {v: k for k, v in enumerate(self.vars)}
        return ((idx[u], cv) for u, cv in self.linear.items())


def from_terms(
    vars: tuple[str, ...],
    quadratic: dict[tuple[str, str], float],
    linear: dict[str, float] | None = None,
    const: float = 0.0,
    amp: complex = 1.0,
    pihbar_pow: Fraction | int = 0,
    hbar: float = 1.0,
) -> OscKernel:
    """Build a kernel from monomial coefficients: quadratic[(u, w)] is the
    full coefficient of the monomial u*w in the exponent.

    Entries add up from 0.0 in dict order, exactly as the engine adds them
    from marginalize_terms, which the kernel builders that integrate at once
    (path_kernel, surface_kernel) call instead, never building this dense A.
    """
    terms = _Terms(tuple(vars), quadratic, linear or {}, const, complex(amp), Fraction(pihbar_pow), hbar)
    n = len(terms.vars)
    A = np.zeros((n, n))
    B = np.zeros(n)
    for i, j, v in terms._entries():
        A[i, j] += v
    for i, v in terms._linear():
        B[i] += v
    return OscKernel(vars=terms.vars, A=A, B=B, c=terms.c, amp=terms.amp, pihbar_pow=terms.pihbar_pow, hbar=terms.hbar)


def marginalize_terms(
    vars: tuple[str, ...],
    quadratic: dict[tuple[str, str], float],
    variables,
    keep: frozenset[str] | set[str] | None = None,
    amp: complex = 1.0,
    pihbar_pow: Fraction | int = 0,
    hbar: float = 1.0,
) -> OscKernel:
    """marginalize_all(from_terms(vars, quadratic, amp=amp, pihbar_pow=pihbar_pow,
    hbar=hbar), variables, keep=keep), with the monomials fed to the engine
    directly instead of through a dense kernel.

    The result is bit-identical except where an entry exceeds half the
    largest double: from_terms' kernel symmetrises A as 0.5 (A + A^T), which
    turns such an entry into inf, and the direct feed keeps it.
    """
    terms = _Terms(tuple(vars), quadratic, {}, 0.0, complex(amp), Fraction(pihbar_pow), hbar)
    return marginalize_all(terms, variables, keep=keep)


def rename(kernel: OscKernel, mapping: dict[str, str]) -> OscKernel:
    """Relabel variables; labels absent from the mapping are kept."""
    new_vars = tuple(mapping.get(v, v) for v in kernel.vars)
    if len(set(new_vars)) != len(new_vars):
        raise VariableMismatch(f"renaming collides: {new_vars}")
    cons = tuple(
        AffineConstraint(
            coeffs=tuple((mapping.get(v, v), cv) for v, cv in con.coeffs), const=con.const
        )
        for con in kernel.constraints
    )
    return replace(kernel, vars=new_vars, constraints=cons)


def marginalize(
    kernel: OscKernel,
    var: str,
    tol: float = PIVOT_TOL,
    keep: frozenset[str] | set[str] = frozenset(),
) -> OscKernel:
    """Integrate one variable out of the kernel, exactly.

    If the variable participates in an active delta constraint the integral
    just evaluates the delta: the variable is substituted away and the
    amplitude divides by the matching coefficient magnitude.  Otherwise the pivot
    A_vv is classified relative to its row into the Gaussian, volume or delta
    case; NearCaustic is raised inside the undecidable band.  In the delta
    case the new constraint is recorded and one constrained variable not in
    `keep` (when one exists) is substituted away immediately.
    """
    return marginalize_all(kernel, (var,), tol=tol, keep=keep)


def marginalize_all(
    kernel: OscKernel | _Terms,
    variables,
    tol: float = PIVOT_TOL,
    keep: frozenset[str] | set[str] | None = None,
) -> OscKernel:
    """Integrate a set of variables out, choosing a stable order.  `kernel`
    may also be the monomial form marginalize_terms hands on, read without
    building A.

    Constraint-bound variables are consumed first (they are free), then the
    variable with the largest relative pivot |A_vv| / max(max_w |A_vw|, |B_v|,
    _ABS_FLOOR), the first in sorted-name order on a tie; rows that vanished
    become volume factors whenever they are reached.  Every name, and every
    variable of a delta constraint, must be a variable of the kernel; a name
    that a delta substitution consumes on the way is no longer pending.
    `keep` (by default every variable not integrated) lists the variables a
    delta constraint may not substitute away.

    The engine holds A as sparse rows of Python floats, one dict per variable
    in sorted-name order from position to coupling (a coupling that was never
    nonzero has no entry), and B as a list.  The row scales max(max_w |A_vw|,
    |B_v|) and the pending pivot ratios stay numpy vectors, so the pivot
    choice and the volume test keep numpy's argmax and max, NaN included.  A
    step rewrites only the block of the pivot's nonzero couplings (for a
    substitution, of those couplings and the constraint's variables), with
    the per-entry expressions of a dense update, and refreshes the caches on
    those rows; one OscKernel is built at the end.  Outside the block a dense
    update would add or subtract an exact zero, and the Gaussian update is
    exactly symmetric, so the result is bit-identical to eliminating one
    variable at a time with dense updates, for any kernel without negative
    zeros (from_terms, marginalize_terms and glue make none).
    """
    return _eliminate(kernel.vars, (kernel,), variables, tol, keep)


def _eliminate(vars, parts, variables, tol, keep) -> OscKernel:
    """marginalize_all over the product of `parts` (kernels, or _Terms not
    yet built), whose variables `vars` lists in order: their entries add as
    a dense sum over `vars` would, in part order, without building the
    product kernel."""
    pending = set(variables)
    cons = [con for part in parts for con in part.constraints]
    missing = pending.union(*(con.variables() for con in cons)) - set(vars)
    if missing:
        raise VariableMismatch(f"no variable {min(missing)!r} in kernel over {vars}")
    if not pending and len(parts) == 1 and isinstance(parts[0], OscKernel):
        return parts[0]
    if keep is None:
        keep = frozenset(vars) - pending
    n = len(vars)
    order = sorted(range(n), key=vars.__getitem__)
    names = [vars[i] for i in order]
    at = {v: s for s, v in enumerate(names)}
    rows: list[dict[int, float]] = [{} for _ in range(n)]
    B = [0.0] * n
    first = parts[0]
    c, amp, pihbar, vol, halves = first.c, first.amp, first.pihbar_pow, first.vol_pow, 0
    for m, part in enumerate(parts):
        if m:
            c, amp, pihbar, vol = c + part.c, amp * part.amp, pihbar + part.pihbar_pow, vol + part.vol_pow
        pos = [at[v] for v in part.vars]
        for i, j, v in part._entries():
            row, j = rows[pos[i]], pos[j]
            row[j] = row.get(j, 0.0) + v
        for i, v in part._linear():
            B[pos[i]] += v
    is_pending = [v in pending for v in names]
    scale, ratio = np.zeros(n), np.full(n, -np.inf)

    def refresh(i: int) -> None:
        # scale = max(max_w |A_vw|, |B_v|), where a NaN wins as in np.max: the sum is NaN exactly when a term is
        mags = [abs(B[i]), *map(abs, rows[i].values())]
        s = scale[i] = total if (total := sum(mags)) != total else max(mags)
        if is_pending[i]:
            ratio[i] = abs(rows[i].get(i, 0.0)) / (_ABS_FLOOR if s < _ABS_FLOOR else s)

    for i in range(n):
        refresh(i)
    left, sub, gone = len(pending), None, set()  # sub: (constraint index, position) handed on by a delta step
    while left or sub:
        if sub is None:
            bound = [k for k in {at[v] for con in cons for v, cv in con.coeffs if abs(cv) > 0.0} if is_pending[k]]
            if bound:
                k = min(bound)
                sub = (next(m for m, con in enumerate(cons) if abs(con.coefficient(names[k])) > 0.0), k)
        k = sub[1] if sub else int(ratio.argmax())
        row_k, akk, bk = rows[k], rows[k].get(k, 0.0), B[k]
        near = [i for i, v in row_k.items() if v and i != k]
        if sub:
            # var = -(sum_{w != var} coeff_w * w + const)/cv over the remaining variables
            con, var = cons.pop(sub[0]), names[k]
            cv = con.coefficient(var)
            s = {at[w]: -cw / cv for w, cw in con.coeffs if w != var}
            sub, sub_const = None, -con.const / cv
            near = list(s.keys() | set(near))
            for p, i in enumerate(near):
                si, ai = s.get(i, 0.0), row_k.get(i, 0.0)
                for j in near[p:]:
                    sj, aj, aij = s.get(j, 0.0), row_k.get(j, 0.0), rows[i].get(j, 0.0)
                    # X = A + s a^T + a s^T + akk s s^T, written as 0.5 (X + X^T)
                    x_ij = aij + si * aj + ai * sj + akk * (si * sj)
                    x_ji = aij + sj * ai + aj * si + akk * (sj * si)
                    rows[i][j] = rows[j][i] = 0.5 * (x_ij + x_ji)
                B[i] = B[i] + bk * si + sub_const * (ai + akk * si)
            c = c + bk * sub_const + 0.5 * akk * sub_const * sub_const
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
                cons[j] = AffineConstraint(items, other.const - ocv * con.const / cv) if items else None
            cons = [other for other in cons if other is not None]
        else:
            row_scale = float(scale[k])
            if row_scale <= _ABS_FLOOR * max(float(scale.max()), 1.0):
                # variable absent from the exponent: a pure volume factor
                vol += 1
            elif (rel := abs(akk) / row_scale) >= _NEAR_BAND * tol:
                # Gaussian: Schur complement plus Fresnel prefactor
                for p, i in enumerate(near):
                    ri, row_i = row_k[i], rows[i]
                    for j in near[p:]:
                        row_i[j] = rows[j][i] = row_i.get(j, 0.0) - ri * row_k[j] / akk
                    B[i] = B[i] - (bk / akk) * ri
                c = c - bk * bk / (2.0 * akk)
                amp = amp * cmath.exp(1j * math.copysign(math.pi / 4.0, akk)) / math.sqrt(abs(akk))
                halves += 1
            elif rel > tol:
                raise NearCaustic(f"pivot for {names[k]!r} sits at relative size {rel:.3e}; refusing to classify")
            else:
                # delta: exponent is (coupling . u + B_v) * v up to negligible curvature
                tied = sorted((i for i in near if abs(row_k[i]) > _ABS_FLOOR * row_scale), key=order.__getitem__)
                if not tied:
                    # delta of a nonzero constant: the kernel vanishes identically
                    raise NearCaustic(f"integrating {names[k]!r} leaves delta({bk!r}): the kernel is null")
                con = AffineConstraint(coeffs=tuple((names[i], row_k[i]) for i in tied), const=bk)
                cons.append(con)
                halves += 2
                candidates = [w for w in con.variables() if w not in keep]
                if candidates:
                    sub = (len(cons) - 1, at[max(candidates, key=lambda w: abs(con.coefficient(w)))])
        # drop k; only the rows the step wrote need a fresh cache, and only for a later pivot choice
        rows[k], B[k], scale[k], ratio[k] = {}, 0.0, 0.0, -np.inf
        for i in row_k:
            rows[i].pop(k, None)
        gone.add(k)
        left -= is_pending[k]
        is_pending[k] = False
        if left:
            for i in near:
                refresh(i)
    live = [at[v] for v in vars if at[v] not in gone]
    out, m = {i: p for p, i in enumerate(live)}, len(live)
    A = np.zeros(m * m)
    A[[p * m + out[j] for p, i in enumerate(live) for j in rows[i]]] = [v for i in live for v in rows[i].values()]
    return OscKernel(vars=tuple(names[i] for i in live), A=A.reshape(m, m),
                     B=np.array([B[i] for i in live]), c=c, amp=amp, pihbar_pow=pihbar + Fraction(halves, 2),
                     vol_pow=vol, constraints=tuple(cons), hbar=first.hbar)


def glue(
    k1: OscKernel,
    k2: OscKernel,
    shared,
    tol: float = PIVOT_TOL,
) -> OscKernel:
    """Multiply two kernels and integrate over the shared variables.

    Exponents add over the variable union; with an empty shared set this is
    the plain product kernel.
    """
    shared = tuple(shared)
    for v in shared:
        k1.index(v)
        k2.index(v)
    if k1.hbar != k2.hbar:
        raise VariableMismatch("kernels carry different hbar")
    union = tuple(k1.vars) + tuple(v for v in k2.vars if v not in k1.vars)
    return _eliminate(union, (k1, k2), shared, tol, keep=frozenset(union) - set(shared))


@dataclass(frozen=True)
class KernelDiff:
    """Alignment report between two kernels over the same boundary set."""

    exponent_diff: float
    amp_ratio: complex
    pihbar_diff: Fraction
    vol_diff: int
    tol: float = PIVOT_TOL

    @property
    def amp_ratio_error(self) -> float:
        return abs(self.amp_ratio - 1.0)

    @property
    def equal_modulo_volume(self) -> bool:
        """Exponents agree to tolerance; bookkeeping powers are reported but
        deliberately not part of this judgment."""
        return self.exponent_diff <= self.tol


def compare(k1: OscKernel, k2: OscKernel, tol: float = PIVOT_TOL) -> KernelDiff:
    """Align variable order and report exponent and amplitude differences.

    `exponent_diff` is the max-norm difference over (A, B, c) and the
    normalized delta constraints, coefficients and constants; a non-finite
    difference always wins.  Volume and 2-pi-hbar powers are reported, never
    folded into the exponent measure.
    """
    if set(k1.vars) != set(k2.vars):
        raise VariableMismatch(f"variable sets differ: {k1.vars} vs {k2.vars}")
    if len(k1.constraints) != len(k2.constraints):
        raise VariableMismatch("kernels carry different numbers of delta constraints")
    if k1.hbar != k2.hbar:
        raise VariableMismatch("kernels carry different hbar")
    perm = [k2.index(v) for v in k1.vars]
    diffs = [np.abs(k1.A - k2.A[np.ix_(perm, perm)]).ravel(), np.abs(k1.B - k2.B[perm]), [abs(k1.c - k2.c)]]

    def normalized(k: OscKernel) -> list[AffineConstraint]:
        return sorted((con.normalized() for con in k.constraints), key=lambda con: (con.coeffs, con.const))

    for con1, con2 in zip(normalized(k1), normalized(k2)):
        if con1.variables() != con2.variables():
            raise VariableMismatch("delta constraints tie different variables")
        diffs.append([abs(a - b) for (_, a), (_, b) in zip(con1.coeffs, con2.coeffs)] + [abs(con1.const - con2.const)])
    exponent_diff = float(np.max(np.concatenate(diffs)))
    amp_ratio = k1.amp / k2.amp if k2.amp != 0 else complex("inf")
    return KernelDiff(
        exponent_diff=exponent_diff,
        amp_ratio=amp_ratio,
        pihbar_diff=k1.pihbar_pow - k2.pihbar_pow,
        vol_diff=k1.vol_pow - k2.vol_pow,
        tol=tol,
    )
