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
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

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
        if n and np.max(np.abs(A - A.T)) > 1e-12 * max(1.0, float(np.max(np.abs(A)))):
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
        A = self.A[np.ix_(order, order)]
        B = self.B[order]
        return {
            "vars": [self.vars[i] for i in order],
            "A": [round(float(x), 15) for x in A.reshape(-1)],
            "B": [round(float(x), 15) for x in B],
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
        return json.dumps(self.canonical_dict(), sort_keys=True)

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
    full coefficient of the monomial u*w in the exponent."""
    idx = {v: k for k, v in enumerate(vars)}
    n = len(vars)
    A = np.zeros((n, n))
    B = np.zeros(n)
    for (u, w), cv in quadratic.items():
        i, j = idx[u], idx[w]
        if i == j:
            A[i, i] += 2.0 * cv
        else:
            A[i, j] += cv
            A[j, i] += cv
    for u, cv in (linear or {}).items():
        B[idx[u]] += cv
    return OscKernel(vars=vars, A=A, B=B, c=const, amp=amp, pihbar_pow=Fraction(pihbar_pow), hbar=hbar)


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


def _substitute(kernel: OscKernel, con_idx: int, var: str) -> OscKernel:
    """Consume one delta constraint by eliminating `var` from the kernel."""
    con = kernel.constraints[con_idx]
    cv = con.coefficient(var)
    k = kernel.index(var)
    n = len(kernel.vars)
    # var = -(sum_{w != var} coeff_w * w + const)/cv expressed over remaining vars
    keep_idx = [i for i in range(n) if i != k]
    sub = np.zeros(n)
    for w, cw in con.coeffs:
        if w != var:
            sub[kernel.index(w)] = -cw / cv
    sub_const = -con.const / cv
    sub_r = sub[keep_idx]

    A, B = kernel.A, kernel.B
    arow = A[k, keep_idx]
    akk = A[k, k]
    A_new = A[np.ix_(keep_idx, keep_idx)] + np.outer(sub_r, arow) + np.outer(arow, sub_r) + akk * np.outer(sub_r, sub_r)
    B_new = B[keep_idx] + B[k] * sub_r + sub_const * (arow + akk * sub_r)
    c_new = kernel.c + B[k] * sub_const + 0.5 * akk * sub_const * sub_const

    new_cons = []
    for m, other in enumerate(kernel.constraints):
        if m == con_idx:
            continue
        ocv = other.coefficient(var)
        if ocv == 0.0:
            new_cons.append(other)
            continue
        coeffs = {w: cw for w, cw in other.coeffs if w != var}
        for w, cw in con.coeffs:
            if w != var:
                coeffs[w] = coeffs.get(w, 0.0) - ocv * cw / cv
        const = other.const - ocv * con.const / cv
        items = tuple((w, cw) for w, cw in coeffs.items() if cw != 0.0)
        if items:
            new_cons.append(AffineConstraint(coeffs=items, const=const))
    return replace(
        kernel,
        vars=tuple(v for v in kernel.vars if v != var),
        A=0.5 * (A_new + A_new.T),
        B=B_new,
        c=c_new,
        amp=kernel.amp / abs(cv),
        constraints=tuple(new_cons),
    )


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
    for m, con in enumerate(kernel.constraints):
        if abs(con.coefficient(var)) > 0.0:
            return _substitute(kernel, m, var)

    k = kernel.index(var)
    n = len(kernel.vars)
    keep_idx = [i for i in range(n) if i != k]
    akk = float(kernel.A[k, k])
    row = kernel.A[k, keep_idx]
    bk = float(kernel.B[k])

    global_scale = max(float(np.max(np.abs(kernel.A))) if n else 0.0,
                       float(np.max(np.abs(kernel.B))) if n else 0.0, 1.0)
    row_scale = max(
        float(np.max(np.abs(row))) if keep_idx else 0.0, abs(bk), abs(akk)
    )
    new_vars = tuple(v for i, v in enumerate(kernel.vars) if i != k)

    if row_scale <= _ABS_FLOOR * global_scale:
        # variable absent from the exponent: a pure volume factor
        return replace(
            kernel,
            vars=new_vars,
            A=kernel.A[np.ix_(keep_idx, keep_idx)],
            B=kernel.B[keep_idx],
            vol_pow=kernel.vol_pow + 1,
        )

    ratio = abs(akk) / row_scale
    if ratio >= _NEAR_BAND * tol:
        # Gaussian: Schur complement plus Fresnel prefactor
        A_new = kernel.A[np.ix_(keep_idx, keep_idx)] - np.outer(row, row) / akk
        B_new = kernel.B[keep_idx] - (bk / akk) * row
        c_new = kernel.c - bk * bk / (2.0 * akk)
        amp = kernel.amp * cmath.exp(1j * math.copysign(math.pi / 4.0, akk)) / math.sqrt(abs(akk))
        return replace(
            kernel,
            vars=new_vars,
            A=0.5 * (A_new + A_new.T),
            B=B_new,
            c=c_new,
            amp=amp,
            pihbar_pow=kernel.pihbar_pow + Fraction(1, 2),
        )
    if ratio > tol:
        raise NearCaustic(
            f"pivot for {var!r} sits at relative size {ratio:.3e}; refusing to classify"
        )

    # delta: exponent is (coupling . u + B_v) * v up to negligible curvature
    coeffs = tuple(
        (kernel.vars[i], float(kernel.A[k, i]))
        for i in keep_idx
        if abs(kernel.A[k, i]) > _ABS_FLOOR * row_scale
    )
    if not coeffs:
        # delta of a nonzero constant: the kernel vanishes identically
        raise NearCaustic(
            f"integrating {var!r} leaves delta({bk!r}): the kernel is null"
        )
    con = AffineConstraint(coeffs=coeffs, const=bk)
    out = replace(
        kernel,
        vars=new_vars,
        A=kernel.A[np.ix_(keep_idx, keep_idx)],
        B=kernel.B[keep_idx],
        pihbar_pow=kernel.pihbar_pow + 1,
        constraints=kernel.constraints + (con,),
    )
    candidates = [w for w in con.variables() if w not in keep]
    if candidates:
        target = max(candidates, key=lambda w: abs(con.coefficient(w)))
        out = _substitute(out, len(out.constraints) - 1, target)
    return out


def marginalize_all(
    kernel: OscKernel,
    variables,
    tol: float = PIVOT_TOL,
    keep: frozenset[str] | set[str] | None = None,
) -> OscKernel:
    """Integrate a set of variables out, choosing a stable order.

    Constraint-bound variables are consumed first (they are free), then the
    variable with the largest relative pivot; rows that vanished become
    volume factors whenever they are reached.
    """
    pending = set(variables)
    if keep is None:
        keep = frozenset(kernel.vars) - pending
    while pending:
        # a delta substitution may have consumed a pending variable already
        pending &= set(kernel.vars)
        if not pending:
            break
        constrained = [
            v for v in pending
            if any(abs(con.coefficient(v)) > 0.0 for con in kernel.constraints)
        ]
        if constrained:
            choice = sorted(constrained)[0]
        else:
            def pivot_ratio(v: str) -> float:
                k = kernel.index(v)
                row = np.abs(kernel.A[k]).max() if len(kernel.vars) else 0.0
                scale = max(row, abs(kernel.B[k]), _ABS_FLOOR)
                return abs(kernel.A[k, k]) / scale

            choice = max(sorted(pending), key=pivot_ratio)
        kernel = marginalize(kernel, choice, tol=tol, keep=keep)
        pending.discard(choice)
    return kernel


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
    union = list(k1.vars) + [v for v in k2.vars if v not in k1.vars]
    idx = {v: i for i, v in enumerate(union)}
    n = len(union)
    A = np.zeros((n, n))
    B = np.zeros(n)
    sel1 = [idx[v] for v in k1.vars]
    A[np.ix_(sel1, sel1)] += k1.A
    B[sel1] += k1.B
    sel2 = [idx[v] for v in k2.vars]
    A[np.ix_(sel2, sel2)] += k2.A
    B[sel2] += k2.B
    merged = OscKernel(
        vars=tuple(union),
        A=A,
        B=B,
        c=k1.c + k2.c,
        amp=k1.amp * k2.amp,
        pihbar_pow=k1.pihbar_pow + k2.pihbar_pow,
        vol_pow=k1.vol_pow + k2.vol_pow,
        constraints=k1.constraints + k2.constraints,
        hbar=k1.hbar,
    )
    keep = frozenset(union) - set(shared)
    return marginalize_all(merged, shared, tol=tol, keep=keep)


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
