"""Quantum lattice 2-form: surface actions, propagators, and local moves.

A surface is a set of oriented unit plaquettes in Z^3.  A plaquette based at
vertex v in the (i, j) plane contributes sign * L_ij(u, u_i, u_j) to the
action, with the three-point Lagrangian

    L_ij(u, u_i, u_j) = u (u_i - u_j) - s_ij (u_i - u_j)^2 / 2,

or a general quadratic coefficient table when supplied.  The surface
propagator integrates the interior field variables out of exp(i S / hbar);
pivots that vanish by the edge-coefficient identity produce symbolic volume
factors, and a delta constraint that would tie two boundary variables
together rejects the Lagrangian.

The deformation moves implemented here are the pop-up (one flat plaquette
replaced by the five exposed faces of a unit cube) and the three standalone
elementary reconfigurations a, b, c; for the closed-form coefficients every
move leaves the exponent of the propagator untouched, which is the surface
independence property, and the coefficient scan shows the property pins the
coefficients uniquely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateCoeffs, DeltaConstraintError, MissingVertex
from .oscgauss import KernelDiff, OscKernel, compare, marginalize_terms
from .params import edge_coefficient

Vertex = tuple[int, int, int]

_UNIT = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}


def shift(v: Vertex, direction: int) -> Vertex:
    e = _UNIT[direction]
    return (v[0] + e[0], v[1] + e[1], v[2] + e[2])


def vertex_label(v: Vertex) -> str:
    return f"u{v[0]}_{v[1]}_{v[2]}"


@dataclass(frozen=True)
class OrientedPlaquette:
    """Unit plaquette at `base` spanning directions plane = (i, j)."""

    base: Vertex
    plane: tuple[int, int]
    sign: int = 1

    def __post_init__(self):
        i, j = self.plane
        if i == j or i not in _UNIT or j not in _UNIT:
            raise ValueError(f"bad plane {self.plane!r}")
        if self.sign not in (-1, 1):
            raise ValueError(f"bad sign {self.sign!r}")
        base = tuple(self.base)
        if len(base) != 3:
            raise ValueError(f"base must be a 3-vector, got {base!r}")
        object.__setattr__(self, "base", base)

    def stencil(self) -> tuple[Vertex, Vertex, Vertex]:
        """The three vertices the Lagrangian reads: v, v_i, v_j."""
        i, j = self.plane
        return self.base, shift(self.base, i), shift(self.base, j)

    def corners(self) -> tuple[Vertex, ...]:
        i, j = self.plane
        return (self.base, shift(self.base, i), shift(self.base, j), shift(shift(self.base, i), j))

    def reversed(self) -> "OrientedPlaquette":
        return replace(self, sign=-self.sign)


@dataclass(frozen=True)
class LatticeLagrangianCoeffs:
    """Coefficient tables of a general 3-point quadratic plaquette Lagrangian.

    L_ij = a_ij u^2/2 + b_ij u_i^2/2 - b_ji u_j^2/2
           + c_ij u u_i - c_ji u u_j + d_ij u_i u_j,

    indexed by ordered direction pairs; a and d must be antisymmetric (the
    2-form structure).  The classical classifier reads this type too.  A
    per-direction gauge g (a_ij += g_i - g_j, b_ij += g_j) adds the discrete
    curl of F_i(u) = g_i u^2/2 to L_ij, so it changes surface actions only by
    boundary terms and leaves c, d and e unchanged.
    """

    a: dict[tuple[int, int], float]
    b: dict[tuple[int, int], float]
    c: dict[tuple[int, int], float]
    d: dict[tuple[int, int], float]

    def __post_init__(self):
        for name, table in (("a", self.a), ("d", self.d)):
            for (i, j), v in table.items():
                w = table.get((j, i))
                if w is None or abs(v + w) > 1e-12 * max(1.0, abs(v)):
                    raise DegenerateCoeffs(f"{name} must be antisymmetric at {(i, j)}")

    @property
    def e(self) -> dict[tuple[int, int], float]:
        """e_ij = -(a_ij + b_ij - b_ji)/2, gauge-invariant, antisymmetric like d."""
        return {(i, j): -0.5 * (self.a[(i, j)] + self.b[(i, j)] - self.b[(j, i)]) for i, j in self.b}

    def perturbed(self, table: str, pair: tuple[int, int], eps: float,
                  antisymmetric: bool | None = None) -> "LatticeLagrangianCoeffs":
        """One-coefficient perturbation; a and d keep their antisymmetry."""
        tables = {"a": dict(self.a), "b": dict(self.b), "c": dict(self.c), "d": dict(self.d)}
        tables[table][pair] = tables[table][pair] + eps
        if antisymmetric is None:
            antisymmetric = table in ("a", "d")
        if antisymmetric:
            i, j = pair
            tables[table][(j, i)] = -tables[table][pair]
        return LatticeLagrangianCoeffs(**tables)

    def monomials(self, plq: OrientedPlaquette) -> dict[tuple[str, str], float]:
        """Monomial coefficients this plaquette adds to the action exponent."""
        i, j = plq.plane
        u, ui, uj = (vertex_label(v) for v in plq.stencil())
        s = float(plq.sign)
        out: dict[tuple[str, str], float] = {}

        def add(key: tuple[str, str], val: float) -> None:
            key = key if key[0] <= key[1] else (key[1], key[0])
            out[key] = out.get(key, 0.0) + val

        add((u, u), 0.5 * s * self.a[(i, j)])
        add((ui, ui), 0.5 * s * self.b[(i, j)])
        add((uj, uj), -0.5 * s * self.b[(j, i)])
        add((u, ui), s * self.c[(i, j)])
        add((u, uj), -s * self.c[(j, i)])
        add((ui, uj), s * self.d[(i, j)])
        return out

    def lagrangian(self, u: float, ui: float, uj: float, i: int, j: int) -> float:
        return (
            0.5 * self.a[(i, j)] * u * u
            + 0.5 * self.b[(i, j)] * ui * ui
            - 0.5 * self.b[(j, i)] * uj * uj
            + self.c[(i, j)] * u * ui
            - self.c[(j, i)] * u * uj
            + self.d[(i, j)] * ui * uj
        )


def canonical_lattice_coeffs(
    p1: float, p2: float, p3: float, gauge: tuple[float, float, float] = (0.0, 0.0, 0.0)
) -> LatticeLagrangianCoeffs:
    """The closed-form coefficient point: c = 1, d_ij = s_ij and, in the
    per-direction gauge g, a_ij = g_i - g_j and b_ij = g_j - s_ij (at the
    default, a = 0 and b = -d)."""
    ps = {1: p1, 2: p2, 3: p3}
    g = dict(zip((1, 2, 3), gauge))
    a, b, c, d = {}, {}, {}, {}
    for i, j in itertools.permutations((1, 2, 3), 2):
        sij = edge_coefficient(ps[i], ps[j])
        a[(i, j)] = g[i] - g[j]
        b[(i, j)] = -(sij - g[j])  # at g_j = 0 exactly -s_ij, signed zero included
        c[(i, j)] = 1.0
        d[(i, j)] = sij
    return LatticeLagrangianCoeffs(a=a, b=b, c=c, d=d)


@dataclass(frozen=True)
class Surface:
    """Oriented plaquettes plus an explicit interior/boundary designation."""

    plaquettes: tuple[OrientedPlaquette, ...]
    interior: frozenset[Vertex]
    boundary: frozenset[Vertex]
    records: tuple = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "plaquettes", tuple(self.plaquettes))
        object.__setattr__(self, "interior", frozenset(self.interior))
        object.__setattr__(self, "boundary", frozenset(self.boundary))
        overlap = self.interior & self.boundary
        if overlap:
            raise MissingVertex(f"vertices listed as both interior and boundary: {sorted(overlap)}")
        missing = self.referenced() - self.interior - self.boundary
        if missing:
            raise MissingVertex(f"referenced vertices not designated: {sorted(missing)}")

    def referenced(self) -> frozenset[Vertex]:
        out: set[Vertex] = set()
        for plq in self.plaquettes:
            out.update(plq.stencil())
        return frozenset(out)

    def vertices(self) -> frozenset[Vertex]:
        return self.interior | self.boundary

    def reversed(self) -> "Surface":
        # pop records refer to the original orientations, so drop them
        return replace(
            self, plaquettes=tuple(p.reversed() for p in self.plaquettes), records=()
        )


def surface_to_dict(surface: Surface) -> dict:
    """JSON-ready description: plaquette list plus the two vertex sets."""
    return {
        "plaquettes": [
            {"base": list(p.base), "plane": list(p.plane), "sign": p.sign}
            for p in surface.plaquettes
        ],
        "interior": [list(v) for v in sorted(surface.interior)],
        "boundary": [list(v) for v in sorted(surface.boundary)],
    }


def surface_from_dict(data: dict) -> Surface:
    try:
        plaqs = tuple(
            OrientedPlaquette(
                base=tuple(int(x) for x in item["base"]),
                plane=(int(item["plane"][0]), int(item["plane"][1])),
                sign=int(item.get("sign", 1)),
            )
            for item in data["plaquettes"]
        )
        interior = frozenset(tuple(int(x) for x in v) for v in data.get("interior", []))
        boundary = frozenset(tuple(int(x) for x in v) for v in data.get("boundary", []))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise MissingVertex(f"malformed surface description: {exc}") from exc
    return Surface(plaquettes=plaqs, interior=interior, boundary=boundary)


def surface_action(
    surface: Surface,
    assignment: dict[Vertex, float],
    coeffs: LatticeLagrangianCoeffs,
) -> float:
    """Sum of oriented plaquette Lagrangians at a field assignment."""
    total = 0.0
    for plq in surface.plaquettes:
        sten = plq.stencil()
        for v in sten:
            if v not in assignment:
                raise MissingVertex(f"no field value for vertex {v}")
        i, j = plq.plane
        total += plq.sign * coeffs.lagrangian(
            assignment[sten[0]], assignment[sten[1]], assignment[sten[2]], i, j
        )
    return total


def surface_kernel(
    surface: Surface,
    coeffs: LatticeLagrangianCoeffs,
    hbar: float = 1.0,
) -> OscKernel:
    """Boundary kernel: interior vertices integrated out of exp(i S / hbar).

    Interior vertices no plaquette reads become symbolic volume factors.  A
    surviving delta constraint ties boundary variables together and raises
    DeltaConstraintError.
    """
    vertices = sorted(surface.vertices())
    labels = tuple(vertex_label(v) for v in vertices)
    quad: dict[tuple[str, str], float] = {}
    for plq in surface.plaquettes:
        for key, val in coeffs.monomials(plq).items():
            quad[key] = quad.get(key, 0.0) + val
    interior_labels = [vertex_label(v) for v in sorted(surface.interior)]
    boundary_labels = {vertex_label(v) for v in surface.boundary}
    kernel = marginalize_terms(labels, quad, interior_labels, keep=boundary_labels, hbar=hbar)
    if kernel.constraints:
        raise DeltaConstraintError(
            f"delta constraint ties boundary variables: {kernel.constraints[0].variables()}"
        )
    return kernel


# -- Construction and deformation ------------------------------------------------

def flat_patch(nx: int, ny: int, plane: tuple[int, int] = (1, 2), base: Vertex = (0, 0, 0)) -> Surface:
    """nx-by-ny flat patch of positively oriented plaquettes; everything is
    boundary data until a deformation creates interior vertices."""
    i, j = plane
    plaqs = []
    verts: set[Vertex] = set()
    for a in range(nx):
        for b in range(ny):
            v = base
            for _ in range(a):
                v = shift(v, i)
            for _ in range(b):
                v = shift(v, j)
            plq = OrientedPlaquette(base=v, plane=plane, sign=1)
            plaqs.append(plq)
            verts.update(plq.corners())
    return Surface(plaquettes=tuple(plaqs), interior=frozenset(), boundary=frozenset(verts))


@dataclass(frozen=True)
class PopRecord:
    """Bookkeeping for one applied pop-up, enough to undo it."""

    removed: OrientedPlaquette
    added: tuple[OrientedPlaquette, ...]
    new_interior: tuple[Vertex, ...]


def _pop_pieces(plq: OrientedPlaquette) -> tuple[tuple[OrientedPlaquette, ...], tuple[Vertex, ...]]:
    i, j = plq.plane
    (k,) = {1, 2, 3} - {i, j}
    s = plq.sign
    v = plq.base
    added = (
        OrientedPlaquette(base=shift(v, i), plane=(j, k), sign=s),
        OrientedPlaquette(base=shift(v, j), plane=(k, i), sign=s),
        OrientedPlaquette(base=shift(v, k), plane=(i, j), sign=s),
        OrientedPlaquette(base=v, plane=(j, k), sign=-s),
        OrientedPlaquette(base=v, plane=(k, i), sign=-s),
    )
    top = shift(v, k)
    new_interior = (top, shift(top, i), shift(top, j), shift(shift(top, i), j))
    return added, new_interior


def pop_up_sites(surface: Surface) -> list[int]:
    """Indices of plaquettes whose popped cell is fresh space."""
    occupied = surface.vertices()
    out = []
    for idx, plq in enumerate(surface.plaquettes):
        _, new_interior = _pop_pieces(plq)
        if not (set(new_interior) & occupied):
            out.append(idx)
    return out


def pop_up(surface: Surface, index: int) -> Surface:
    """Replace one plaquette by the five exposed faces of a unit cube.

    The four vertices of the new top square become interior; the popped cell
    must be fresh space.
    """
    plq = surface.plaquettes[index]
    added, new_interior = _pop_pieces(plq)
    if set(new_interior) & surface.vertices():
        raise MissingVertex(f"pop target of plaquette {index} is occupied")
    plaqs = surface.plaquettes[:index] + surface.plaquettes[index + 1 :] + added
    rec = PopRecord(removed=plq, added=added, new_interior=new_interior)
    return Surface(
        plaquettes=plaqs,
        interior=surface.interior | set(new_interior),
        boundary=surface.boundary,
        records=surface.records + (rec,),
    )


def unpop(surface: Surface) -> Surface:
    """Undo the most recent pop-up."""
    if not surface.records:
        raise MissingVertex("no pop-up to undo")
    rec = surface.records[-1]
    plaqs = [p for p in surface.plaquettes if p not in rec.added]
    plaqs.append(rec.removed)
    return Surface(
        plaquettes=tuple(plaqs),
        interior=surface.interior - set(rec.new_interior),
        boundary=surface.boundary,
        records=surface.records[:-1],
    )


def random_deformation(surface: Surface, rng: np.random.Generator, n_ops: int) -> Surface:
    """Apply a random sequence of pop-ups and undos at applicable sites."""
    for _ in range(n_ops):
        do_pop = not surface.records or rng.random() < 0.7
        if do_pop:
            sites = pop_up_sites(surface)
            if not sites:
                surface = unpop(surface)
                continue
            surface = pop_up(surface, int(sites[rng.integers(0, len(sites))]))
        else:
            surface = unpop(surface)
    return surface


# -- Elementary moves -------------------------------------------------------------

_E1, _E2, _E3 = _UNIT[1], _UNIT[2], _UNIT[3]
_O: Vertex = (0, 0, 0)


def _corner_fan(i: int, j: int, k: int) -> Surface:
    plaqs = (
        OrientedPlaquette(base=_O, plane=(i, j), sign=1),
        OrientedPlaquette(base=_O, plane=(j, k), sign=1),
        OrientedPlaquette(base=_O, plane=(k, i), sign=1),
    )
    boundary = {shift(_O, i), shift(_O, j), shift(_O, k)}
    return Surface(plaquettes=plaqs, interior=frozenset({_O}), boundary=frozenset(boundary))


def _corner_cap(i: int, j: int, k: int) -> Surface:
    ei, ej, ek = shift(_O, i), shift(_O, j), shift(_O, k)
    plaqs = (
        OrientedPlaquette(base=ek, plane=(i, j), sign=1),
        OrientedPlaquette(base=ei, plane=(j, k), sign=1),
        OrientedPlaquette(base=ej, plane=(k, i), sign=1),
    )
    interior = {shift(ei, j), shift(ej, k), shift(ek, i), shift(shift(ei, j), k)}
    return Surface(plaquettes=plaqs, interior=frozenset(interior), boundary=frozenset({ei, ej, ek}))


def elementary_move_surfaces(move: str, i: int = 1, j: int = 2, k: int = 3) -> tuple[Surface, Surface]:
    """The two standalone configurations of elementary move a, b or c."""
    ei, ej, ek = shift(_O, i), shift(_O, j), shift(_O, k)
    eij, eik, ejk = shift(ei, j), shift(ei, k), shift(ej, k)
    if move == "a":
        return _corner_fan(i, j, k), _corner_cap(i, j, k)
    if move == "b":
        one = Surface(
            plaquettes=(
                OrientedPlaquette(base=_O, plane=(i, j), sign=1),
                OrientedPlaquette(base=_O, plane=(k, i), sign=1),
                OrientedPlaquette(base=ei, plane=(j, k), sign=-1),
            ),
            interior=frozenset({ei}),
            boundary=frozenset({_O, ej, ek, eij, eik}),
        )
        two = Surface(
            plaquettes=(
                OrientedPlaquette(base=ek, plane=(i, j), sign=1),
                OrientedPlaquette(base=ej, plane=(k, i), sign=1),
                OrientedPlaquette(base=_O, plane=(j, k), sign=-1),
            ),
            interior=frozenset({ejk}),
            boundary=frozenset({_O, ej, ek, eij, eik}),
        )
        return one, two
    if move == "c":
        one = Surface(
            plaquettes=(
                OrientedPlaquette(base=ek, plane=(i, j), sign=1),
                OrientedPlaquette(base=ej, plane=(k, i), sign=1),
            ),
            interior=frozenset({ejk, shift(ejk, i)}),
            boundary=frozenset({ej, ek, eij, eik}),
        )
        two = Surface(
            plaquettes=(
                OrientedPlaquette(base=_O, plane=(i, j), sign=1),
                OrientedPlaquette(base=_O, plane=(j, k), sign=1),
                OrientedPlaquette(base=_O, plane=(k, i), sign=1),
                OrientedPlaquette(base=ei, plane=(j, k), sign=-1),
            ),
            interior=frozenset({_O, ei}),
            boundary=frozenset({ej, ek, eij, eik}),
        )
        return one, two
    raise ValueError(f"unknown move {move!r}")


def elementary_move_check(
    move: str,
    coeffs: LatticeLagrangianCoeffs,
    hbar: float = 1.0,
) -> KernelDiff:
    """Compare the boundary kernels of the two configurations of one move."""
    one, two = elementary_move_surfaces(move)
    k1 = surface_kernel(one, coeffs, hbar=hbar)
    k2 = surface_kernel(two, coeffs, hbar=hbar)
    return compare(k1, k2)


# -- Uniqueness of the surface-independent coefficients ---------------------------

def cyclic_a(coeffs: LatticeLagrangianCoeffs, i: int = 1, j: int = 2, k: int = 3) -> float:
    return coeffs.a[(i, j)] + coeffs.a[(j, k)] + coeffs.a[(k, i)]


def move_a_matrix(coeffs: LatticeLagrangianCoeffs, i: int = 1, j: int = 2, k: int = 3) -> np.ndarray:
    """Quadratic form of the three cap integrations (order u_ij, u_jk, u_ki)."""
    b, d = coeffs.b, coeffs.d
    return np.array(
        [
            [b[(j, k)] - b[(i, k)], d[(k, i)], d[(j, k)]],
            [d[(k, i)], b[(k, i)] - b[(j, i)], d[(i, j)]],
            [d[(j, k)], d[(i, j)], b[(i, j)] - b[(k, j)]],
        ]
    )


def e_minus_d(coeffs: LatticeLagrangianCoeffs) -> float:
    """max |e_ij - d_ij| over the ordered pairs (gauge-invariant); NaN if any entry is."""
    e = coeffs.e
    return float(np.max([abs(e[pair] - coeffs.d[pair]) for pair in e]))


def lambda_of(coeffs: LatticeLagrangianCoeffs, i: int = 1, j: int = 2, k: int = 3) -> float:
    d = coeffs.d
    return d[(i, j)] * d[(j, k)] + d[(j, k)] * d[(k, i)] + d[(k, i)] * d[(i, j)] + 1.0


def gaussian_branch_residuals(
    coeffs: LatticeLagrangianCoeffs, i: int = 1, j: int = 2, k: int = 3
) -> tuple[float, float]:
    """Residuals of the two functional equations matching the Gaussian-branch
    exponents of the two move-a configurations (coefficients of u_i^2 and
    u_i u_j).  Nothing guarantees a root exists; these are evaluated, never
    solved."""
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d
    ca = cyclic_a(coeffs, i, j, k)
    A = move_a_matrix(coeffs, i, j, k)
    det = float(np.linalg.det(A))
    if abs(ca) < 1e-12 or abs(det) < 1e-12:
        raise DegenerateCoeffs("Gaussian-branch residuals need nonzero pivots")
    lhs1 = b[(i, j)] - b[(i, k)] - (c[(i, j)] - c[(i, k)]) ** 2 / ca
    rhs1 = a[(j, k)] + (
        (d[(i, j)] ** 2 - (b[(k, i)] - b[(j, i)]) * (b[(i, j)] - b[(k, j)])) * c[(j, k)] ** 2
        + (d[(k, i)] ** 2 - (b[(j, k)] - b[(i, k)]) * (b[(k, i)] - b[(j, i)])) * c[(k, j)] ** 2
        + 2.0 * (d[(i, j)] * d[(k, i)] - d[(j, k)] * (b[(k, i)] - b[(j, i)])) * c[(j, k)] * c[(k, j)]
    ) / det
    lhs2 = d[(i, j)] - (c[(i, j)] - c[(i, k)]) * (c[(j, k)] - c[(j, i)]) / ca
    rhs2 = (
        ((b[(k, i)] - b[(j, i)]) * (b[(i, j)] - b[(k, j)]) - d[(i, j)] ** 2) * c[(j, k)] * c[(i, k)]
        - (d[(i, j)] * d[(j, k)] - d[(k, i)] * (b[(i, j)] - b[(k, j)])) * c[(j, k)] * c[(k, i)]
        + (d[(j, k)] * d[(k, i)] - d[(i, j)] * (b[(j, k)] - b[(i, k)])) * c[(k, i)] * c[(k, j)]
        - (d[(i, j)] * d[(k, i)] - d[(j, k)] * (b[(k, i)] - b[(j, i)])) * c[(i, k)] * c[(k, j)]
    ) / det
    return abs(lhs1 - rhs1), abs(lhs2 - rhs2)


def uniqueness_scan_2form(
    coeffs: LatticeLagrangianCoeffs,
    tol: float = 1e-9,
    hbar: float = 1.0,
) -> dict:
    """Classify a coefficient point for surface independence under move a.

    Returns the branch data (cyclic a-sum and cap determinant), the critical
    point conditions, and the comparison of the two move-a kernels; a delta
    constraint in either configuration is reported as a rejection.  The
    conditions are gauge-invariant: e = d and a b_ij + d_ij that depends on j
    alone hold exactly when some gauge takes the table to a = 0, b = -d.
    A table with a non-finite entry is not critical: it builds no kernel and
    takes no determinant, and its det_cap and exponent_diff are NaN.
    """
    finite = all(np.isfinite(v) for table in (coeffs.a, coeffs.b, coeffs.c, coeffs.d) for v in table.values())
    ca = cyclic_a(coeffs)
    det = float(np.linalg.det(move_a_matrix(coeffs))) if finite else float("nan")
    c12 = coeffs.c[(1, 2)]
    conditions = {
        "cyclic_a": abs(ca),
        "det_cap": abs(det),
        "e_minus_d": e_minus_d(coeffs),
        "b_plus_d_spread": float(np.max([
            np.ptp([coeffs.b[(i, j)] + coeffs.d[(i, j)] for i in (1, 2, 3) if i != j]) for j in (1, 2, 3)
        ])),
        "c_symmetric": max(abs(coeffs.c[(i, j)] - coeffs.c[(j, i)]) for (i, j) in coeffs.c),
        "c_constant": max(abs(v - c12) for v in coeffs.c.values()),
        "lambda_vs_c": abs(lambda_of(coeffs) - (1.0 - c12 * c12)),
    }
    scale = max(1.0, max(abs(v) for t in (coeffs.b, coeffs.c, coeffs.d) for v in t.values()))
    on_critical_branch = conditions["cyclic_a"] <= tol * scale and conditions["det_cap"] <= tol * scale**3

    delta_rejected = False
    exponent_diff = float("nan")
    amp_ratio = None
    if finite:
        try:
            diff = elementary_move_check("a", coeffs, hbar)
            exponent_diff = diff.exponent_diff
            amp_ratio = diff.amp_ratio
        except DeltaConstraintError:
            delta_rejected = True
            exponent_diff = float("inf")

    gaussian_residuals = None
    if finite and not on_critical_branch and not delta_rejected:
        try:
            gaussian_residuals = gaussian_branch_residuals(coeffs)
        except DegenerateCoeffs:
            gaussian_residuals = None

    critical = (
        on_critical_branch
        and not delta_rejected
        and exponent_diff <= tol * scale
        and all(
            conditions[name] <= tol * scale
            for name in ("e_minus_d", "b_plus_d_spread", "c_symmetric", "c_constant", "lambda_vs_c")
        )
    )
    return {
        "critical": critical,
        "on_critical_branch": on_critical_branch,
        "delta_rejected": delta_rejected,
        "exponent_diff": exponent_diff,
        "amp_ratio": amp_ratio,
        "conditions": conditions,
        "gaussian_residuals": gaussian_residuals,
    }
