"""Canonical kernel JSON: pinned bytes, the canonical form, and the builders' direct feed."""

import hashlib
import itertools
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdclab import oscgauss, qprop1d, qsurface
from mdclab.params import LatticeParams, derive

#: Two elliptic points: the worked example and a generic one.
POINTS = {"p321": (3.0, 2.0, 1.0), "pgen": (2.7, 1.35, 0.55)}
SURFACE_SIZES = range(4, 13)
PATH_LENGTHS = (60, 120, 180, 240, 300)
STEP_COUNTS = (1, 5, 20)


def deformed_patch(k: int) -> qsurface.Surface:
    """flat_patch(k, k) after 2k pop-ups at sites picked by a fixed stride."""
    surface = qsurface.flat_patch(k, k)
    for n in range(2 * k):
        sites = qsurface.pop_up_sites(surface)
        surface = qsurface.pop_up(surface, sites[(7 * n + k) % len(sites)])
    return surface


def long_path(length: int) -> qprop1d.TimePath:
    """A walk of `length` steps with a unit loop per 60 steps and a backward pair per 12."""
    loops, pairs = length // 60, length // 12
    forward = length - 4 * loops - 2 * pairs
    n = forward // 2 + length // 60
    steps = list(qprop1d.TimePath.monotone(n, forward - n).steps)
    for p in range(pairs):
        d = ("hat", "bar")[p % 2]
        at = (37 * p + 5) % (len(steps) + 1)
        steps[at:at] = ["-" + d, "+" + d] if p % 3 == 0 else ["+" + d, "-" + d]
    path = qprop1d.TimePath(tuple(steps))
    for p in range(loops):
        path = path.with_loop((53 * p + 11) % (len(path.steps) + 1))
    return path


def golden_kernels():
    """Name and kernel of every pinned case."""
    for tag, point in POINTS.items():
        coeffs = qsurface.canonical_lattice_coeffs(*point)
        derived = derive(LatticeParams(*point))
        for k in SURFACE_SIZES:
            yield f"{tag}-flat-{k}", qsurface.surface_kernel(qsurface.flat_patch(k, k), coeffs)
            yield f"{tag}-deformed-{k}", qsurface.surface_kernel(deformed_patch(k), coeffs)
        for length in PATH_LENGTHS:
            yield f"{tag}-path-{length}", qprop1d.path_kernel(long_path(length), derived)
        for n in STEP_COUNTS:
            yield f"{tag}-nstep-{n}", qprop1d.n_step_kernel(n, derived)


def digest(kernel: oscgauss.OscKernel) -> str:
    return hashlib.sha256(kernel.to_json().encode("utf-8")).hexdigest()


#: sha256 of to_json() for each golden_kernels() case.
GOLDEN_KERNELS = {
    "p321-flat-4": "6bf023cb45344f5a264bc0d0bc47e0df4c9954aa4c1af8c69007f20c803dfef0",
    "p321-deformed-4": "a8b19d2bc8797c584cc37503cda25becb9080215bbeea6dacfca5663f2f35142",
    "p321-flat-5": "9c1ea918b81a7cf92f80daf88677611eea264f394405e019070df35513ac100c",
    "p321-deformed-5": "e66c15a10e19d7e332f2c516eaff0f92f799ea1798e94979e87859d1d3ada138",
    "p321-flat-6": "60095f6525f068da271bfa60aae25e70040b1c870c8790c5377d3253c88dda85",
    "p321-deformed-6": "4fed1f7340e9293a602ed945c66ae57d7ef480522ed90d891996499ec9232d30",
    "p321-flat-7": "fc197b770594e78328b97b0e8a610f3228b3773e069de886bf1edee09c56242f",
    "p321-deformed-7": "41ff4513a99bb76a43c4a7a84529278ae8f47307788b7c36e043baaf29035994",
    "p321-flat-8": "bda21034a97ddad1877b08f8e2458120244a3151abcc3321b47ff4cbdf345340",
    "p321-deformed-8": "ee6e341a0eee76cab54b91ea50a329e58405e9a7acda44d0abf6033e98074410",
    "p321-flat-9": "599509e1e795e36f97f7aa2ce14d45e660fefb37d86b6d0f1dad73d50e1c4662",
    "p321-deformed-9": "dd734bf7d0951695c92852e126ac28c10fae7b25e6bde3e2ab7b5b0dc1e83c2b",
    "p321-flat-10": "e3fc02208214f2bc4a1d3617836417544fd45da84de7dc2c4b246f918f154fc2",
    "p321-deformed-10": "39a38a5136fb9c6f76bacfc4c71fc27180d80a628614b5eb91443bc1a728405d",
    "p321-flat-11": "f1baffff3c8edba906c850a45584bfd2cc8c32fa7301bfbb61d6a1ef48e5a57f",
    "p321-deformed-11": "7ad6706b9e6b321beff5f7e93c1e20fb572418008a9c1537886152d1a9fe513f",
    "p321-flat-12": "7ecc347276f32800077494ae406019608bd59ed9b7c6e0851d78c6bbb555e77d",
    "p321-deformed-12": "c2f47e61509d16348dc6df92e1827e79c90a925e0fc4e889381dda67cd478b2a",
    "p321-path-60": "1fad0854a8446fc09e0835f3c667efe52dc4d209543c0ae42a3aaa3de46e94e3",
    "p321-path-120": "88f54f0093c8c5616ca7d34878b4fe0ef5a4c39a72bac7bd8d492cfd1a90a46d",
    "p321-path-180": "07b5ad74c296798070cbda3820a568fa6d4a11e470d81993e7722f37e6287dec",
    "p321-path-240": "58699d1a90ced722c7dd90f11503aa6068599f5717cb441b3f5918e1bedbf20a",
    "p321-path-300": "5f63e1eb05918f7f1eab20c22ee62cde8159f7871a9c44565674eed453dbd862",
    "p321-nstep-1": "a32be2a7a357eda0a9fa04658c8bc15e0e86061764240cc810277a9bbf21c33e",
    "p321-nstep-5": "db1603c076dfc0293734b7a4b77bc6af753faa342911ceff3f329725004fe20a",
    "p321-nstep-20": "d6475e4dea20de076390a498a5d9e53844179768615f393f6ef1ae7d2a084c1d",
    "pgen-flat-4": "d118bd33e93459cbf9af914a354f756b7273ace958630952cc6cfec2384702ce",
    "pgen-deformed-4": "38a47233cfaa739a5b909136642e0fc26e1034f1ae3b56b215c725df49e2ebea",
    "pgen-flat-5": "a1243222ff72e81d957ae17cfce3c422d790ab65e33b768f5db354c767b4501d",
    "pgen-deformed-5": "012b25008c188e1f2d433a9699b7fd239a5a5f6ad7f283da49cfb305ddb4c64f",
    "pgen-flat-6": "c3df78293d242316d43b10d0057bf649150da4f781ecdf24591f8d5333ad3b64",
    "pgen-deformed-6": "e2dd3fe9d9d30bf66ecc486f8f1f70c729be6bd2f76e944eab7af927cf1e6435",
    "pgen-flat-7": "3b16df7154615569386df2dad2fd42711677a9bc809f84d98d60375827c0174c",
    "pgen-deformed-7": "1fddf415759dc647426bbdd90434471f7927e58836720130563e4ea26904079f",
    "pgen-flat-8": "3e041730a2f9dc1f3d341476ca64945d2428a55a24f6b8cb4abead91117af911",
    "pgen-deformed-8": "b019f228dbc1efe21d3b4c08d0087bae2c67cfaf951da9e87c04cdbf3a74b1e4",
    "pgen-flat-9": "9c5e36265d935009c98d4a854e6e75848b7cac7491f4c1adabe0c84e309ae7bd",
    "pgen-deformed-9": "4b87a6423dd6472cc4236faedbe1dcbc27c99bdc87ff7cbf072d09f54c54bc9e",
    "pgen-flat-10": "35a2ae3c4334a89a6e48192b5157e03c78e2305387c0ba8059e50eff829fb605",
    "pgen-deformed-10": "5649fe3b52b084af7633bb6ab07a3602a2fbf8cff8da2037e0deb64093f46fe5",
    "pgen-flat-11": "5a491ac327ef620afcf8eb8b3b8c0b1dc5a7d8bbb8c2fd207508c194c440f419",
    "pgen-deformed-11": "22811b629621ba7dfef80f9ee0996862bf149f337bb6dd1a993b880a492f0abe",
    "pgen-flat-12": "18cb59e7e0ba4122d6ab53f4b0ce53fb89e01e21363d32e6952ce8bb503ba3ea",
    "pgen-deformed-12": "b85b60014fd53d03f9029923f1eb153e58fdba43b93f02eb3e0007dc97665713",
    "pgen-path-60": "8a9b5769c3f1f7689266112ced720d7c26fdbf73b61693273989610bb73a0e69",
    "pgen-path-120": "84a827ab797c56bc9eaaccdc9e503bc3fbb7b3ff0ae74476c21bad79073614f3",
    "pgen-path-180": "70a6d16e02c634d9fe3b1b2f35b0310a5f9f263249f6eb66e8dfe140362cd667",
    "pgen-path-240": "c1bd4e03c0c6a0831584997e4f1479a140226c219354f717a05f8011fd8f7d43",
    "pgen-path-300": "344249e41345d72193b56d42cba802fef852562a737e80559d42d73beabae63b",
    "pgen-nstep-1": "0d28901db07ed61b643fd8cfcff70036399e6cdbb35883f75462787291669653",
    "pgen-nstep-5": "346bfe9e060dab9a15d2eacb08d717e684975ed70486ea43d1a75a68ccbb2d52",
    "pgen-nstep-20": "add98f3c7c7469cc74528918e05666316f02541420c42248f5ac4f05468c453b",
}


def test_kernel_json_is_byte_identical_to_golden():
    digests = {name: digest(kernel) for name, kernel in golden_kernels()}
    assert digests == GOLDEN_KERNELS


# -- the canonical form ------------------------------------------------------------

def reference_canonical(kernel: oscgauss.OscKernel) -> dict:
    """canonical_dict with every entry of A and B passed through round(float(x), 15)."""
    order = np.argsort(np.array(kernel.vars))
    A = kernel.A[np.ix_(order, order)]
    return {
        **kernel.canonical_dict(),
        "A": [round(float(x), 15) for x in A.reshape(-1)],
        "B": [round(float(x), 15) for x in kernel.B[order]],
    }


awkward_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, 1.0000000000000004]),
    st.floats(min_value=-1e-305, max_value=1e-305),  # subnormals and tiny normals
    st.integers(-10**17, 10**17).map(lambda m: m / 1e16),  # rounds at the 15th digit
    st.floats(min_value=1e299, max_value=1e301).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(min_value=-1e3, max_value=1e3),
)


@st.composite
def symmetric_kernels(draw, values=awkward_floats):
    n = draw(st.integers(1, 6))
    names = draw(st.permutations([f"v{k}" for k in range(n)]))
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            A[i, j] = A[j, i] = draw(values)
    B = np.array([draw(values) for _ in range(n)])
    return oscgauss.OscKernel(vars=tuple(names), A=A, B=B, c=draw(values))


@settings(max_examples=150, deadline=None)
@given(symmetric_kernels())
def test_canonical_dict_rounds_like_the_per_entry_reference(kernel):
    got, want = kernel.canonical_dict(), reference_canonical(kernel)
    # repr tells -0.0 from 0.0, which == does not
    assert repr(got["A"]) == repr(want["A"]) and repr(got["B"]) == repr(want["B"])
    assert all(type(x) is float for x in got["A"] + got["B"])
    assert kernel.to_json() == json.dumps(want, sort_keys=True, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(symmetric_kernels(), st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans(), st.data())
def test_to_json_refuses_a_non_finite_entry(kernel, bad, in_b, data):
    n = len(kernel.vars)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    A, B = kernel.A.copy(), kernel.B.copy()
    if in_b:
        B[i] = bad
    else:
        A[i, j] = A[j, i] = bad
    with np.errstate(invalid="ignore"):  # the symmetry check meets inf - inf
        bad_kernel = oscgauss.OscKernel(vars=kernel.vars, A=A, B=B, c=kernel.c)
    with pytest.raises(ValueError):
        bad_kernel.to_json()


def test_canonical_form_keeps_the_sign_of_a_zero():
    A, B = np.array([[-0.0, 1.0], [1.0, 0.0]]), np.array([-0.0, 0.0])
    kernel = oscgauss.OscKernel(vars=("b", "a"), A=A, B=B, c=0.0)
    data = json.loads(kernel.to_json())
    assert data["A"] == [0.0, 1.0, 1.0, -0.0] and math.copysign(1.0, data["A"][3]) == -1.0
    assert math.copysign(1.0, data["B"][1]) == -1.0 and math.copysign(1.0, data["B"][0]) == 1.0


# -- the builders' direct feed -----------------------------------------------------

def dense_feed(vars, quadratic, variables, keep=None, **terms):
    """What marginalize_terms replaces: a dense from_terms kernel, then marginalize_all."""
    return oscgauss.marginalize_all(oscgauss.from_terms(vars, quadratic, **terms), variables, keep=keep)


def outcome(build):
    """Every part of the built kernel, bytes for the arrays and repr for the
    scalars and constraints, or the type and message of the raised error."""
    try:
        k = build()
    except Exception as exc:  # both feeds must raise the same error
        return type(exc), str(exc)
    return (k.vars, k.A.tobytes(), k.B.tobytes(), repr(k.c), repr(k.amp), k.pihbar_pow, k.vol_pow,
            repr(k.constraints), k.hbar)


def assert_feeds_agree(build):
    direct = outcome(build)
    with mock.patch.object(qprop1d, "marginalize_terms", dense_feed), \
            mock.patch.object(qsurface, "marginalize_terms", dense_feed):
        dense = outcome(build)
    assert direct == dense


surface_points = st.sampled_from([(3.0, 2.0, 1.0), (2.7, 1.35, 0.55), (1.9, 0.8, 2.6)])
#: (2, 2, 1) puts mu at 2 pi / 3, so paths there cross exact caustics.
path_points = st.one_of(surface_points, st.just((2.0, 2.0, 1.0)))


@settings(max_examples=100, deadline=None)
# a forward-backward pair and a zeroed corner pivot are delta steps; at (2, 2, 1) three hat steps are a caustic
@example((3.0, 2.0, 1.0), ["+hat", "-hat"], [], "closed")
@example((3.0, 2.0, 1.0), ["+hat", "+bar", "+hat", "+bar"], [], "corner-delta")
@example((2.0, 2.0, 1.0), ["+hat"] * 3, [], "closed")
@given(path_points, st.lists(st.sampled_from(qprop1d.STEPS), min_size=1, max_size=40),
       st.lists(st.integers(0, 10**6), max_size=2), st.sampled_from(["closed", "path-independent", "corner-delta"]))
def test_path_kernel_direct_feed_is_bit_equal_to_the_dense_kernel(point, steps, loops, coeffs):
    derived = derive(LatticeParams(*point))
    path = qprop1d.TimePath(tuple(steps))
    for at in loops:
        path = path.with_loop(at % (len(path.steps) + 1))
    cf = None
    if coeffs != "closed":
        cf = qprop1d.path_independent_coeffs(derived.a, derived.b)
        if coeffs == "corner-delta":
            # zeroes the middle pivot of a hat-then-bar corner exactly
            cf = replace(cf, b0=-cf.alpha * (cf.a - cf.a0) / cf.beta)
    assert_feeds_agree(lambda: qprop1d.path_kernel(path, derived, cf))


@settings(max_examples=60, deadline=None)
# Gaussian, volume and delta steps and a substitution
@example(2, 6, 0, (3.0, 2.0, 1.0), ("c", (2, 1), 1e-2, True))
@given(st.integers(1, 6), st.integers(0, 16), st.integers(0, 2**32 - 1), surface_points,
       st.none() | st.tuples(st.sampled_from("abcd"), st.sampled_from(list(itertools.permutations((1, 2, 3), 2))),
                             st.sampled_from([1e-2, -1e-2, 0.5]), st.booleans()))
def test_surface_kernel_direct_feed_is_bit_equal_to_the_dense_kernel(k, ops, seed, point, bump):
    coeffs = qsurface.canonical_lattice_coeffs(*point)
    if bump is not None:
        # a and d stay antisymmetric; a one-sided bump of b or c breaks the
        # pair symmetry and brings delta steps
        table, pair, eps, one_sided = bump
        coeffs = coeffs.perturbed(table, pair, eps, antisymmetric=False if one_sided and table in "bc" else None)
    surface = qsurface.random_deformation(qsurface.flat_patch(k, k), np.random.default_rng(seed), ops)
    assert_feeds_agree(lambda: qsurface.surface_kernel(surface, coeffs))
    assert_feeds_agree(lambda: qsurface.surface_kernel(surface.reversed(), coeffs))


@pytest.mark.parametrize("move", ["a", "b", "c"])
@pytest.mark.parametrize("bump", [None, ("c", (1, 2), 1e-2), ("c", (3, 1), 1e-2), ("b", (1, 2), 1e-2)])
def test_elementary_moves_direct_feed_is_bit_equal_to_the_dense_kernel(move, bump):
    coeffs = qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0)
    if bump is not None:
        coeffs = coeffs.perturbed(*bump, antisymmetric=False)
    for surface in qsurface.elementary_move_surfaces(move):
        assert_feeds_agree(lambda: qsurface.surface_kernel(surface, coeffs))


@pytest.mark.parametrize("direction", ["hat", "bar"])
@pytest.mark.parametrize("zero_potential", [False, True])
def test_momentum_kernel_direct_feed_is_bit_equal_to_the_dense_kernel(d321, direction, zero_potential):
    assert_feeds_agree(lambda: qprop1d.momentum_factorized_kernel(d321, direction, zero_potential=zero_potential))


def test_direct_feed_keeps_an_entry_that_symmetrising_would_overflow():
    # the one known difference: 0.5 (A + A^T) turns an entry above half the
    # largest double into inf, so the dense kernel sees an infinite row where
    # the direct feed sees the coupling itself and records its delta
    quad = {("x", "y"): 1.5e308}
    direct = oscgauss.marginalize_terms(("x", "y"), quad, ["y"])
    assert direct.constraints == (oscgauss.AffineConstraint((("x", 1.5e308),), 0.0),)
    with np.errstate(over="ignore", invalid="ignore"):
        dense = dense_feed(("x", "y"), quad, ["y"])
    assert dense.constraints == () and dense.vol_pow == 1


def test_builders_integrate_through_marginalize_all(d321):
    # the builders' eliminations pass the public engine entry point, where a
    # profiler or tracer that wraps marginalize_all sees them
    coeffs = qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0)
    with mock.patch.object(oscgauss, "marginalize_all", wraps=oscgauss.marginalize_all) as engine:
        qprop1d.path_kernel(long_path(60), d321)
        qsurface.surface_kernel(deformed_patch(4), coeffs)
    assert engine.call_count == 2
    assert all(isinstance(call.args[0], oscgauss._Terms) for call in engine.call_args_list)
