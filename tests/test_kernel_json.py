"""Canonical kernel JSON: pinned bytes, the canonical form, and the builders' direct feed."""

import hashlib
import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdclab import oscgauss, qprop1d, qsurface
from mdclab.errors import NearCaustic
from mdclab.params import LatticeParams, derive

from conftest import reversed_surface

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


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: sha256 of the dense canonical JSON (kernel_format 1, rendered by
#: reference_canonical) of each golden_kernels() case: what to_json wrote
#: before the sparse form, so these pin the builders bit for bit.
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


#: sha256 of to_json() (the sparse kernel_format 2) for each golden_kernels() case.
GOLDEN_SPARSE_KERNELS = {
    "p321-flat-4": "d21928061b354355e4aa19e2b8ea2007bf4fbf968bda6ac10eefe3ca9ce49144",
    "p321-deformed-4": "1ff120b428d4e3aea14008ef6c76fc7f333c180653bbee94b99cd3dad870378c",
    "p321-flat-5": "aa196b1907518ffc2ae7d702f9e66615f767150f42318e75a013131e1b8f2d8d",
    "p321-deformed-5": "e084ce840f202f4d97a21b41d87823f8db02e981964dd4f70031efdd6326babe",
    "p321-flat-6": "67d1a7615a311ffe1bac4a2effa58f9a9ed1baebfba406cc7e8188a799895506",
    "p321-deformed-6": "1ca50f95b9715812a180daf4841630a1f908f71aefeb194a3c0f2c0c4c19871c",
    "p321-flat-7": "cf0c61485a037a41020e4f30119dbbfc4a63570c680985598b59e50ce9dd4504",
    "p321-deformed-7": "290988dba262d7f92478b3f16cba519a2d6b3bfe439c9e3a05001c0ef97ae48e",
    "p321-flat-8": "0f41983deea6b6bfd354409b750e38f2127f0b8e81cbf9e7d28e1fbb06a2dca6",
    "p321-deformed-8": "dca98c598cdf5d280f7f8a92c33ffb4ab04a53d10c94e2c726060addeaa95667",
    "p321-flat-9": "97afbced05af5a236a07317892f6a49687f4afec6a2fce4ea18a92ce2c9cec36",
    "p321-deformed-9": "9b5ef07a2f8bcd79c2d5c88995adcaa851b184f669d3f7a340e02b86a0a742fc",
    "p321-flat-10": "50a84fcb5abef18c1f793ddb9210fe5b65ac3f290065cd5880e353718ac3211b",
    "p321-deformed-10": "77233827c86d688ac8e64615741d9c0f1c84c131cf95084820220a86d238f9a7",
    "p321-flat-11": "47fad3fb2f48b5527219b0dc1c2604a0f074413439ed86f04c0c6b7fbc9cf95c",
    "p321-deformed-11": "6d6210d402900d5d180eb30d61bbef49eb083746144974c6057eb077dd304f02",
    "p321-flat-12": "c6e106f34acc504126ab1ff4f5f9e64092681b2242902d0428cb31e766b278f3",
    "p321-deformed-12": "1f617b0524677d400cd47bd6ad13ba49e6e59e63dedb583e7520a377ecdcd26b",
    "p321-path-60": "24831cf59f75e4ab83218a77e3ba04e92aaf2a12737a89121195f0a53c13499c",
    "p321-path-120": "51f475325f4bcfdad8e9ce7f100a54af99c38e701d9766648a22080b33dc1477",
    "p321-path-180": "71ac727b38899df3a54115c62d6a8adc5e51c81b9955b68b834a8f9a904e36d6",
    "p321-path-240": "973e7cbce055413c1569af72a2737b0522433a4db04a08ca0310925772396729",
    "p321-path-300": "ca36ff0f96b6bcb259a240f1860640c83ac5bced1760355e04d7327d250120d9",
    "p321-nstep-1": "b433e25052f0fd4338ef281ecd5afde5f48cca2b3ab1a11d07b7eb723be052c2",
    "p321-nstep-5": "98e820713ce73d373c39a1be09ba8d666f61034eb7de2cfa8a13fab87f785237",
    "p321-nstep-20": "4671796149cdbb9165e774cc61705b43271412ebf0d46a1b12a485f542e01eff",
    "pgen-flat-4": "fa1984d13c4cadd8ebd45af97e7485016bdaccd47a3c22150488ab1e56c3449a",
    "pgen-deformed-4": "ec8192fe334bd1982bf351deb33d27b27bbe4f6c6a04aa932f9f014b97bd77ca",
    "pgen-flat-5": "ff43f846bf9b76e5894ef6f91d620b6ca94736141bfa63a931e81eae868bc338",
    "pgen-deformed-5": "7631c36520c4ea8fcfcd53854b411f2c9fe4b2d073fd71b88ff01f787b680ddd",
    "pgen-flat-6": "46e7aacf171f6abf2119aafe36819894efebde003d32487b128de13ea66ba2bb",
    "pgen-deformed-6": "b1e9e4e6cddf55d35423a8a885e64170de31393995b07f6b1a03b76cfb99d100",
    "pgen-flat-7": "861d7df3e6ed6d33ff90d98b5ab48d40491bd8b1df11d9888796c3463940bf7e",
    "pgen-deformed-7": "1f2a4ea9dc5407189b0720d8d56a07c480a26a56e420db5523b984245e1aa337",
    "pgen-flat-8": "a732449014017722d17ac35fc72d58cd271af0d818fa25980bef2571fcb7755b",
    "pgen-deformed-8": "0784a7de87ca897a0835793cd8e4cf3a6a1d22b1d14a11385a4b39031e23c4b4",
    "pgen-flat-9": "e1a0424e479f3a2ffd7e6b2137a1d81583196c847944f791d5cb24db05a8083d",
    "pgen-deformed-9": "5ef375f30741e8d0e4be70d141db423baeb44ece0bac1098dbf4fc8ce4426bc2",
    "pgen-flat-10": "77a305a44e305c0b82443b00de3bc33ab1fd05780d688106e4cd643da181d700",
    "pgen-deformed-10": "b4ace917cdd6380b102737466db51cf8e7c92c0e59a11ba296529bbbf042a6ac",
    "pgen-flat-11": "33fc35f11c1deb6f6e2c1eb17f28cc4c5a86b7effd6abca9d955093d13df18fc",
    "pgen-deformed-11": "a8c380c70550404499bb349599b19cdd5aafe06a7ed040cd79dda5f03ab37bc7",
    "pgen-flat-12": "e5469affc814dfd876f064dc290b2900f5c6a93be3c36e56c9672378ff107c65",
    "pgen-deformed-12": "20fe9e15802b7dcdb1b18be33ba11264e1e9538afd796356ace728f842b72335",
    "pgen-path-60": "26ef608acecafe9c22fbcbf5598bae7c9eb2794199bbf5d63e5911c028e8c096",
    "pgen-path-120": "a0a493affaf49d76e92acdde8e72b8b08156252d6cd61209db124194e784d0dc",
    "pgen-path-180": "78af9d88f0e874d33a4f93e5c87d3645f5f314f3bb4880532f8db57d1b3e5001",
    "pgen-path-240": "f0d8b3b81d437b3e06bf8f7d40c24c79b9c30735d1a965f328ac47c0e206ae65",
    "pgen-path-300": "7bd250b7721facba4cb93c2263cea33147b9f021f95aea44e5ef80dec601c3d1",
    "pgen-nstep-1": "28d1e3701b120bef27bccf29a014fbcf5f2478f16f6241177db3980b1fd27144",
    "pgen-nstep-5": "5acd2964fd5717d11bab1bef263dafd751922abfd0fb09e7dbd2e247eedc1b46",
    "pgen-nstep-20": "9fb8b022961cf385b86edda3bc5996732ffef3f1ce6f6cd803add9cd1937bf79",
}


@pytest.fixture(scope="module")
def golden():
    return list(golden_kernels())


def test_kernel_json_is_byte_identical_to_golden(golden):
    digests = {name: digest(json.dumps(reference_canonical(kernel), sort_keys=True, allow_nan=False))
               for name, kernel in golden}
    assert digests == GOLDEN_KERNELS


def test_sparse_kernel_json_is_byte_identical_to_golden(golden):
    assert {name: digest(kernel.to_json()) for name, kernel in golden} == GOLDEN_SPARSE_KERNELS


def test_big_flat_patch_serialises_in_its_nonzeros():
    kernel = qsurface.surface_kernel(qsurface.flat_patch(32, 32), qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0))
    text = kernel.to_json()
    assert len(text) < 256 * 1024  # the dense form of its 1089 boundary variables took 5.95 MB
    assert oscgauss.compare(kernel, oscgauss.OscKernel.from_json(text)).exponent_diff == 0.0


# -- the canonical form ------------------------------------------------------------

def reference_canonical(kernel: oscgauss.OscKernel) -> dict:
    """The dense canonical form, kernel_format 1: canonical_dict without the
    format field, with A row-major over the sorted vars and every entry of A
    and B passed through round(float(x), 15)."""
    order = np.argsort(np.array(kernel.vars))
    A = kernel.A[np.ix_(order, order)]
    data = kernel.canonical_dict()
    del data["kernel_format"]
    return {
        **data,
        "A": [round(float(x), 15) for x in A.reshape(-1)],
        "B": [round(float(x), 15) for x in kernel.B[order]],
    }


def reference_triples(dense: list[float]) -> list[list]:
    """[i, j, x] for each upper-triangle entry x of a row-major dense A that is not +0.0."""
    n = math.isqrt(len(dense))
    return [[i, j, x] for i in range(n) for j in range(i, n)
            if (x := dense[i * n + j]) or math.copysign(1.0, x) < 0.0]


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
    want = {**want, "kernel_format": 2, "A": reference_triples(want["A"])}
    # repr tells -0.0 from 0.0, which == does not
    assert repr(got["A"]) == repr(want["A"]) and repr(got["B"]) == repr(want["B"])
    assert all(type(i) is int and type(j) is int and type(x) is float for i, j, x in got["A"])
    assert all(type(x) is float for x in got["B"])
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
    # the validating constructor refuses a non-finite kernel; _built takes its fields as they are
    bad_kernel = oscgauss.OscKernel._built(kernel.vars, A, B, kernel.c, kernel.amp, kernel.pihbar_pow,
                                           kernel.vol_pow, kernel.constraints, kernel.hbar)
    with pytest.raises(ValueError):
        bad_kernel.to_json()


def test_canonical_form_keeps_the_sign_of_a_zero():
    A, B = np.array([[-0.0, 1.0], [1.0, 0.0]]), np.array([-0.0, 0.0])
    kernel = oscgauss.OscKernel(vars=("b", "a"), A=A, B=B, c=0.0)
    data = json.loads(kernel.to_json())
    # over the sorted vars (a, b): A_ab = 1.0, A_bb = -0.0 listed with its sign, A_aa = +0.0 left out
    assert data["A"] == [[0, 1, 1.0], [1, 1, -0.0]] and math.copysign(1.0, data["A"][1][2]) == -1.0
    assert math.copysign(1.0, data["B"][1]) == -1.0 and math.copysign(1.0, data["B"][0]) == 1.0


#: Awkward entries, and entries near overflow, for library-built kernels.
library_values = st.one_of(awkward_floats, st.floats(min_value=9e307, max_value=1.7e308))


@st.composite
def library_kernels(draw):
    """A from_terms kernel over awkward and near-overflow entries, with some of
    its variables integrated out when the engine can."""
    n = draw(st.integers(1, 5))
    names = tuple(draw(st.permutations([f"v{k}" for k in range(n)])))
    quadratic = draw(st.dictionaries(st.tuples(st.sampled_from(names), st.sampled_from(names)), library_values,
                                     max_size=3 * n))
    linear = draw(st.dictionaries(st.sampled_from(names), library_values))
    variables = draw(st.lists(st.sampled_from(names), unique=True))
    with np.errstate(all="ignore"):
        kernel = oscgauss.from_terms(names, quadratic, linear, draw(library_values))
        try:
            return oscgauss.marginalize_all(kernel, variables)
        except NearCaustic:
            return kernel


@settings(max_examples=150, deadline=None)
# an entry above half the largest double, which 0.5 (A + A^T) would turn into inf
@example(oscgauss.from_terms(("x", "y"), {("x", "y"): 1.5e308, ("x", "x"): 1.0}))
# a phase of -0.0, as on some deformed-surface kernels
@example(oscgauss.from_terms(("x",), {("x", "x"): 1.0}, amp=complex(2.0, -0.0)))
@given(library_kernels())
def test_from_json_gives_a_library_built_kernel_back(kernel):
    try:
        text = kernel.to_json()
    except ValueError:  # a non-finite entry has no JSON
        return
    back = oscgauss.OscKernel.from_json(text)
    # A comes back as its canonical rounding, bit for bit, signed zeros included
    perm = [kernel.index(v) for v in back.vars]
    rounded = np.array([[round(x, 15) for x in row] for row in kernel.A[np.ix_(perm, perm)].tolist()])
    assert np.array_equal(back.A.view(np.int64), rounded.reshape(back.A.shape).view(np.int64))
    want, got = json.loads(text), json.loads(back.to_json())
    # amp is stored as modulus and phase: rebuilding it may move the last bit of either, but
    # the sign of a zero phase survives, and a modulus that rounds to 0 keeps no phase
    want_amp, got_amp = want.pop("amp"), got.pop("amp")
    assert repr(got) == repr(want)
    assert math.isclose(got_amp["modulus"], want_amp["modulus"], rel_tol=1e-15)
    if want_amp["modulus"]:
        assert math.isclose(got_amp["phase"], want_amp["phase"], abs_tol=2e-15)
        assert math.copysign(1.0, got_amp["phase"]) == math.copysign(1.0, want_amp["phase"])


def small_kernel_json(**changes) -> str:
    """The canonical JSON of a two-variable kernel, with some fields replaced."""
    kernel = oscgauss.from_terms(("x", "y"), {("x", "x"): 0.5, ("x", "y"): 2.0}, {"y": 1.0})
    return json.dumps({**kernel.canonical_dict(), **changes})


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_from_json_refuses_a_non_finite_token(token):
    with pytest.raises(ValueError, match=token):
        oscgauss.OscKernel.from_json(small_kernel_json().replace('"c": 0.0', f'"c": {token}'))


@pytest.mark.parametrize("fmt", [None, 1, "2", 2.0])
def test_from_json_refuses_another_format(fmt):
    data = json.loads(small_kernel_json())
    if fmt is None:
        del data["kernel_format"]
    else:
        data["kernel_format"] = fmt
    with pytest.raises(ValueError, match="kernel_format"):
        oscgauss.OscKernel.from_json(json.dumps(data))


@pytest.mark.parametrize("triple", [[0, 2, 1.0], [-1, 0, 1.0], [0, True, 1.0], [0.0, 1, 1.0]])
def test_from_json_refuses_an_index_out_of_range(triple):
    with pytest.raises(ValueError, match="out of range"):
        oscgauss.OscKernel.from_json(small_kernel_json(A=[[0, 0, 1.0], triple]))


def test_from_json_refuses_a_triple_below_the_diagonal():
    with pytest.raises(ValueError, match="below the diagonal"):
        oscgauss.OscKernel.from_json(small_kernel_json(A=[[0, 0, 1.0], [1, 0, 2.0]]))


def test_from_json_refuses_a_repeated_entry():
    with pytest.raises(ValueError, match=r"repeats the entry \(0, 1\)"):
        oscgauss.OscKernel.from_json(small_kernel_json(A=[[0, 1, 2.0], [0, 1, 2.0]]))


# -- the builders' direct feed -----------------------------------------------------

def dense_kernel(terms):
    """The kernel of a _Terms by a dense assembly outside the engine: each
    monomial added from 0.0 into A and B in dict order, then the constructor
    that skips re-validation."""
    n = len(terms.vars)
    A, B = np.zeros((n, n)), np.zeros(n)
    idx = {v: k for k, v in enumerate(terms.vars)}
    for (u, w), cv in terms.quadratic.items():
        i, j = idx[u], idx[w]
        if i == j:
            A[i, i] += 2.0 * cv
        else:
            A[i, j] += cv
            A[j, i] += cv
    for u, cv in terms.linear.items():
        B[idx[u]] += cv
    return oscgauss.OscKernel._built(terms.vars, A, B, terms.c, terms.amp, terms.pihbar_pow, 0, (), terms.hbar)


def dense_feed(terms, variables):
    """The route the builders skip: a dense kernel of their monomials, then marginalize_all."""
    return oscgauss.marginalize_all(dense_kernel(terms), variables)


def same_bits(x, y) -> bool:
    """Whether two float64 values or arrays are equal bit for bit, where a NaN
    matches any NaN: which operand a sum of two NaNs keeps is not fixed, not
    even in CPython, whose float addition keeps the second until the
    bytecode is specialised and the first after."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    both = np.isnan(x) & np.isnan(y)
    return np.array_equal(np.where(both, 0, x.view(np.int64)), np.where(both, 0, y.view(np.int64)))


@st.composite
def monomial_forms(draw):
    """The arguments of from_terms over awkward, NaN and near-overflow entries, with repeated monomials."""
    values = st.one_of(library_values, st.sampled_from([float("nan"), -float("nan")]))
    names = tuple(draw(st.permutations([f"v{k}" for k in range(draw(st.integers(1, 5)))])))
    quadratic = draw(st.dictionaries(st.tuples(st.sampled_from(names), st.sampled_from(names)), values,
                                     max_size=3 * len(names)))
    linear = draw(st.dictionaries(st.sampled_from(names), values))
    return names, quadratic, linear, draw(values), complex(draw(values), draw(values))


@settings(max_examples=200, deadline=None)
# two monomials on one entry that overflow together, and a NaN beside signed zeros
@example((("x", "y"), {("x", "y"): 1.7e308, ("y", "x"): 1.7e308}, {"x": -0.0}, 0.0, 1 + 0j))
@example((("x",), {("x", "x"): float("nan")}, {"x": -0.0}, -0.0, complex(-0.0, -0.0)))
@given(monomial_forms())
def test_from_terms_is_the_dense_assembly_bit_for_bit(case):
    names, quadratic, linear, const, amp = case
    with np.errstate(all="ignore"):
        want = dense_kernel(oscgauss._Terms(names, quadratic, linear, const, amp, Fraction(-1, 2), 0.37))
    got = oscgauss.from_terms(names, quadratic, linear, const, amp, Fraction(-1, 2), 0.37)
    assert got.vars == want.vars
    assert same_bits(got.A, want.A) and same_bits(got.B, want.B)
    assert same_bits(got.c, want.c) and same_bits([got.amp.real, got.amp.imag], [want.amp.real, want.amp.imag])
    assert (got.pihbar_pow, got.vol_pow, got.constraints, got.hbar) == (want.pihbar_pow, want.vol_pow, (), 0.37)


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
    with mock.patch.object(qprop1d, "marginalize_all", dense_feed), \
            mock.patch.object(qsurface, "marginalize_all", dense_feed):
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
@example(2, 6, 0, (3.0, 2.0, 1.0), ("c", (2, 1), 1e-2))
@given(st.integers(1, 6), st.integers(0, 16), st.integers(0, 2**32 - 1), surface_points,
       st.none() | st.tuples(st.sampled_from("abcd"), st.sampled_from(list(itertools.permutations((1, 2, 3), 2))),
                             st.sampled_from([1e-2, -1e-2, 0.5])))
def test_surface_kernel_direct_feed_is_bit_equal_to_the_dense_kernel(k, ops, seed, point, bump):
    coeffs = qsurface.canonical_lattice_coeffs(*point)
    if bump is not None:
        # a and d stay antisymmetric; a one-sided bump of b or c breaks the
        # pair symmetry and brings delta steps
        coeffs = coeffs.perturbed(*bump)
    surface = qsurface.random_deformation(qsurface.flat_patch(k, k), np.random.default_rng(seed), ops)
    assert_feeds_agree(lambda: qsurface.surface_kernel(surface, coeffs))
    assert_feeds_agree(lambda: qsurface.surface_kernel(reversed_surface(surface), coeffs))


@pytest.mark.parametrize("move", ["a", "b", "c"])
@pytest.mark.parametrize("bump", [None, ("c", (1, 2), 1e-2), ("c", (3, 1), 1e-2), ("b", (1, 2), 1e-2)])
def test_elementary_moves_direct_feed_is_bit_equal_to_the_dense_kernel(move, bump):
    coeffs = qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0)
    if bump is not None:
        coeffs = coeffs.perturbed(*bump)
    for surface in qsurface.elementary_move_surfaces(move):
        assert_feeds_agree(lambda: qsurface.surface_kernel(surface, coeffs))


@pytest.mark.parametrize("direction", ["hat", "bar"])
@pytest.mark.parametrize("zero_potential", [False, True])
def test_momentum_kernel_direct_feed_is_bit_equal_to_the_dense_kernel(d321, direction, zero_potential):
    assert_feeds_agree(lambda: qprop1d.momentum_factorized_kernel(d321, direction, zero_potential=zero_potential))


def test_both_feeds_record_the_delta_of_an_entry_above_half_the_largest_double():
    # neither route symmetrises A, so 1.5e308 stays finite on both and its row is a delta, 1.5e308 x = 0
    terms = oscgauss._Terms(("x", "y"), {("x", "y"): 1.5e308}, {}, 0.0, 1.0 + 0.0j, Fraction(0), 1.0)
    want = (oscgauss.AffineConstraint((("x", 1.5e308),), 0.0),)
    assert oscgauss.marginalize_all(terms, ["y"]).constraints == want
    assert dense_feed(terms, ["y"]).constraints == want


def test_builders_integrate_through_marginalize_all(d321):
    # the builders' eliminations pass the public engine entry point, where a
    # profiler or tracer that wraps marginalize_all in the modules that import it sees them
    coeffs = qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0)
    engine = mock.Mock(wraps=oscgauss.marginalize_all)
    with mock.patch.object(qprop1d, "marginalize_all", engine), mock.patch.object(qsurface, "marginalize_all", engine):
        qprop1d.path_kernel(long_path(60), d321)
        qsurface.surface_kernel(deformed_patch(4), coeffs)
    assert engine.call_count == 2
    assert all(isinstance(call.args[0], oscgauss._Terms) for call in engine.call_args_list)
