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
from mdclab.errors import NearCaustic, VariableMismatch
from mdclab.params import LatticeParams, derive

from conftest import built, float_bits, from_dense, reversed_surface, same_bits

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


#: sha256 of to_json() (the sparse kernel_format 4) for each golden_kernels() case.
GOLDEN_SPARSE_KERNELS = {
    "p321-flat-4": "b60c1df7d1e80de44c0bf1fd455c09c6c0d87d6db79fb6dcc8e20aaa969a10be",
    "p321-deformed-4": "4362526a38b9c075c0c71e622d73a128e0d7464614383543f4a0c7e4fae3d8c1",
    "p321-flat-5": "7154fb96b28a7f137135b002b566ca2a11d123a48ef571d4c11160480bfefde7",
    "p321-deformed-5": "f702b32a773489950aeadc800b82ad723c167317b66a85e33ea17ab11e5a9e7c",
    "p321-flat-6": "0452b10f983e9d6af25284b53f459cea3230ceed4d5d66e457978d6bba7a218e",
    "p321-deformed-6": "f5d163eccc0a808206eda773a20a7c1b9b660e92e4bd4b4ffb205caefc35172c",
    "p321-flat-7": "61d60658325af94a7b07a807ba30fc33c4ef4575208c3ba160b99cf7779db9e1",
    "p321-deformed-7": "f6dbbc541bce3d0b415a1f33892ca21077861ca17b308f16f37f7f0a24778fca",
    "p321-flat-8": "de22994f9886df84288a1147da8cbf39a100c2b8050c7b0f6b59097093f2b7bc",
    "p321-deformed-8": "45d52a11195e5497ecb41d2257cb798a2a4299412381fbae7687091429fb12b3",
    "p321-flat-9": "d370d76167aa01cb1c5ecd148ad8f5621c2726346e824dc4572da5a3d24ebd25",
    "p321-deformed-9": "7bfdd0dce7018ae82de7bcd0f653d7446a485887721758c4740455ea0aef00ba",
    "p321-flat-10": "42b3813a1b1ccedd73a0e0eb98d8cdcf12d08d5ed48058a39f38d4433160509e",
    "p321-deformed-10": "638275cd3295b0b7bb3b00e99fb7c3f53ed19820a00577dff7eef351d161794b",
    "p321-flat-11": "bac6758c9a2f40111c2b7fccf6768000b60166c5e5a692ea67926c48a8e589cd",
    "p321-deformed-11": "4ad88bb82dd8946ca97758605da957ac192e7d67c22e386dc0570671c5e93a9f",
    "p321-flat-12": "429da04605d443957c9a0fe92291d31e007b5078a38a321f04f9a64363d3668d",
    "p321-deformed-12": "bd427ad65431d67af85713e0d119d68d1a37708b4a91e70e40225ec3d57de6e0",
    "p321-path-60": "49524ef138fbdbbaeb47f0ac5aa9798038bae07e28616b3da0565d10f40a8689",
    "p321-path-120": "575c2c5a2aa87ef8aa2d00b14d463c4645b4d42f9dc20932b8943edd67dc773c",
    "p321-path-180": "b004c5bb789825f8ba8262f9c31dd28142858b30974bbb0c2eadf3104bed1413",
    "p321-path-240": "7b01780ceb143f1b08551dbbd0d0ac359203979f4c78f434262ce9802b7ca1e8",
    "p321-path-300": "9211dde2d35e2c418b49662803215cd47e5ffd111fd7867a649a214d4b28ea21",
    "p321-nstep-1": "23216cb2b5ef7a22a9c73ebbe0a20e3c0b559066b93f922133618a22319b546e",
    "p321-nstep-5": "91f821d50c8aca2f5da6e505a9f2935d1e4ff6e97f511e8741fe6e195b037c05",
    "p321-nstep-20": "865a26868bcf4da8214a0bf4ed50b812b9d21f6c53684f305a64680b2d7c590f",
    "pgen-flat-4": "17e8582cc4a4aa68b9131f8ed5e9eec7f343720862de6828109ef57de1b8e0fb",
    "pgen-deformed-4": "d71c9c565c9e613bc74d9604f0e2a02bff21b8abbdf4bff5d6745117e3fd1873",
    "pgen-flat-5": "f463460a3ef1d18076680b33f01d4c013497bf48853a7b42728bf606eea6fd66",
    "pgen-deformed-5": "030a4596249610cb4f42a1a89c7e4904445ed432a2f2aed9d04cf7cc8871c776",
    "pgen-flat-6": "87b5c8e58aec55a44a980a3dad43ad514196941f366ceb32a857e78d11706ece",
    "pgen-deformed-6": "e7e0b0892e25fd9918a1eabff9bccf43e3dff7b42263c2e1826d1dcbcab15d60",
    "pgen-flat-7": "2bdb385c94a7e8c4342492543840f1a668a38f7864b80dffd10041ba6f8a6907",
    "pgen-deformed-7": "98b31ed5f9179b3c39a80281c9c7f343269ba1fcfe2906a6050e488a6a0651bd",
    "pgen-flat-8": "a22650bcdb15ffcfe91bee2abd8a9fbb9224f01e24e8b2533da23f059e76eb71",
    "pgen-deformed-8": "a30bc1067591495661a2b931646844ccca0f8e2a4afc74e5d6b8b3ef7a1392fc",
    "pgen-flat-9": "c1eb34017435000bd9bb775d7254c11ddac2ab6c58bdc80d64326bc83e3ae37a",
    "pgen-deformed-9": "c9ed06521825dc85dcc5fb1a0133c57d1b7bab770a0c9e626576674f6f6b8b8b",
    "pgen-flat-10": "045750caaf508e14a2a9bff07b7aa762e6b4a622ca8c80eb64c05a2ca8f43cb8",
    "pgen-deformed-10": "a0e8ad1d6458f11a6d161e1516b9f434ca29713d5ad1e3fb29a1daf094a984e9",
    "pgen-flat-11": "c87bab97ec7fcb5d21730ffa30d1ff2505c034d9fe31071cf6ffb6885c0c5702",
    "pgen-deformed-11": "ee3de418a5338ac71a957a67b34f68d82f7443fd7b630385030f9e0f00368035",
    "pgen-flat-12": "b17d6a1d73a89349b357fb0d1b82970ab2d440c5f0e421bbd5fb8a4e6ff4141f",
    "pgen-deformed-12": "c18a35855db6179ad83033eabb98aa593542eb196b13e77a7d318d2dddfd0c52",
    "pgen-path-60": "74809c0d158ae79e14174a8be6fc230023c62342f44eff3a73f19f0e4bae754c",
    "pgen-path-120": "6f2d45024bf278d3ef8533b29fe1b5924bdaf06e2e542fedc574000a05ff5e23",
    "pgen-path-180": "02c6e412533da30b58e640c3435f21cd6e7045689aded6bc59e2a1521a788588",
    "pgen-path-240": "3fcf7f3f2286dbd53ee129f5422787268d2d24c9766898728f1879908c450429",
    "pgen-path-300": "c7fdfa6ddd4225a71737f09bfb81428e6faaad81fa57a3d4b4198a147cf27b9a",
    "pgen-nstep-1": "bd4fb0d01e6565ed2ef8e3f39f3d78c4d43f3e6ef645d460f2a4b9c2f37d3fd2",
    "pgen-nstep-5": "b2633ac1c496065833eebbb007930de5577cfc2bded21f903584bf8f6c4267d7",
    "pgen-nstep-20": "3816723b0f9d63261f0386893ef7cb8cec2aa0988b7ccb38b07a4453b84d35ab",
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
    format field, with A row-major over the sorted vars and every entry
    passed through round(float(x), 15), and the linear term B, the constant
    c and each constraint's constant that format wrote, all zero, and the
    hbar it wrote, 1.0 for every golden case."""
    order = np.argsort(np.array(kernel.vars))
    A = kernel.A[np.ix_(order, order)]
    data = kernel.canonical_dict()
    del data["kernel_format"]
    constraints = [{**item, "const": 0.0} for item in data["constraints"]]
    return {
        **data,
        "A": [round(float(x), 15) for x in A.reshape(-1)],
        "B": [0.0] * len(order),
        "c": 0.0,
        "hbar": 1.0,
        "constraints": sorted(constraints, key=lambda item: json.dumps(item, sort_keys=True)),
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
    return from_dense(vars=tuple(names), A=A)


@settings(max_examples=150, deadline=None)
@given(symmetric_kernels())
def test_canonical_dict_rounds_like_the_per_entry_reference(kernel):
    got = kernel.canonical_dict()
    want = {**got, "A": reference_triples(reference_canonical(kernel)["A"])}
    assert sorted(got) == ["A", "amp", "constraints", "kernel_format", "pihbar_pow", "vars", "vol_pow"]
    # repr tells -0.0 from 0.0, which == does not
    assert repr(got["A"]) == repr(want["A"])
    assert all(type(i) is int and type(j) is int and type(x) is float for i, j, x in got["A"])
    assert kernel.to_json() == json.dumps(want, sort_keys=True, allow_nan=False)


def assert_written_as_round_writes_them(kernel):
    """canonical_dict's A is, bit for bit, the triples of round(x, 15) on every entry x."""
    got = kernel.canonical_dict()["A"]
    want = reference_triples(reference_canonical(kernel)["A"])
    assert [(i, j, float_bits(x)) for i, j, x in got] == [(i, j, float_bits(x)) for i, j, x in want]


#: The edges of the rule that writes an entry x as it is when |x| >= 8 or x 2^15 is an integer; round
#: changes 7.9999999999999964, three doubles below 8, and 2^-16.
ROUNDING_EDGES = [8.0, 7.999999999999999, 7.9999999999999964, 8.000000000000002, 2.0**-15, 3 * 2.0**-15,
                  12345 * 2.0**-15, (2**18 - 1) * 2.0**-15, 2.0**-16, 1e-16, 5e-324, 1.5e308, 0.0]


def test_canonical_dict_writes_the_rounding_edges_as_round_does():
    values = [sign * x for x in ROUNDING_EDGES for sign in (1.0, -1.0)]
    n = 7  # 28 upper-triangle entries hold the 26 values and two +0.0
    values += [0.0] * (n * (n + 1) // 2 - len(values))
    A = np.zeros((n, n))
    # symmetric bit for bit, so from_dense keeps each entry as it is, a -0.0 included
    A[np.triu_indices(n)] = A.T[np.triu_indices(n)] = values
    kernel = from_dense(vars=tuple(f"v{k}" for k in range(n)), A=A)
    assert_written_as_round_writes_them(kernel)
    # -0.0 is listed, and so are -5e-324 and -1e-16, which round to -0.0; 5e-324 and 1e-16 round to +0.0
    assert [float_bits(x) for _, _, x in kernel.canonical_dict()["A"] if x == 0.0] == [float_bits(-0.0)] * 3
    A[0, 0] = math.nan
    with pytest.raises(ValueError):
        built(kernel.vars, A, 1.0 + 0.0j, Fraction(0), 0, ()).to_json()


@settings(max_examples=300, deadline=None)
# any finite double, subnormals and both zeros included, and doubles on either side of 8
@given(symmetric_kernels(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-16.0, 16.0))))
def test_canonical_dict_writes_any_finite_entry_as_round_does(kernel):
    assert_written_as_round_writes_them(kernel)


@settings(max_examples=50, deadline=None)
@given(symmetric_kernels(), st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans(), st.data())
def test_to_json_refuses_a_non_finite_entry(kernel, bad, in_amp, data):
    n = len(kernel.vars)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    A, amp = kernel.A.copy(), kernel.amp
    if in_amp:
        amp = complex(bad, 0.0)
    else:
        A[i, j] = A[j, i] = bad
    # the validating constructor refuses a non-finite kernel; _built takes its fields as they are
    bad_kernel = built(kernel.vars, A, amp, kernel.pihbar_pow, kernel.vol_pow, kernel.constraints)
    with pytest.raises(ValueError):
        bad_kernel.to_json()


def test_canonical_form_keeps_the_sign_of_a_zero():
    kernel = from_dense(vars=("b", "a"), A=np.array([[-0.0, 1.0], [1.0, 0.0]]))
    data = json.loads(kernel.to_json())
    # over the sorted vars (a, b): A_ab = 1.0, A_bb = -0.0 listed with its sign, A_aa = +0.0 left out
    assert data["A"] == [[0, 1, 1.0], [1, 1, -0.0]] and math.copysign(1.0, data["A"][1][2]) == -1.0


def test_names_with_a_trailing_nul_write_one_canonical_text():
    # a fixed-width numpy string drops a trailing NUL, so "a\x00" once sorted as "a", and the two orders of one
    # kernel wrote two texts; Python's order, the engine's, puts "a" first
    A = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, -1.5], [0.0, -1.5, 3.0]])
    k1 = from_dense(("a\x00", "a", "b"), A)
    order = [1, 0, 2]
    k2 = from_dense(("a", "a\x00", "b"), A[np.ix_(order, order)])
    assert oscgauss.compare(k1, k2).exponent_diff == 0.0
    text = k1.to_json()
    assert k2.to_json() == text and json.loads(text)["vars"] == ["a", "a\x00", "b"]
    back = oscgauss.OscKernel.from_json(text)
    assert back.vars == ("a", "a\x00", "b") and back.to_json() == text


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
    variables = draw(st.lists(st.sampled_from(names), unique=True))
    with np.errstate(all="ignore"):
        kernel = oscgauss.from_terms(names, quadratic)
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
    kernel = oscgauss.from_terms(("x", "y"), {("x", "x"): 0.5, ("x", "y"): 2.0})
    return json.dumps({**kernel.canonical_dict(), **changes})


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_from_json_refuses_a_non_finite_token(token):
    text = small_kernel_json(amp={"modulus": "token", "phase": 0.0}).replace('"token"', token)
    with pytest.raises(ValueError, match=token):
        oscgauss.OscKernel.from_json(text)


@pytest.mark.parametrize("fmt", [None, 1, "2", 2.0, "3", 3.0, "4", 4.0])
def test_from_json_refuses_another_format(fmt):
    data = json.loads(small_kernel_json())
    if fmt is None:
        del data["kernel_format"]
    else:
        data["kernel_format"] = fmt
    with pytest.raises(ValueError, match="kernel_format"):
        oscgauss.OscKernel.from_json(json.dumps(data))


def test_from_json_refuses_a_format_2_text():
    # what to_json wrote before format 3: the linear term B, the constant c and each constraint's constant
    kernel = oscgauss.marginalize(oscgauss.from_terms(("x", "y", "z"), {("x", "y"): 1.0, ("y", "z"): -2.0}), "y")
    data = kernel.canonical_dict()
    data.update(kernel_format=2, B=[0.0] * 2, c=0.0,
                constraints=[{**item, "const": 0.0} for item in data["constraints"]])
    with pytest.raises(ValueError, match="kernel_format must be 4, got 2"):
        oscgauss.OscKernel.from_json(json.dumps(data, sort_keys=True))
    back = oscgauss.OscKernel.from_json(kernel.to_json())
    assert back.constraints == tuple(con.normalized() for con in kernel.constraints)


def test_from_json_refuses_a_format_3_text():
    # what to_json wrote before format 4: the hbar key, 1.0 on every kernel the library built
    kernel = oscgauss.from_terms(("x", "y"), {("x", "x"): 0.5, ("x", "y"): 2.0})
    data = {**kernel.canonical_dict(), "kernel_format": 3, "hbar": 1.0}
    with pytest.raises(ValueError, match="kernel_format must be 4, got 3"):
        oscgauss.OscKernel.from_json(json.dumps(data, sort_keys=True))
    assert "hbar" not in json.loads(kernel.to_json())


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


def _without_vol_pow() -> str:
    data = json.loads(small_kernel_json())
    del data["vol_pow"]
    return json.dumps(data)


#: JSON texts of the wrong shape, each small_kernel_json's text with one part changed
WRONG_SHAPES = {
    "list-index": lambda: small_kernel_json(A=[[[0], 0, 1.0]]),
    "top-level-array": lambda: "[]",
    "no-vol_pow": _without_vol_pow,
    "extra-key": lambda: small_kernel_json(hbar=1.0),
    "amp-list": lambda: small_kernel_json(amp=[1.0, 0.0]),
    "A-number": lambda: small_kernel_json(A=5),
    "constraint-list": lambda: small_kernel_json(constraints=[["x", 1.0]]),
}


def test_from_json_reads_the_unchanged_small_kernel_text_back():
    kernel = oscgauss.from_terms(("x", "y"), {("x", "x"): 0.5, ("x", "y"): 2.0})
    assert oscgauss.OscKernel.from_json(small_kernel_json()).to_json() == kernel.to_json()


@pytest.mark.parametrize("shape", WRONG_SHAPES)
def test_from_json_refuses_a_text_of_the_wrong_shape_with_a_value_error(shape):
    # each raised TypeError, AttributeError or KeyError before the reader checked the JSON shape, but the extra
    # key, which was read as if it were absent
    with pytest.raises(ValueError):
        oscgauss.OscKernel.from_json(WRONG_SHAPES[shape]())


@pytest.mark.parametrize("coeffs, error, match", [
    ([], ValueError, "no nonzero coefficient"),
    ([["x", 0.0], ["y", 0.0]], ValueError, "no nonzero coefficient"),
    ([["x", 1.0], ["q", 0.5]], VariableMismatch, "no variable 'q'"),
    ([["x", 1.0], ["x", 2.0]], VariableMismatch, "repeats a variable"),
])
def test_a_delta_constraint_that_to_json_cannot_write_is_refused_by_both_readers(coeffs, error, match):
    con = oscgauss.AffineConstraint(tuple(map(tuple, coeffs)))
    with pytest.raises(error, match=match):
        oscgauss.OscKernel(("x", "y"), {(0, 0): 1.0, (1, 1): 1.0}, constraints=(con,))
    with pytest.raises(error, match=match):
        oscgauss.OscKernel.from_json(small_kernel_json(constraints=[{"coeffs": coeffs}]))


def test_a_zero_coefficient_among_nonzero_ones_is_kept():
    con = oscgauss.AffineConstraint((("x", 2.0), ("y", 0.0)))
    kernel = oscgauss.OscKernel(("x", "y"), {(0, 0): 1.0, (1, 1): 1.0}, constraints=(con,))
    assert kernel.constraints == (con,)
    assert oscgauss.OscKernel.from_json(kernel.to_json()).constraints == (con.normalized(),)


#: Fields that to_json never writes, with the error both readers give: each replaces one field of a two-variable
#: kernel, an A entry as the entry (0, 0), a constraint coefficient as the one coefficient of x, and an amp as its
#: modulus in the JSON form.
NEVER_WRITTEN = [
    ("vars", "xy", VariableMismatch), ("vars", [1, 2], VariableMismatch),
    ("vol_pow", "x", ValueError), ("vol_pow", 1.5, ValueError), ("vol_pow", True, ValueError),
    ("vol_pow", None, ValueError), ("pihbar_pow", "1/0", ValueError), ("pihbar_pow", [1], ValueError),
    ("entries", "1.5", ValueError), ("entries", True, ValueError), ("constraints", True, ValueError),
    ("amp", True, ValueError),
]


@pytest.mark.parametrize("reader", ["constructor", "from_json"])
@pytest.mark.parametrize("field, value, error", NEVER_WRITTEN)
def test_both_readers_refuse_a_field_that_to_json_never_writes(reader, field, value, error):
    kernel = oscgauss.from_terms(("x", "y"), {("x", "x"): 0.5, ("x", "y"): 2.0})
    fields = {"vars": kernel.vars, "entries": kernel.entries, "amp": kernel.amp, "pihbar_pow": kernel.pihbar_pow,
              "vol_pow": kernel.vol_pow, "constraints": kernel.constraints}
    data = kernel.canonical_dict()
    assert oscgauss.OscKernel(**fields).to_json() == oscgauss.OscKernel.from_json(json.dumps(data)).to_json()
    if field == "entries":
        fields[field], data["A"] = {(0, 0): value}, [[0, 0, value]]
    elif field == "constraints":
        fields[field], data[field] = (oscgauss.AffineConstraint((("x", value),)),), [{"coeffs": [["x", value]]}]
    elif field == "amp":
        fields[field], data[field] = value, {"modulus": value, "phase": 0.0}
    else:
        fields[field] = data[field] = value
    with pytest.raises(error):
        if reader == "constructor":
            oscgauss.OscKernel(**fields)
        else:
            oscgauss.OscKernel.from_json(json.dumps(data))


# -- the builders' direct feed -----------------------------------------------------

class DenseRow:
    """Row i of a dense array, with the two dict methods that a part's
    _add_into calls on the engine's sparse rows."""

    def __init__(self, A, i):
        self.A, self.i = A, i

    def get(self, j, default):
        return float(self.A[self.i, j])

    def __setitem__(self, j, value):
        self.A[self.i, j] = value


def dense_kernel(part):
    """The kernel of an engine part by a dense assembly outside the engine,
    then the constructor that skips re-validation.  A _Terms adds each
    monomial from 0.0 into A in dict order; a builder's own part
    (qprop1d._PathSteps, qsurface._Plaquettes) writes into A's rows through
    its _add_into, as it writes into the engine's sparse rows.  The kernel
    keeps A's upper triangle, as every kernel does."""
    n = len(part.vars)
    A = np.zeros((n, n))
    idx = {v: k for k, v in enumerate(part.vars)}
    if isinstance(part, oscgauss._Terms):
        for (u, w), cv in part.quadratic.items():
            i, j = idx[u], idx[w]
            if i == j:
                A[i, i] += 2.0 * cv
            else:
                A[i, j] += cv
                A[j, i] += cv
    else:
        part._add_into([DenseRow(A, i) for i in range(n)], idx)
    return built(part.vars, A, part.amp, part.pihbar_pow, 0, ())


def dense_feed(part, variables):
    """The route the builders skip: a dense kernel of their part, then marginalize_all."""
    return oscgauss.marginalize_all(dense_kernel(part), variables)


@st.composite
def monomial_forms(draw):
    """The arguments of from_terms over awkward, NaN and near-overflow entries, with repeated monomials."""
    values = st.one_of(library_values, st.sampled_from([float("nan"), -float("nan")]))
    names = tuple(draw(st.permutations([f"v{k}" for k in range(draw(st.integers(1, 5)))])))
    quadratic = draw(st.dictionaries(st.tuples(st.sampled_from(names), st.sampled_from(names)), values,
                                     max_size=3 * len(names)))
    return names, quadratic, complex(draw(values), draw(values))


@settings(max_examples=200, deadline=None)
# two monomials on one entry that overflow together, and a NaN beside signed zeros
@example((("x", "y"), {("x", "y"): 1.7e308, ("y", "x"): 1.7e308}, 1 + 0j))
@example((("x",), {("x", "x"): float("nan")}, complex(-0.0, -0.0)))
@given(monomial_forms())
def test_from_terms_is_the_dense_assembly_bit_for_bit(case):
    names, quadratic, amp = case
    with np.errstate(all="ignore"):
        want = dense_kernel(oscgauss._Terms(names, quadratic, amp, Fraction(-1, 2)))
    got = oscgauss.from_terms(names, quadratic, amp, Fraction(-1, 2))
    assert got.vars == want.vars
    assert same_bits(got.A, want.A) and same_bits([got.amp.real, got.amp.imag], [want.amp.real, want.amp.imag])
    assert (got.pihbar_pow, got.vol_pow, got.constraints) == (want.pihbar_pow, want.vol_pow, ())


def outcome(build):
    """Every part of the built kernel, bytes for the arrays and repr for the
    scalars and constraints, or the type and message of the raised error."""
    try:
        k = build()
    except Exception as exc:  # both feeds must raise the same error
        return type(exc), str(exc)
    return k.vars, k.A.tobytes(), repr(k.amp), k.pihbar_pow, k.vol_pow, repr(k.constraints)


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
    terms = oscgauss._Terms(("x", "y"), {("x", "y"): 1.5e308}, 1.0 + 0.0j, Fraction(0))
    want = (oscgauss.AffineConstraint((("x", 1.5e308),)),)
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
    assert [type(call.args[0]) for call in engine.call_args_list] == [qprop1d._PathSteps, qsurface._Plaquettes]

