"""``program_fingerprint``: pinned values, declaration-order invariance,
content sensitivity.

The fingerprint keys every store entry (result- and task-level), so it must
be a function of the program's *mathematical content* only: permuting the
order in which arrays, statements or dependences were declared must not
change it, while perturbing any dependence function must.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.analysis import program_fingerprint
from repro.ir import AffineProgram
from repro.polybench import get_kernel, kernel_names
from repro.sets import AffineFunction, LinExpr

#: A representative spread: single-statement, multi-statement, stencils.
KERNELS = ["gemm", "atax", "durbin", "correlation", "jacobi-2d"]

SEEDS = range(6)

#: ``program_fingerprint`` of every PolyBench kernel: the program part of each
#: kernel's store keys.  A drift in the ``repr`` of the affine layer would
#: re-key every stored bound, so the table is pinned literally.
GOLDEN_KERNEL_FINGERPRINTS = {
    "2mm": "43615026af200a0840f9a2a47959e1b98091547fbd4eea14da4c42781ea69153",
    "3mm": "8657055218a72c0ace583d039bdc61d4eec5fc44a2493278cca7735a018066b4",
    "adi": "d4ee7c56732769e10f933cd6a35d42879d90469033f088a4f16ab3de8aeae612",
    "atax": "85c1719163f2f617330119a04ba85fc7ed618cfbf6ac90e600586d8f8e27e136",
    "bicg": "776beb4382e3ac1b9b2f3836a23763d242eb7e01ae212292557cda69cc132fea",
    "cholesky": "ec449f7c13e173271d5469e1dbb12002bf5aac227aecb45fb9b49c8cec4d83df",
    "correlation": "e3237d2b9c516fc0c5f09060b8c056a2238be71a92319f6b4aa595c8a8de6a96",
    "covariance": "186edbab1d07a91b160f7fcf082009ad027d9b303c10d5b994708a4c1c806ee0",
    "deriche": "d52353c5660e3b779862544e9d57f923b23d03a8f55bdc661fc299692d8cfcdb",
    "doitgen": "efe533c8326c591b0469c31d991d7076ed8461af3ad4467009a630fa007f15f7",
    "durbin": "504526c62e82412707de96938f81eab36785f9a2270c2a801a3623c3457d8dc7",
    "fdtd-2d": "f6ede427354be6b868bee0a0bdbf926f62893d616d154b7772495865e69dfe1b",
    "floyd-warshall": "981fad5840a938193ba14abe474384d40eae43864ea5d16a7d3f952fd8248364",
    "gemm": "79c7c912505787777f52676f9e083fe5471ec3fd637158b98e1b5e6e9920ccbe",
    "gemver": "581a4e255c41f03da2c76a3a87b8b251cfe5dea4e0f7e20df10c629154288c82",
    "gesummv": "2b9b781dd096a409f48a81c3af08dea571625b7c9c4858e0bfabc3736814901a",
    "gramschmidt": "4a3a6563eec019eb52ff6fc521afd2de0552bb4dbb20105a02c9880b629d53bf",
    "heat-3d": "a738723cf46a4fd2f36a49cf5737276bf578edd2bd0df0717120f03820aa291d",
    "jacobi-1d": "f0250b0038f2a0395d76cfb38ae07430ba7bd9a58c2496ed924902ebb36a8f57",
    "jacobi-2d": "f6485c3bd156fd919a2c7276cdf258ddd720ac039c3752c5f5808ba328434835",
    "lu": "64db3d81c19d28d781c9833d1d8139b80bf901ba6ffc308e11ab61b7bedd7c15",
    "ludcmp": "0a6af8b850e5f15c00fb66b40102d949bbb21f5daedc780fde47de1f60720628",
    "mvt": "2b2df2da3bcb6a361b79e8e987abeb42c7de0b990365e7876c9c211286163527",
    "nussinov": "ae4bc4d2910c09f6dc3bc1a6589bb2f1459164157fc7d9776adfed2a8a449903",
    "seidel-2d": "0e63dd2547a1c54771efb7cfacf282ad701496bef3468934ae1ee15148fd344a",
    "symm": "f32f5b61ec4e303bab39d5010c560688c8d5aac75b65fd87c0e80df7164fc2f5",
    "syr2k": "b403257b0a6fdec8d6def349b99cfefd09e15878d271b8f98f6c0fb94596ac19",
    "syrk": "6abae8835e91c62fa394696e50d6a4d76dfdd1364247a29b12f5fef269799ab5",
    "trisolv": "ab14a0bd0662543b4aa669c2eed0ae3782d89fa729023a0b31055bcbf4d87af4",
    "trmm": "1883c55441fd900a5dcd89c69c259831ba071d9dedfab372398f343036af9c5e",
}


def rebuilt(program: AffineProgram, seed: int | None = None) -> AffineProgram:
    """A structurally identical program, optionally with every declaration
    list shuffled by ``seed``."""
    arrays = list(program.arrays.values())
    statements = list(program.statements.values())
    dependences = list(program.dependences)
    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(arrays)
        rng.shuffle(statements)
        rng.shuffle(dependences)
    return AffineProgram(
        program.name, program.params, arrays, statements, dependences
    )


def existing_kernel(name: str) -> str:
    if name not in kernel_names():
        pytest.skip(f"kernel {name} not registered")
    return name


class TestDeclarationOrderInvariance:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rebuild_preserves_fingerprint(self, kernel):
        program = get_kernel(existing_kernel(kernel)).program
        assert program_fingerprint(rebuilt(program)) == program_fingerprint(program)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_shuffled_declarations_preserve_fingerprint(self, kernel, seed):
        program = get_kernel(existing_kernel(kernel)).program
        shuffled = rebuilt(program, seed=seed)
        assert program_fingerprint(shuffled) == program_fingerprint(program)


class TestContentSensitivity:
    def perturbed_dependence_program(self, program: AffineProgram, dep_index: int):
        """The same program with one dependence function offset by +1 in its
        last coordinate — a genuinely different data flow."""
        dependences = list(program.dependences)
        dep = dependences[dep_index]
        function = dep.function
        last = function.exprs[-1]
        bumped = LinExpr(dict(last.coeffs), last.const + 1)
        dependences[dep_index] = dataclasses.replace(
            dep,
            function=AffineFunction(
                function.domain_space, function.target_tuple, (*function.exprs[:-1], bumped)
            ),
        )
        return AffineProgram(
            program.name, program.params, program.arrays.values(),
            program.statements.values(), dependences,
        )

    @pytest.mark.parametrize("kernel", ["gemm", "durbin"])
    def test_perturbed_dependence_changes_fingerprint(self, kernel):
        program = get_kernel(existing_kernel(kernel)).program
        for dep_index in range(len(program.dependences)):
            perturbed = self.perturbed_dependence_program(program, dep_index)
            assert program_fingerprint(perturbed) != program_fingerprint(program), (
                f"bumping dependence {dep_index} of {kernel} must change the "
                "fingerprint"
            )

    def test_renamed_statement_changes_fingerprint(self):
        program = get_kernel("gemm").program
        statements = [
            dataclasses.replace(statement, name=f"renamed_{statement.name}")
            for statement in program.statements.values()
        ]
        dependences = [
            dataclasses.replace(
                dep,
                source=f"renamed_{dep.source}" if dep.source in program.statements else dep.source,
                sink=f"renamed_{dep.sink}",
            )
            for dep in program.dependences
        ]
        renamed = AffineProgram(
            program.name, program.params, program.arrays.values(), statements, dependences
        )
        assert program_fingerprint(renamed) != program_fingerprint(program)

    def test_distinct_kernels_never_collide(self):
        fingerprints = {}
        for name in kernel_names():
            fingerprints[name] = program_fingerprint(get_kernel(name).program)
        assert len(set(fingerprints.values())) == len(fingerprints)


class TestGoldenFingerprints:
    def test_table_covers_every_kernel(self):
        assert sorted(GOLDEN_KERNEL_FINGERPRINTS) == sorted(kernel_names())

    @pytest.mark.parametrize("kernel", sorted(GOLDEN_KERNEL_FINGERPRINTS))
    def test_kernel_fingerprint_is_pinned(self, kernel):
        program = get_kernel(kernel).program
        assert program_fingerprint(program) == GOLDEN_KERNEL_FINGERPRINTS[kernel]
