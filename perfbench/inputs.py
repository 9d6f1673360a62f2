"""Seeded benchmark inputs: one circuit per size, many distinct witnesses.

The program only ever receives what this module builds — R1CS circuits
and witnesses from ``random_circuit`` — so the same ``--seed`` always
hands it the same inputs.  ``input_values`` keeps the circuit digest
fixed while giving every task its own witness (the paper's
one-circuit/many-witness batch shape).
"""

from __future__ import annotations

import random
from typing import List

from repro.core import ProofTask, SnarkProver, make_pcs, random_circuit
from repro.field import DEFAULT_FIELD
from repro.runtime import ProverSpec

FIELD = DEFAULT_FIELD

#: Column spot checks per opening, as in ``python -m repro prove``.
NUM_COL_CHECKS = 8

#: Private inputs of every generated circuit (``random_circuit``'s default).
NUM_INPUTS = 8


class CircuitInputs:
    """One seeded circuit and a pool of distinct witnesses for it."""

    def __init__(self, gates: int, seed: int, witnesses: int, label: str):
        self.gates = gates
        self.circuit_seed = seed
        rng = random.Random(f"perfbench/{label}/{seed}/{gates}")
        base = random_circuit(FIELD, gates, seed=seed)
        self.r1cs = base.r1cs
        self.public_indices = list(base.public_indices)
        self.tasks: List[ProofTask] = []
        for index in range(witnesses):
            variant = random_circuit(
                FIELD,
                gates,
                seed=seed,
                input_values=FIELD.rand_vector(NUM_INPUTS, rng),
            )
            if variant.r1cs.digest() != self.r1cs.digest():
                raise RuntimeError("witness variant changed the circuit digest")
            self.tasks.append(
                ProofTask(index, variant.witness, variant.public_values)
            )

    def build_spec(self) -> ProverSpec:
        """Prover/PCS/encoder construction — part of what set-up times."""
        pcs = make_pcs(FIELD, self.r1cs, num_col_checks=NUM_COL_CHECKS)
        prover = SnarkProver(self.r1cs, pcs, public_indices=self.public_indices)
        return ProverSpec.from_prover(prover)
