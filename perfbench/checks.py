"""Correctness gate: byte identity with ``serial`` and ``SnarkVerifier``.

Proofs are deterministic (Fiat–Shamir), so every proof of one witness
must serialize to the same bytes.  Each run

* byte-compares every timed proof with the first proof of its witness
  (:class:`ProofLedger`), and
* after the timed interval, checks the first proof of every witness
  with ``SnarkVerifier.verify`` and byte-compares it, for a seeded
  sample of witnesses, with the proof the ``serial`` backend produces
  (:func:`check_witnesses`).

Together these cover every timed proof: each one equals a verified
proof byte for byte.  Verification runs once per distinct witness, not
per timed proof, because it hashes with a pure-Python SHA-256 (about
50 ms per proof at 256 gates, 85 ms at 4096 gates).
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Tuple

from repro.core import serialize_proof
from repro.execution import resolve_backend

from .inputs import FIELD

#: Witnesses per run whose proof is compared with serial.
SAMPLE_SIZE = 8


class ProofLedger:
    """First proof per witness, and a count of later proofs that differ."""

    def __init__(self):
        self.first: Dict[Hashable, object] = {}
        self.first_bytes: Dict[Hashable, bytes] = {}
        self.checked = 0
        self.mismatched = 0
        #: Timed proofs per witness, so a failed sample check can be
        #: charged to every proof of that witness.
        self.uses: Dict[Hashable, int] = {}

    def record(self, key: Hashable, proof) -> bool:
        """Compare ``proof`` with the first proof of ``key``; True if equal."""
        blob = serialize_proof(proof, FIELD)
        self.uses[key] = self.uses.get(key, 0) + 1
        self.checked += 1
        known = self.first_bytes.get(key)
        if known is None:
            self.first[key] = proof
            self.first_bytes[key] = blob
            return True
        if blob != known:
            self.mismatched += 1
            return False
        return True


def check_witnesses(spec, tasks_by_key: dict, ledger: ProofLedger, seed: int,
                    sample_size: int = SAMPLE_SIZE) -> Tuple[List[Hashable], int]:
    """Check the first proof of every witness of ``tasks_by_key`` in ``ledger``.

    Every such first proof is verified; a seeded sample of them is also
    byte-compared with ``serial``.  Returns the keys that fail either
    check, and the sample size.
    """
    keys = sorted((key for key in ledger.first if key in tasks_by_key), key=repr)
    verifier = spec.build_verifier()
    bad = {key for key in keys
           if not verifier.verify(ledger.first[key],
                                  tasks_by_key[key].public_values)}
    sample = random.Random(f"perfbench/sample/{seed}").sample(
        keys, min(sample_size, len(keys)))
    if sample:
        oracle, _stats = resolve_backend("serial").prove_tasks(
            spec, [tasks_by_key[key] for key in sample])
        bad.update(key for key, reference in zip(sample, oracle)
                   if serialize_proof(reference, FIELD) != ledger.first_bytes[key])
    return sorted(bad, key=repr), len(sample)
