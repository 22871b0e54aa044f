"""Seeded randomized stimulus for simulation and equivalence checks.

:mod:`repro.testing.stimulus` draws the per-cycle input vectors that the
fault campaign, the batched flow-equivalence check and the test suite
drive circuits with.  The cross-backend differential harness built on it
lives with the tests (``tests/differential.py``).
"""

from repro.testing.stimulus import DEFAULT_SEED, data_inputs, random_stimulus

__all__ = [
    "DEFAULT_SEED",
    "data_inputs",
    "random_stimulus",
]
