"""Ledger-free reference brackets: both products are built with plain ``@``,
so a check that reads a shared product can be compared with one built on its
own."""

from gdoa_susy.numerics import BandMatrix


def commutator(a: BandMatrix, b: BandMatrix) -> BandMatrix:
    """[a, b] = ab - ba."""
    return a @ b - b @ a


def anticommutator(a: BandMatrix, b: BandMatrix) -> BandMatrix:
    """{a, b} = ab + ba."""
    return a @ b + b @ a
