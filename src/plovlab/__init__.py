"""Exact-arithmetic toolkit for restricted-partition incidence matrices and
polynomial volume growth of zero-entropy automorphisms."""

__version__ = "0.1.0"
