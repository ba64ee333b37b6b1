"""Deterministic simulator for agents with sealed, congenital behavior programs."""

__version__ = "0.1.0"
