"""Gamma function: the standard library's math.gamma, importable as oscfract.specfun.gamma."""

from math import gamma  # noqa: F401
