"""Stochastic gradient / heavy-ball momentum convergence laboratory."""

from . import bounds, estimators, geometry, harness, optimizers, problems, schedules

__all__ = [
    "bounds", "cli", "estimators", "geometry", "harness", "optimizers",
    "problems", "schedules",
]
