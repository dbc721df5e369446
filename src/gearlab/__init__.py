"""gearlab: isospectral gear graphs, random-walk conjugation, zeta equivalence."""

__version__ = "0.1.0"
