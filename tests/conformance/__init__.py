"""One conformance matrix: every engine against its referee.

``cases`` describes a run as data, ``engines`` holds one adapter per
engine and the one definition of "the same run", ``lowering`` the
per-object oracles of the columnar lowering and of a churn plan, and
``test_matrix`` runs every case on every engine that takes it.
"""
