"""Scenario benchmark of the reproduction; run ``perfbench/run.py``."""
