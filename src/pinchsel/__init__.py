"""Antenna-subset activation for waveguide-fed pinching-antenna arrays.

Builds effective channels for uniformly pinched waveguides, evaluates the
worst-user activation objective, and solves the subset-selection problem with
a phase-quantised trellis search, an exhaustive oracle and a greedy baseline,
plus a seeded Monte Carlo harness and a CLI for experiment reproduction.

The package re-exports nothing: import from its submodules, for example
``pinchsel.cli.main``, ``pinchsel.vss.vss_select`` or
``pinchsel.harness.run_sweep``.
"""
