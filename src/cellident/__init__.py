"""Parameter identification for a reduced-order lithium-ion cell model.

Simulates terminal voltage from an applied current profile and identifies
the dynamic parameters (k_p, k_n, D_e) from measured series via Bayesian
optimization, benchmarked against gradient descent and particle swarm
optimization under a fixed evaluation budget.
"""
