"""Deterministic federated-learning simulation for DER forecasting.

The package trains short-horizon forecasters for distributed energy
resources (loads, PV, EVs, HVAC) across privacy-separated clients. It
provides global weighted averaging, two clustering strategies (periodic
hierarchical clustering on weight deltas and iterative cluster
self-selection), per-client fine-tuning, Gaussian update noising with norm
clipping, exact communication metering, a synthetic non-IID population
generator, CSV ingestion, and a config-driven CLI. Every code path is
deterministic given the configured seed.
"""

__version__ = "0.1.0"
