"""Scenario configurations of the benchmark workloads.

Every workload uses the shipped five-boiler fleet; the seed goes to
``ident.seed``, which orders the excitation levels and so fixes the
fitted models.  Seed 2214 is the CLI's default run.
"""

from dataclasses import replace

from steamfleet.config import default_config


def default(seed):
    """The run users make with ``steamfleet run --default-scenario``."""
    cfg = default_config()
    return replace(cfg, ident=replace(cfg.ident, seed=seed))


# Four demand levels held one hour each.  The forced re-solve cadence is
# longer than the run, so dispatch re-solves only on the three moves.
LONG_HOLD_DEMAND = ((0.0, 2.0), (3600.0, 2.6), (7200.0, 3.4), (10800.0, 2.4))
LONG_HOLD_SECONDS = 4 * 3600.0


def long_hold(seed):
    """Four hours of held demand: plant and MPC dominate the loop."""
    cfg = default(seed)
    n_slow = round(LONG_HOLD_SECONDS / (cfg.timing.nu * cfg.timing.tau))
    return replace(
        cfg,
        timing=replace(cfg.timing, duration=LONG_HOLD_SECONDS),
        share=replace(cfg.share, period_slow_steps=n_slow + 1),
        demand=LONG_HOLD_DEMAND)


WORKLOADS = {"default": default, "long_hold": long_hold}
