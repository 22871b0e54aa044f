"""Fault-injection campaigns.

Two layers (see the module docstrings for the full story):

* :mod:`repro.faults.inject` — stuck-at / glitch injection on the
  handshake controller nets, detected through the flow-equivalence
  checker;
* :mod:`repro.faults.campaign` — the ``(config x perturbation x seed)``
  campaign driver emitting the ``BENCH_faults`` envelope, run on the
  grid runner :func:`repro.jobs.run_grid`.

Run a campaign from the command line with ``python -m repro.faults``.
"""

from repro.faults.campaign import (
    CAMPAIGN_COLUMNS,
    CampaignReport,
    CampaignSpec,
    campaign_cells,
    campaign_options,
    run_campaign,
)
from repro.faults.inject import (
    CONTROL_PREFIXES,
    FAULT_KINDS,
    GLITCH_PREFIXES,
    FaultSite,
    arm_glitch,
    arm_stuck,
    control_nets,
    glitch_trials,
    profile_net,
    run_detection,
    sample_control_nets,
)

__all__ = [
    "CAMPAIGN_COLUMNS", "CONTROL_PREFIXES", "CampaignReport",
    "CampaignSpec", "FAULT_KINDS", "FaultSite", "GLITCH_PREFIXES",
    "arm_glitch", "arm_stuck", "campaign_cells", "campaign_options",
    "control_nets", "glitch_trials", "profile_net", "run_campaign",
    "run_detection", "sample_control_nets",
]
