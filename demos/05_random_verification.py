"""Seeded randomized verification: engine vs closed-form predictions.

Generates hypothesis-satisfying instances of each supported class,
computes exact invariants, and confirms the formulas on every one.  The
same campaigns are available from the command line, e.g.

    eil verify --class UnicyclicAttached --count 50 --cycle 3..5 \
        --extra 1..3 --weights 2..4 --seed 42

Run:  python3 demos/05_random_verification.py
"""

import time

from edgeideals import GraphClassTag
from edgeideals.cli import CampaignConfig, run_campaign

CAMPAIGNS = [
    CampaignConfig(GraphClassTag.ROOTED_FOREST, 10, (3, 5), (4, 7), (2, 4), seed=7),
    CampaignConfig(GraphClassTag.ORIENTED_CYCLE, 10, (3, 6), (0, 0), (2, 3), seed=1),
    CampaignConfig(GraphClassTag.UNICYCLIC_ATTACHED, 10, (3, 5), (1, 3), (2, 4), seed=42),
    CampaignConfig(GraphClassTag.UNICYCLIC_GENERAL, 10, (3, 4), (2, 4), (2, 3), seed=3),
]

for config in CAMPAIGNS:
    started = time.monotonic()
    report = run_campaign(config)
    print(
        f"{config.class_tag.value:<18} {report.pass_count}/{config.instance_count} pass"
        f"  ({time.monotonic() - started:.2f}s)"
    )
    sample = report.reports[0]
    assert sample.computed is not None
    print(
        f"  e.g. |V| = {len(sample.graph.vertices)}, |E| = {len(sample.graph.edges)}:"
        f" reg = {sample.computed.reg} = Σw - |E| + 1 = {sample.prediction.reg_pred},"
        f" pd = {sample.computed.pd} = |E| - 1 = {sample.prediction.pd_pred}"
    )
