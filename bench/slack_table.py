"""Regenerate slack_table.json, the repair workload's admitted slack per
(center instance, eps), from supcenter's admissible_slack.

    python3 bench/slack_table.py

The repair workload reads the table so that its timed phase does not repeat
the modulus bisection behind each slack (about 45 s over the corpus).
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from supcenter import construct, load_corpus  # noqa: E402
from workloads import BUDGETS, SLACK_TABLE  # noqa: E402


def main() -> None:
    slack = {inst.name: {repr(eps): construct.admissible_slack(inst.family, inst.subspace, eps).value
                         for eps in BUDGETS}
             for inst in load_corpus("center")}
    SLACK_TABLE.write_text(json.dumps({"budgets": list(BUDGETS), "slack": slack}, indent=2,
                                      sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
