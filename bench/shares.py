"""Share of op wall time spent in each layer, from a traced run's spans.

    python3 bench/shares.py bench/.work/spans-<workload>-<seed>.jsonl

Shares are of self time: a layer's span durations minus the parts their
child spans cover, over the summed ``cli.op`` root spans.  The ``cli.op``
line is therefore the CLI's own work outside every traced function
(argument parsing, dispatch).  Set-up spans are left out.
"""

from __future__ import annotations

import json
import sys

from tracing import layer_times


def shares(path) -> list[tuple[str, float]]:
    with open(path, encoding="utf-8") as fh:
        spans = [[s["op"], s["layer"], s["start"], s["end"], s["parent"]] for s in map(json.loads, fh)]
    first = next((sid for sid, s in enumerate(spans) if s[0] != "setup"), len(spans))
    total, own, _ = layer_times(spans, first)
    own["subset_select.weight_dp"] += own.pop("subset_select.weight_dp_fill", 0.0)
    return sorted(((layer, ms / total["cli.op"]) for layer, ms in own.items()), key=lambda x: -x[1])


if __name__ == "__main__":
    for layer, share in shares(sys.argv[1]):
        print(f"{layer:40s} {100 * share:6.2f} %")
