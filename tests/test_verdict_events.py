"""Every verdict event of every fixture property at default settings, pinned.

`verdict_events.json` holds, per fixture spec, the `dsltv verify` events of
its properties in declaration order, without `timeSec`.  A change that
means to keep verdicts, bounds, fragments or encodings as they are must
keep this file as it is.  To regenerate it after a deliberate change:

    PYTHONPATH=src python tests/test_verdict_events.py
"""

import collections
import json
import os

from conftest import fixture_specs

from dsltv import inheritance
from dsltv.orchestrator import verify_all

GOLDEN = os.path.join(os.path.dirname(__file__), "verdict_events.json")


def verdict_events(specs):
    out = {}
    for rel, spec in specs:
        events = []
        for name, verdict in verify_all(spec):
            if name is not None:
                event = verdict.event(name)
                del event["timeSec"]
                events.append(event)
        out[rel] = events
    return out


def test_verdict_events_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    events = verdict_events(fixture_specs())
    assert sum(map(len, events.values())) == 40
    assert sorted(events) == sorted(golden)
    for rel in golden:
        assert events[rel] == golden[rel], rel


def test_each_metamodel_is_flattened_at_most_once(monkeypatch):
    flattened = []
    real = inheritance._flatten

    def counting(mm):
        flattened.append(mm)  # keeps it alive, so its id stays its own
        return real(mm)

    monkeypatch.setattr(inheritance, "_flatten", counting)
    specs = fixture_specs()
    parsed = len(flattened)
    verdict_events(specs)
    assert max(collections.Counter(map(id, flattened)).values()) == 1
    # the parser flattened every metamodel; the pass flattens none again
    assert parsed == len(flattened) == \
        sum(len(spec.metamodels) for _, spec in specs)


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(verdict_events(fixture_specs()), fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
