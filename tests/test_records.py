"""The library's records: frozen, and compared by value where the code relies on it."""
import pytest

from aprior.audit import AuditReport, CheckResult
from aprior.decision import MeasurementEconomy
from aprior.kb import build_kb
from aprior.perception import FULL, ChannelParams, RecognitionOutcome
from aprior.world import load_scenario
from conftest import mixed_scenario_doc, three_node_doc


def records() -> dict:
    """Record name -> (a record of that class, one of its fields), built afresh."""
    kb = build_kb(three_node_doc())
    scenario = load_scenario(mixed_scenario_doc(), kb)
    check = CheckResult("closure", True)
    return {
        "ChannelParams": (ChannelParams(0.3, 3, 2), "epsilon"),
        "MeasurementEconomy": (MeasurementEconomy(1.0, 0.02, 0.0, 15), "cost"),
        "RecognitionOutcome": (RecognitionOutcome(11, 2, FULL), "node"),
        "Predicate": (kb.objects[11].predicate, "constraints"),
        "InternalObject": (kb.objects[11], "parent"),
        "Program": (kb.programs[1], "reflex_threshold"),
        "KnowledgeBase": (kb, "canonical"),
        "Stimulus": (scenario.entries[0], "truth"),
        "Scenario": (scenario, "entries"),
        "CheckResult": (check, "passed"),
        "AuditReport": (AuditReport((check,), 1, 1, 1000, 0, 0), "checks"),
    }


# memo keys or compared values: each must hash as well as compare by value
HASHED = {"Stimulus", "Program", "RecognitionOutcome"}


@pytest.mark.parametrize("name", list(records()))
def test_a_record_is_frozen_and_compares_by_value(name):
    record, field = records()[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    # two builds from the same documents; two loads of the mixed scenario among them
    twin = records()[name][0]
    assert twin is not record and twin == record and not twin != record
    if name in HASHED:
        assert hash(twin) == hash(record)
        assert len({twin, record}) == 1
