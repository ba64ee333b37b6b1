"""Set-up probe, run in a fresh interpreter by run.py.

Times what `aprior run` does before its first trial: import `aprior.cli`,
load and seal the KB file, load the scenario file, and create the first
AgentState with its measurement count resolved. Without a scenario it stops
after the KB, as `aprior sweep` does. A host-speed gauge (calib.py) runs
meanwhile. Prints one JSON line of seconds, with the mean reference pass.

usage: probe.py SRC_DIR KB_JSON [SCENARIO_JSON CONFIG_JSON]
"""
import json
import sys
import time

import calib

sys.path.insert(0, sys.argv[1])
gauge = calib.Gauge().start()
t0 = time.perf_counter()
import aprior.cli  # noqa: E402,F401

t_import = time.perf_counter()
from aprior.kb import load_kb_file  # noqa: E402

kb = load_kb_file(sys.argv[2])
t_kb = time.perf_counter()
out = {"import_s": t_import - t0, "kb_s": t_kb - t_import}
if len(sys.argv) > 3:
    from aprior.agent import AgentState, planned_n
    from aprior.decision import MeasurementEconomy
    from aprior.perception import ChannelParams
    from aprior.world import load_scenario_file

    scenario = load_scenario_file(sys.argv[3], kb)
    t_scenario = time.perf_counter()
    cfg = json.loads(sys.argv[4])
    state = AgentState(
        kb=kb,
        params=ChannelParams(epsilon=cfg["epsilon"], alphabet=kb.alphabet, dim=kb.dim),
        econ=MeasurementEconomy(value=cfg["value"], cost=cfg["cost"], phi0=cfg["phi0"],
                                n_max=cfg["n_max"]),
        seed=cfg["seed"],
        fixed_n=cfg["fixed_n"],
    )
    out["n"] = planned_n(state)
    t_end = time.perf_counter()
    out.update(scenario_s=t_scenario - t_kb, planned_n_s=t_end - t_scenario)
else:
    t_end = t_kb
gauge.stop()
out["setup_s"] = t_end - t0
out["ref_s"] = gauge.pass_s(t0, t_end)
print(json.dumps(out))
