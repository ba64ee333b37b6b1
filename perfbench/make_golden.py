"""Regenerate perfbench/golden.json, the sha256 of each workload's reference output.

usage: python3 perfbench/make_golden.py

The reference output of a workload is what `run.reference_output` returns:
the plain logs of the first `golden_units` units of seed GOLDEN_SEED (the
first 5 C1 episodes, the first deep-KB episode) and, for sweep_n15, the
exact-mode sweep CSV, which does not depend on the seed. Every benchmark run
checks it, whatever its own seed. Run this only when a change to the logs or
the sweep is deliberate, and say so in CHANGES.md.
"""
import json

from run import HERE, add_repo_paths, reference_output


def main() -> None:
    add_repo_paths()
    import gates
    import workloads

    golden = {}
    for name, cls in workloads.WORKLOADS.items():
        texts, failures = reference_output(cls)
        if failures:
            raise SystemExit(f"{name}: the reference output fails its checks: {failures[:3]}")
        golden[name] = gates.sha256_texts(texts)
        print(name, golden[name], flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")


if __name__ == "__main__":
    main()
