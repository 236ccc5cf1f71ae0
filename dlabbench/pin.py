"""Regenerate pins.json: the seed-0 result values of every workload.

    python3 dlabbench/pin.py

Run it only on the commit whose outputs the benchmark should hold later
commits to; each workload's commands run once at --threads 1, each workload
in a fresh process.
"""

import json

import run
import workloads


def main():
    pins = {}
    for name in workloads.WORKLOADS:
        cmds = workloads.commands(name, 0)
        doc = run.run_pass(cmds, 1)
        pins[name] = []
        for cmd, res in zip(cmds, doc["commands"]):
            if res["code"] != 0:
                raise SystemExit("%s exited %s" % (cmd, res["code"]))
            values = workloads.key_values(cmd, res["stdout"])
            pins[name].append(workloads.pinned_view(values))
    with open(workloads.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
