"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/probe.py WORKLOAD SEED CONFIG_DIR

Imports cubemax, cubemax.cli and cubemax.geom, writes the workload's job
configs, then prints ``ready``: the state in which the first job can start.
"""

import sys
from pathlib import Path

import cubemax  # noqa: F401
import cubemax.cli  # noqa: F401
import cubemax.geom  # noqa: F401

import workloads

workloads.write_configs(workloads.cycle_jobs(sys.argv[1], int(sys.argv[2]), 0), Path(sys.argv[3]))
print("ready", flush=True)
