"""Set-up probe: a fresh interpreter that builds one workload's inputs.

    python3 perfbench/setup_child.py WORKLOAD SEED

run.py times this process from start to exit as the workload's set-up; it
needs the bgkit sources on PYTHONPATH.
"""

import sys

import inputs

inputs.BUILDERS[sys.argv[1]](int(sys.argv[2]))
