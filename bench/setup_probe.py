"""Set-up cost in a fresh process: import ``cellsched.cli``, decode the configs.

Usage: ``python3 bench/setup_probe.py CONFIGS.json`` with the package on
``PYTHONPATH``.  CONFIGS.json holds a list of config mappings; each goes
through ``experiment_from_dict``, as the CLI's config loader does.
"""

import json
import sys

import cellsched.cli  # noqa: F401  (the import is what is measured)
from cellsched.experiments import experiment_from_dict


def main(path: str) -> int:
    with open(path) as handle:
        mappings = json.load(handle)
    for mapping in mappings:
        experiment_from_dict(mapping)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
