"""Compute a workload's expected outputs in a process of its own.

Usage: ``python perfbench/verify.py <module> <items.json> <answers.json>``

Reads a JSON list of items, calls ``<module>.expected(items)`` (a
workload module of this directory) and writes the JSON list of answers.
``common.expected_in_processes`` starts and waits for these processes;
plain subprocesses, unlike a multiprocessing pool, leave no helper
process behind.
"""

import importlib
import json
import sys

if __name__ == "__main__":
    module, items_path, answers_path = sys.argv[1:]
    with open(items_path) as fh:
        items = json.load(fh)
    answers = importlib.import_module(module).expected(items)
    with open(answers_path, "w") as fh:
        json.dump(answers, fh)
