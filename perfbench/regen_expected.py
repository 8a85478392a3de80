"""Regenerate the committed expected answers under ``expected/``.

    python3 perfbench/regen_expected.py [workload ...]

corpus-check stores the minimal and maximal trap spaces and the steady
states from the exhaustive ``dynamics`` oracle, never from the solver under
test. nk-min stores the ``spaces`` the CLI prints at this commit, after
checking that each is a trap space and that no two are comparable; a query
that exhausts its budget is stored as null. dense-export stores the SHA-256
of each ASP and ILP text, which must stay byte-identical.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from trapspaces import bnet, dynamics, randgen  # noqa: E402

import workloads  # noqa: E402
from run import WORK_DIR, call_cli  # noqa: E402


def corpus_entry(net: workloads.Network) -> dict:
    model = randgen.generate(net.cfg)
    oracle_min = dynamics.brute_force_trap_spaces(model, "min")
    oracle_max = dynamics.brute_force_trap_spaces(model, "max")
    return {
        "min": sorted(map(str, oracle_min)),
        "max": sorted(map(str, oracle_max)),
        "steady": sorted(str(p) for p in oracle_min if p.is_state),
    }


def cli_entry(workload: str, queries: list, path: str) -> dict:
    entry = {}
    for q in queries:
        rc, stdout, stderr, _ = call_cli(q.argv)
        if workload == "nk-min":
            if rc == 3:
                entry[q.label] = None
                continue
            if rc != 0:
                raise SystemExit(f"{q.qid}: exit {rc}: {stderr}")
            net = bnet.load_network(path)
            spaces = [workloads.space_pattern(net, d) for d in json.loads(stdout)["spaces"]]
            reason = workloads.structural_min_check(net, spaces)
            if reason:
                raise SystemExit(f"{q.qid}: {reason}")
            entry[q.label] = spaces
        else:
            if rc != 0:
                raise SystemExit(f"{q.qid}: exit {rc}: {stderr}")
            entry[q.label] = workloads.sha256(stdout)
    return entry


def regenerate(workload: str) -> None:
    workdir = os.path.join(WORK_DIR, f"regen-{workload}")
    nets = list({net.name: net for scale in workloads.SCALES
                 for net in workloads.networks(workload, scale)}.values())
    queries = workloads.write_inputs(workload, nets, workdir)
    out = {}
    for net in nets:
        path = os.path.join(workdir, net.name + ".bnet")
        if workload == "corpus-check":
            out[net.name] = corpus_entry(net)
        else:
            out[net.name] = cli_entry(workload, [q for q in queries if q.network == net.name],
                                      path)
        print(f"{workload} {net.name}: {json.dumps(out[net.name])[:100]}", flush=True)
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    with open(workloads.expected_path(workload), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        regenerate(name)
