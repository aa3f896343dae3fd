"""Record reference answers for the fixed instances into references.json.

    python3 perfbench/record.py

For every fixed graph (no $seed) of the solve ops and probes in
workloads.json with more than 18 vertices, runs solve with the genpos in
src/, checks the value against a closed form where one applies and the
witness with is_variant_set where that is affordable, and writes value,
witness and source.  Instances with 18 or fewer vertices, and seed-derived
trees, get their references at run time (brute_force, tree closed form).
A solve that runs past LIMIT_S is left unrecorded.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys

import run
import workloads as wl

LIMIT_S = 120
# Recording runs once, so is_variant_set may take a few seconds per witness.
RECORD_VERIFY_CAP = 10 * wl.VERIFY_CAP


def main() -> int:
    gp = run.import_genpos()
    signal.signal(signal.SIGALRM, run._on_alarm)
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, cwd=wl.ROOT
    ).stdout.strip() or "unknown"
    refs = {}
    for spec in wl.SPEC["workloads"].values():
        for entry in spec.get("solve", []) + spec.get("probes", []):
            if "$seed" in entry["graph"]:
                continue
            G = wl.make_graph(gp, entry["graph"], 0)
            if G.n <= 18:
                continue
            D = gp.metric.all_pairs_distances(G)
            for variant in entry["variants"]:
                key = f"{entry['graph']}|{variant}"
                op = wl.Op(key, lambda: gp.position.solve(G, variant), None)
                outcome, elapsed, cert, detail = run.run_op(op, LIMIT_S)
                if outcome != "ok":
                    print(f"skip {key}: {outcome} {detail}")
                    continue
                witness = tuple(cert.witness)
                source = f"solve at {commit}"
                law = wl.closed_form(gp, entry["graph"], G, variant)
                if law is not None:
                    value, law_witness, why = law
                    if value != cert.value or law_witness not in (None, witness):
                        raise SystemExit(f"{key}: solve gives {cert.value} {witness}, {why}")
                    source = f"value by closed form ({why}); witness by solve at {commit}"
                    if law_witness is not None:
                        source = f"closed form ({why})"
                if wl.verify_cost(G, witness) <= RECORD_VERIFY_CAP:
                    if not gp.position.is_variant_set(G, D, gp.graphs.VertexSet(G.n, witness), variant):
                        raise SystemExit(f"{key}: witness {witness} is not a {variant} set")
                    source += ", witness checked with is_variant_set"
                elif law is None or law[1] is None:
                    raise SystemExit(f"{key}: witness too large to check and no closed form")
                refs[key] = {"value": cert.value, "witness": list(witness), "source": source}
                print(f"{key}: {cert.value} in {elapsed:.2f} s ({source})")
    out = {"commit": commit, "references": refs}
    (wl.HERE / "references.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
