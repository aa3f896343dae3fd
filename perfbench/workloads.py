"""Workloads: their graphs, their ops, and the reference answer of every op.

The instance lists live in workloads.json; references recorded for fixed
instances live in references.json (written by record.py).  genpos is
always reached through module attributes at call time, so a Tracer
installed later sees every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
RECORDED = json.loads((HERE / "references.json").read_text(encoding="utf-8"))["references"]

# Above this verify_cost the witness must equal a known reference witness
# instead of being checked with is_variant_set.
VERIFY_CAP = 2_000_000


@dataclass
class Op:
    """One checked call: run() is timed, check(result) runs untimed and
    returns None when the result is correct, else what was wrong."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def make_graph(gp, spec: str, seed: int):
    """Build the graph a spec names (see the notes in workloads.json)."""
    spec = spec.replace("$seed", str(seed))
    kind, _, rest = spec.partition(":")
    fam = gp.families
    if kind == "random_tree":
        n, s = rest.split(",")
        return fam.random_tree(int(n), int(s))
    if kind == "random_connected":
        n, p, s = rest.split(",")
        return fam.random_connected(int(n), float(p), int(s))
    if kind == "cartesian":
        a, b = (fam.generate(fam.FamilySpec.parse(x))[0] for x in rest.split("|"))
        return fam.product(a, b, "cartesian")
    return fam.generate(fam.FamilySpec.parse(spec))[0]


def leaves(G) -> tuple:
    return tuple(v for v in range(G.n) if len(G.adj[v]) == 1)


def verify_cost(G, witness) -> int:
    """The rough step count of is_variant_set(G, D, witness, variant)."""
    return G.n * G.n * max(1, len(witness))


def closed_form(gp, spec: str, G, variant: str):
    """(value, witness or None, source) where a law fixes the answer, else
    None.  The witness is given only where the law also fixes it."""
    if G.m == G.n - 1:
        leaf = leaves(G)
        witness = leaf if variant in ("total", "outer") else None
        return len(leaf), witness, "tree: all four values equal the leaf count"
    if spec.startswith("cartesian:") and variant == "total":
        return 0, (), "Cartesian product: total = 0"
    if spec.startswith("cartesian:") and variant == "outer":
        factors = [make_graph(gp, f, 0) for f in spec.partition(":")[2].split("|")]
        value = min(gp.position.brute_force(F, "outer").value for F in factors)
        return value, None, "Cartesian product: outer = min of the factors' outer values"
    return None


class Checker:
    """Reference answers and witness checks, cached for the whole run.

    Sources, in order: a value recorded in references.json; brute_force
    (or solve, when brute_force is the op under test) for n <= 18; a
    closed form (see closed_form).
    """

    def __init__(self, gp):
        self.gp = gp
        self._refs: dict = {}
        self._dist: dict = {}
        self._verdicts: dict = {}

    def reference(self, key: str, G, variant: str, oracle: str):
        cache_key = (key, oracle)
        if cache_key not in self._refs:
            self._refs[cache_key] = self._reference(key, G, variant, oracle)
        return self._refs[cache_key]

    def _reference(self, key, G, variant, oracle):
        rec = RECORDED.get(key)
        if rec is not None:
            witness = rec["witness"]
            return rec["value"], None if witness is None else tuple(witness), rec["source"]
        if G.n <= 18:
            cert = getattr(self.gp.position, oracle)(G, variant)
            return cert.value, tuple(cert.witness), oracle
        law = closed_form(self.gp, key.rpartition("|")[0], G, variant)
        if law is not None:
            value, witness, why = law
            return value, witness, f"closed form ({why})"
        raise LookupError(f"no reference answer for {key}")

    def check_answer(self, key, G, variant, value, witness, oracle="brute_force"):
        """None when (value, witness) matches the reference and the
        witness satisfies the variant, else a description of the mismatch."""
        ref_value, ref_witness, source = self.reference(key, G, variant, oracle)
        if value != ref_value:
            return f"value {value}, expected {ref_value} ({source})"
        if ref_witness is not None and witness != ref_witness:
            return f"witness {list(witness)}, expected {list(ref_witness)} ({source})"
        if verify_cost(G, witness) > VERIFY_CAP:
            if ref_witness is None:
                return f"witness of {key} too large to verify and no reference witness"
            return None
        verdict_key = (key, witness)
        if verdict_key not in self._verdicts:
            self._verdicts[verdict_key] = self._verify(key, G, variant, witness)
        return self._verdicts[verdict_key]

    def _verify(self, key, G, variant, witness):
        gp = self.gp
        D = self._dist.get(key.rpartition("|")[0])
        if D is None:
            D = self._dist[key.rpartition("|")[0]] = gp.metric.all_pairs_distances(G)
        X = gp.graphs.VertexSet(G.n, witness)
        if not gp.position.is_variant_set(G, D, X, variant):
            return f"witness {list(witness)} is not a {variant} set"
        return None


def _certificate_op(gp, checker, call, spec, G, variant, seed):
    key = f"{spec.replace('$seed', str(seed))}|{variant}"
    oracle = "solve" if call == "brute_force" else "brute_force"

    def run():
        return getattr(gp.position, call)(G, variant)

    def check(cert):
        return checker.check_answer(key, G, variant, cert.value, tuple(cert.witness), oracle)

    return Op(f"{call} {key}", run, check)


def certificate_ops(gp, checker, call, entries, seed):
    ops = []
    for entry in entries:
        G = make_graph(gp, entry["graph"], seed)
        for variant in entry["variants"]:
            ops.append(_certificate_op(gp, checker, call, entry["graph"], G, variant, seed))
    return ops


# The grid of laws.run_suite("all", seed), one op per check call.
_STRUCTURAL_NAMED = (
    "path:5", "cycle:4", "cycle:5", "cycle:6", "complete:4", "complete_bipartite:2,3",
    "star:4", "gm_join:5", "theta:2,2,3", "chain_cycles:2,4",
)
_PRODUCT_PAIRS = tuple(
    (f"complete:{a}", f"complete:{b}") for a in range(2, 6) for b in range(a, 6)
) + (
    ("complete:3", "path:3"), ("path:3", "path:3"), ("complete:3", "complete:6"),
    ("complete:2", "path:4"), ("complete:3", "cycle:4"), ("path:3", "cycle:5"),
)


def law_grid(seed: int):
    """(check function name, instance name, graph specs) for every op."""
    grid = [("check_structural", s, (s,)) for s in _STRUCTURAL_NAMED]
    grid += [
        ("check_structural", f"random:{seed * 1000 + i}", (f"random_connected:8,0.35,{seed * 1000 + i}",))
        for i in range(60)
    ]
    sufficient = [f"cycle:{n}" for n in range(6, 13)] + [f"gm_join:{m}" for m in range(5, 10)]
    sufficient += ["chain_cycles:1,6", "chain_cycles:2,6", "chain_cycles:1,7", "chain_cycles:2,7"]
    sufficient += ["theta:3,3,3", "theta:2,4,4", "theta:3,4,5"]
    sufficient += [f"random_tree:{3 + i % 9},{seed * 500 + i}" for i in range(10)]
    grid += [("check_sufficient", s, (s,)) for s in sufficient]
    grid += [("check_products", f"{a} x {b}", (a, b)) for a, b in _PRODUCT_PAIRS]
    grid.append(("check_families", "families", ()))
    return grid


def _law_op(gp, fn, name, graphs):
    def run():
        return getattr(gp.laws, fn)(*graphs)

    def check(reports):
        if not reports:
            return "no law reports"
        bad = [r for r in reports if not r.passed]
        if bad:
            return f"{len(bad)} law(s) failed, first {bad[0].law} @ {bad[0].instance}: {bad[0].actual}"
        return None

    return Op(f"{fn} {name}", run, check)


def _format_graph(G) -> str:
    return "".join([f"{G.n} {G.m}\n"] + [f"{u} {v}\n" for u, v in G.edges()])


def _parse_graph_edges(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    return {tuple(map(int, ln.split())) for ln in lines[1:]}


def cli_env() -> dict:
    """The environment for a child that imports genpos from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_op(gp, checker, spec, G, path, command, seed, workdir, tracer):
    key_base = spec.replace("$seed", str(seed))
    argv = list(command) + ["-i", str(path)]
    env = cli_env()
    if tracer is None:
        cmd = [sys.executable, "-m", "genpos.cli"] + argv
    else:
        stats = workdir / "trace-stats.json"
        cmd = [sys.executable, str(HERE / "layers.py"), str(stats)] + argv

    def run():
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env)
        if tracer is not None and stats.exists():
            tracer.merge(json.loads(stats.read_text(encoding="utf-8")))
            stats.unlink()
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.stdout

    def check(out):
        try:
            if command[0] == "srg":
                want = set(gp.srg.strong_resolving_graph(G).edges())
                got = _parse_graph_edges(out)
                return None if got == want else f"srg edges differ ({len(got)} vs {len(want)})"
            if command[:3] == ["compute", "--invariant", "all"]:
                values = json.loads(out)
                for variant in ("gp", "total", "outer", "dual"):
                    ref = checker.reference(f"{key_base}|{variant}", G, variant, "brute_force")[0]
                    if values.get(variant) != ref:
                        return f"{variant} = {values.get(variant)}, expected {ref} (brute_force)"
                return None
            if "--json" in command:
                data = json.loads(out)
                value, witness = data["value"], tuple(data["witness"])
            else:
                fields = dict(ln.split(" = ", 1) for ln in out.splitlines() if " = " in ln)
                value, witness = int(fields[command[2]]), tuple(map(int, fields["witness"].split()))
        except (ValueError, KeyError, IndexError) as exc:
            return f"unparsable output ({exc}): {out[:120]!r}"
        variant = command[2]
        oracle = "solve" if command[0] == "oracle" else "brute_force"
        return checker.check_answer(f"{key_base}|{variant}", G, variant, value, witness, oracle)

    return Op(f"cli {' '.join(command)} {key_base}", run, check)


def build(gp, workload: str, seed: int, checker: Checker, workdir: Path, tracer=None):
    """The workload's ops (graphs built, graph files written) and its probes."""
    spec = SPEC["workloads"][workload]
    if workload == "verify":
        ops = []
        for fn, name, specs in law_grid(seed):
            graphs = [make_graph(gp, s, seed) for s in specs]
            ops.append(_law_op(gp, fn, name, graphs))
        for call in ("brute_force", "solve"):
            ops += certificate_ops(gp, checker, call, spec["oracle"], seed)
        return ops, []
    if workload == "cli":
        ops = []
        workdir.mkdir(parents=True, exist_ok=True)
        for i, gspec in enumerate(spec["graphs"]):
            G = make_graph(gp, gspec, seed)
            path = workdir / f"graph{i}.txt"
            path.write_text(_format_graph(G), encoding="utf-8")
            for command in spec["commands"]:
                ops.append(_cli_op(gp, checker, gspec, G, path, command, seed, workdir, tracer))
        return ops, []
    ops = certificate_ops(gp, checker, "solve", spec["solve"], seed)
    return ops, spec.get("probes", [])
