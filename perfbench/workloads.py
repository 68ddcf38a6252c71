"""The three workloads: how a job runs, what it returns, how it is checked.

A workload object has
  run(job)            -> (busy seconds, result): only calls into latglue
                         (or the ``latglue`` subprocess) are timed;
  check(job, result)  -> list of failure messages (benchmark-side code);
  canonical(result)   -> JSON text whose digest is pinned for the default seed
                         (census and isometry; golden checks every output);
  props(job, result)  -> the input/output properties the run records.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from inputs import count_vectors_of_norm, det_int

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(cmd):
    """Run one subprocess to completion; (wall seconds, CompletedProcess)."""
    start = perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
    )
    return perf_counter() - start, proc


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def cli_command(argv):
    return [sys.executable, "-m", "latglue.cli", *argv]


# -- golden ------------------------------------------------------------------


class Golden:
    """README commands as fresh ``python -m latglue.cli`` processes."""

    in_process = False

    def __init__(self, expected):
        self.expected = expected["golden"]
        self.trace_to = None  # spans file: set to run the next job under the tracer

    def run(self, job):
        if self.trace_to is None:
            cmd = cli_command(job["argv"])
        else:
            cmd = [sys.executable, str(HERE / "launch.py"), str(self.trace_to), "--", *job["argv"]]
        wall, proc = run_child(cmd)
        return wall, {"rc": proc.returncode, "stdout": proc.stdout}

    def check(self, job, result):
        return check_cli_output(self.expected, job["argv"], result)

    def props(self, job, result):
        return {"command": " ".join(job["argv"])}


def check_cli_output(expected, argv, result):
    key = " ".join(argv)
    want = expected.get(key)
    failures = []
    if want is None:
        return [f"{key}: no recorded output"]
    if result["rc"] != want["rc"]:
        failures.append(f"{key}: exit code {result['rc']}, expected {want['rc']}")
    if sha256(result["stdout"]) != want["stdout_sha256"]:
        failures.append(f"{key}: stdout differs from the recorded output")
    if argv[0] == "verify-table":
        text = result["stdout"].decode("utf-8", "replace")
        if "--format" in argv:
            status = text.rstrip().rsplit("overall: ", 1)[-1]
        else:
            try:
                status = json.loads(text).get("status")
            except json.JSONDecodeError:
                status = None
        if status != want["status"] or result["rc"] != 0:
            failures.append(f"{key}: status {status!r} with exit {result['rc']}")
    return failures


# -- census ------------------------------------------------------------------


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class Census:
    """Isotropic subgroups and overlattices of random even lattices (in-process)."""

    in_process = True

    def __init__(self, expected):
        from latglue import discforms, isometries, lattices

        self.discforms, self.isometries, self.lattices = discforms, isometries, lattices

    def run(self, job):
        D, I = self.discforms, self.isometries
        gram = job["gram"]
        n = len(gram)
        minus_one = tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))
        start = perf_counter()
        lattice = self.lattices.IntegerLattice(gram)
        group = D.discriminant_group(lattice)
        o_l = I.orthogonal_group(lattice).elements if job["definite"] else ()
        subgroups = []
        for order in divisors(abs(det_int(gram))):
            for h in D.enumerate_isotropic_subgroups(group, order):
                over, _basis = D.overlattice_with_basis(h)
                subgroups.append({
                    "order": order,
                    "over_gram": [list(row) for row in over.gram],
                    "minus_one_extends": D.extends_to_overlattice(minus_one, h),
                    "stabilizer": sum(
                        1 for g in o_l if D.extends_to_overlattice(g.matrix, h)
                    ),
                })
        busy = perf_counter() - start
        return busy, {
            "orders": list(group.orders),
            "o_l": len(o_l),
            "subgroups": subgroups,
        }

    def check(self, job, result):
        gram = job["gram"]
        d = det_int(gram)
        failures = []
        size = 1
        for order in result["orders"]:
            size *= order
        if size != abs(d):
            failures.append(f"|A_L| = {size} but |det| = {abs(d)}")
        trivial = [s for s in result["subgroups"] if s["order"] == 1]
        if len(trivial) != 1 or trivial[0]["over_gram"] != [list(r) for r in gram]:
            failures.append("the trivial subgroup must occur once and give L itself")
        for s in result["subgroups"]:
            over = s["over_gram"]
            if det_int(over) * s["order"] ** 2 != d:
                failures.append(f"det(over) * |H|^2 != det(L) for |H| = {s['order']}")
            if any(over[i][i] % 2 for i in range(len(over))):
                failures.append(f"overlattice for |H| = {s['order']} is not even")
            if not s["minus_one_extends"]:
                failures.append(f"-1 does not extend across |H| = {s['order']}")
            if job["definite"]:
                stab, o_l = s["stabilizer"], result["o_l"]
                if stab < 2 or o_l % stab:
                    failures.append(f"stabilizer {stab} is not a subgroup order of |O(L)| = {o_l}")
        return failures

    def canonical(self, result):
        return json.dumps(result, sort_keys=True)

    def props(self, job, result):
        return {
            "rank": len(job["gram"]),
            "definite": job["definite"],
            "abs_det": abs(det_int(job["gram"])),
            "A_L_factors": len(result["orders"]),
            "isotropic_subgroups": len(result["subgroups"]),
            "O_L": result["o_l"] or None,
        }


# -- isometry ----------------------------------------------------------------


class Isometry:
    """O(L), lattice-info and orbit reports on random definite lattices (in-process)."""

    in_process = True

    def __init__(self, expected):
        from latglue import isometries, lattices, report

        self.isometries, self.lattices, self.report = isometries, lattices, report

    def run(self, job):
        start = perf_counter()
        lattice = self.lattices.IntegerLattice(job["gram"])
        group = self.isometries.orthogonal_group(lattice)
        info = self.report.lattice_info_report(lattice)
        orbit = self.report.orbit_report(job["norm"], lattice)
        busy = perf_counter() - start
        return busy, {
            "elements": [[list(row) for row in g.matrix] for g in group.elements],
            "info": info,
            "orbits": orbit,
        }

    def check(self, job, result):
        gram = [list(row) for row in job["gram"]]
        n, norm = len(gram), job["norm"]
        failures = []
        elements = result["elements"]
        for m in elements:
            image = [[sum(m[k][i] * gram[k][l] * m[l][j] for k in range(n) for l in range(n))
                      for j in range(n)] for i in range(n)]
            if image != gram:
                failures.append(f"group element {m} does not preserve the Gram matrix")
                break
        size = len(elements)
        if len({json.dumps(m) for m in elements}) != size:
            failures.append("O(L) lists an element twice")
        info, orbit = result["info"], result["orbits"]
        if info.get("isometry_group_order") != size or orbit["group_order"] != size:
            failures.append("reports disagree with |O(L)|")
        if info["determinant"] != det_int(gram) or info["rank"] != n:
            failures.append("lattice-info reports the wrong rank or determinant")
        members = [tuple(v) for o in orbit["orbits"] for v in o["members"]]
        total = sum(o["size"] for o in orbit["orbits"])
        if total != count_vectors_of_norm(gram, norm) or len(set(members)) != total:
            failures.append(f"orbit sizes do not add up to the norm-{norm} vectors")
        for o in orbit["orbits"]:
            if o["size"] != len(o["members"]) or size % o["size"]:
                failures.append(f"orbit size {o['size']} does not divide |O(L)| = {size}")
        for v in members:
            if sum(gram[i][j] * v[i] * v[j] for i in range(n) for j in range(n)) != norm:
                failures.append(f"orbit member {list(v)} has the wrong norm")
                break
        return failures

    def canonical(self, result):
        return json.dumps(result, sort_keys=True)

    def props(self, job, result):
        return {
            "rank": len(job["gram"]),
            "abs_det": abs(det_int(job["gram"])),
            "O_L": len(result["elements"]),
            "norm": job["norm"],
            "vectors": sum(o["size"] for o in result["orbits"]["orbits"]),
            "orbits": result["orbits"]["orbit_count"],
        }


WORKLOADS = {"golden": Golden, "census": Census, "isometry": Isometry}
