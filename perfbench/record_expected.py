"""Record the reference outputs the benchmark checks jobs against.

usage: python3 perfbench/record_expected.py

Writes perfbench/expected.json with
  golden: exit code and stdout SHA-256 of every golden command;
  pinned: per-job result digests of the first rounds of the default seed
          for census and isometry.
Run it only on a commit whose outputs are known to be right: every later
run treats a difference from this file as a failed job.
"""

from __future__ import annotations

import json
import sys

import inputs
from workloads import EXPECTED_PATH, ROOT, WORKLOADS, cli_command, run_child, sha256

DIGEST_ROUNDS = 2  # rounds of the default seed whose results are pinned


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    golden = {}
    for argv in inputs.GOLDEN_COMMANDS:
        _wall, proc = run_child(cli_command(argv))
        entry = {"rc": proc.returncode, "stdout_sha256": sha256(proc.stdout)}
        if argv[0] == "verify-table":
            # verify-table cases passes only with its allowlisted errata.
            entry["status"] = "pass-with-allowlisted" if argv[1] == "cases" else "pass"
        golden[" ".join(argv)] = entry
    pinned = {}
    for name in ("census", "isometry"):
        workload = WORKLOADS[name]({"golden": golden})
        jobs = [j for r in inputs.first_rounds(name, inputs.DEFAULT_SEED, DIGEST_ROUNDS) for j in r]
        pinned[name] = [sha256(workload.canonical(workload.run(job)[1])) for job in jobs]
    EXPECTED_PATH.write_text(
        json.dumps({"default_seed": inputs.DEFAULT_SEED, "golden": golden, "pinned": pinned},
                   indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {EXPECTED_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
