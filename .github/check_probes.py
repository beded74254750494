"""Check that a study passed and that its stability probes ran.

Usage: python3 .github/check_probes.py <out>/summary.json

Prints `passed`, the number of probed levels and alpha_h and beta_h on
each, and exits 1 unless the study passed, at least one level was
probed, and beta_h > 0 and alpha_h > 0 on every probed level, so a
silently skipped probe fails the check.
"""
import json
import sys

summary = json.load(open(sys.argv[1]))
probed = [p for p in summary["probes"] if p["probed"]]
print("passed:", summary["passed"], "probed levels:", len(probed),
      "alpha_h:", [p["alpha_h"] for p in probed],
      "beta_h:", [p["beta_h"] for p in probed])
ok = (summary["passed"] is True and len(probed) > 0
      and all(p["beta_h"] > 0 and p["alpha_h"] > 0 for p in probed))
sys.exit(not ok)
