"""Record the output digests that digest-checked benchmark queries compare
against.

Run it from the repository root, on the commit whose output is the
reference:

    PYTHONPATH=src python3 bench/record_digests.py

It runs every base query of workloads.digest_queries() with --format json
and no --q, and writes {base argv text: digest} to bench/digests.json.
"""

import json

from checks import DIGESTS_PATH, parse_output, rows_digest, run_cli
from workloads import digest_queries


def main():
    digests = {}
    for base in digest_queries():
        basis, rows = parse_output(
            run_cli(["decompose", *base, "--format", "json"]), "json")
        digests[" ".join(base)] = rows_digest(basis, rows)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")


if __name__ == "__main__":
    main()
