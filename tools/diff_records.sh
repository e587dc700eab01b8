#!/usr/bin/env bash
# Compare two JSON-Lines sweep-record files modulo host wall time.
#
#   tools/diff_records.sh [--strip-exec] A.json B.json
#
# Every "wall_ms" value (measured host time, different on every run) is
# removed from both files before they are diffed. --strip-exec also
# removes the ,"exec":"..." tag that only parallel-engine records carry,
# for serial-vs-parallel comparisons.
#
# Exit status: 0 identical, 1 different (the diff is printed), 2 usage
# error or unreadable input.
set -euo pipefail

strip='s/"wall_ms":[0-9.]*//'
if [ "${1:-}" = "--strip-exec" ]; then
    strip="$strip"';s/,"exec":"[^"]*"//'
    shift
fi
if [ $# -ne 2 ]; then
    echo "usage: $0 [--strip-exec] A.json B.json" >&2
    exit 2
fi
for f in "$1" "$2"; do
    if [ ! -r "$f" ]; then
        echo "$0: cannot read '$f'" >&2
        exit 2
    fi
done
diff <(sed "$strip" "$1") <(sed "$strip" "$2")
