#!/usr/bin/env bash
# Reproducibility gate, in two parts.
#
# 1. Every golden `tests/goldens/<id>.txt` must equal the stdout of
#    `repro <id>` byte for byte. The experiments are closed forms,
#    brute-force searches and the simulator's exact counters and virtual
#    clocks (no wall timing), so the output is the same under every
#    DISTCONV_THREADS, DISTCONV_SIMD and DISTCONV_BACKEND, and any diff is
#    a real change in the cost model or the schedule, never noise.
# 2. Every block of EXPERIMENTS.md between `<!-- repro <id> -->` and
#    `<!-- /repro -->` must be lines of that id's golden: each line whole,
#    in the golden's order (code-fence lines excepted). The tables the
#    docs show cannot drift from what the code prints.
#
# Regenerate the goldens deliberately, then review the diff, with:
#
#   scripts/repro_check.sh --bless
#
# A new id starts its golden with `target/release/repro <id> >
# tests/goldens/<id>.txt`; a unit test of `repro` pins ids to goldens.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN_DIR=tests/goldens
cargo build --release --offline -q -p distconv-bench --bin repro
repro=target/release/repro

status=0
for golden in "$GOLDEN_DIR"/*.txt; do
    id=$(basename "$golden" .txt)
    if [ "${1:-}" = "--bless" ]; then
        "$repro" "$id" > "$golden"
        echo "blessed $golden"
    elif ! "$repro" "$id" | diff -u "$golden" -; then
        echo "error: repro $id output diverged from $golden" >&2
        status=1
    else
        echo "ok: repro $id matches $golden"
    fi
done

if awk -v dir="$GOLDEN_DIR" '
    function fail(msg) {
        printf "error: EXPERIMENTS.md:%d: %s\n", NR, msg > "/dev/stderr"
        bad = 1
    }
    /^<!-- repro [a-z0-9]+ -->$/ {
        if (id != "") fail("block inside the `" id "` block")
        id = $3; golden = dir "/" id ".txt"; n = 0; at = 0; blocks++
        while ((getline line < golden) > 0) g[++n] = line
        close(golden)
        if (n == 0) fail("block names a missing or empty golden " golden)
        next
    }
    /^<!-- \/repro -->$/ { id = ""; next }
    id == "" || /^```/ || n == 0 { next }
    {
        do at++; while (at <= n && g[at] != $0)
        if (at > n) {
            fail("not a line of " golden " (or out of its order): " $0)
            n = 0
        }
    }
    END {
        if (id != "") fail("unterminated `" id "` block")
        if (!bad) printf "ok: %d EXPERIMENTS.md blocks are lines of their goldens\n", blocks
        exit bad
    }
' EXPERIMENTS.md; then :; else status=1; fi
exit "$status"
