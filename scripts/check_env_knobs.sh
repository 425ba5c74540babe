#!/usr/bin/env bash
# Knob guard: every `DISTCONV_*` environment variable the code names
# must be on the allow-list below, so adding a knob is an explicit,
# reviewed edit of this file.
#
# Collects every "DISTCONV_..." string literal under crates/ src/
# tests/ examples/ and fails on any name not listed.
#
# Run from anywhere. Exits non-zero on any unlisted knob.
set -euo pipefail
cd "$(dirname "$0")/.."

allowed=(
    DISTCONV_THREADS
    DISTCONV_COMM
    DISTCONV_LOCAL_KERNEL
    DISTCONV_BACKEND
    DISTCONV_SIMD
    DISTCONV_PROPTEST_SEED
    DISTCONV_PROPTEST_CASES
    DISTCONV_BENCH_QUICK
    DISTCONV_BENCH_BATCHES
    DISTCONV_BENCH_MIN_MS
)

found=$(grep -rhoE --include='*.rs' '"DISTCONV_[A-Z0-9_]*"' crates src tests examples |
    tr -d '"' | sort -u)

status=0
for knob in $found; do
    if ! printf '%s\n' "${allowed[@]}" | grep -qx "$knob"; then
        echo "error: $knob is not an allowed DISTCONV_* knob (see scripts/check_env_knobs.sh)" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "ok: $(echo "$found" | grep -c .) DISTCONV_* knobs, all on the allow-list"
fi
exit "$status"
