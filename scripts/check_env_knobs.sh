#!/usr/bin/env bash
# Knob guard: every `DISTCONV_*` environment variable the code names
# must be on the allow-list below, so adding a knob is an explicit,
# reviewed edit of this file.
#
# Collects every "DISTCONV_..." string literal under crates/ src/
# tests/ examples/ and fails on any name not listed. Also fails on any
# `std::env::var` read in a library or binary source file (`src/` under
# crates/ or the root) outside the env-reader list, so the number of
# places that read the environment can only fall.
#
# Run from anywhere. Exits non-zero on any unlisted knob or reader.
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

# Source files that may read the environment.
env_readers=(
    crates/par/src/pool.rs
    crates/par/src/proptest_mini.rs
    crates/par/src/provenance.rs
    crates/simnet/src/event.rs
    crates/tensor/src/simd.rs
    crates/bench/src/wallbench.rs
)
# Source files that may read it in their `#[cfg(test)]` module only.
test_env_readers=(
    crates/simnet/src/machine.rs
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

reads=$(grep -rnE --include='*.rs' '\benv::vars?(_os)?\b' crates/*/src src || true)
while IFS=: read -r file line _; do
    [ -n "$file" ] || continue
    if printf '%s\n' "${env_readers[@]}" | grep -qx "$file"; then
        continue
    fi
    if printf '%s\n' "${test_env_readers[@]}" | grep -qx "$file"; then
        test_start=$(grep -n '^#\[cfg(test)\]' "$file" | head -n1 | cut -d: -f1)
        if [ -n "$test_start" ] && [ "$line" -gt "$test_start" ]; then
            continue
        fi
    fi
    echo "error: $file:$line reads the environment outside the env-reader list (see scripts/check_env_knobs.sh)" >&2
    status=1
done <<<"$reads"

if [ "$status" -eq 0 ]; then
    echo "ok: $(echo "$found" | grep -c .) DISTCONV_* knobs, all on the allow-list;" \
        "$(echo "$reads" | grep -c .) env reads, all in listed files"
fi
exit "$status"
