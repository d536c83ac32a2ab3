#!/usr/bin/env bash
# Non-test Rust line count per crate: every line of `crates/*/src/**/*.rs`
# up to a file's first `#[cfg(test)]` (unit-test modules sit at the end of
# a file in this workspace). `tests/`, `benches/` and `examples/` are not
# counted. ROADMAP counts net-negative line counts as a success metric;
# this is the ruler, so a PR that claims a reduction quotes this table
# before and after.
#
# Usage: scripts/loc.sh [--markdown] [path ...]
#   no paths    one row per crate under crates/, plus src/ and a total
#   path ...    one row per path (a file or a directory), plus a total
#   --markdown  a GitHub-flavoured table (for $GITHUB_STEP_SUMMARY)

set -euo pipefail
cd "$(dirname "$0")/.."

markdown=0
if [ "${1:-}" = "--markdown" ]; then
    markdown=1
    shift
fi

count() {
    find "$@" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}'
}

if [ "$#" -gt 0 ]; then
    rows=("$@")
else
    rows=()
    for dir in crates/*/; do
        rows+=("${dir}src")
    done
    rows+=(src)
fi

if [ "$markdown" = 1 ]; then
    echo "| path | non-test lines |"
    echo "|---|---:|"
fi
total=0
for row in "${rows[@]}" total; do
    if [ "$row" = total ]; then
        n=$total
    else
        n=$(count "$row")
        total=$((total + n))
    fi
    if [ "$markdown" = 1 ]; then
        echo "| \`$row\` | $n |"
    else
        printf '%-28s %7d\n' "$row" "$n"
    fi
done
