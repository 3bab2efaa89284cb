#!/usr/bin/env bash
# Prints the workspace's public surface, one name per line, from the rustdoc
# HTML that `cargo doc --workspace --no-deps` writes:
#
#   masort_core::job::struct SortJob              an item page (all.html)
#   masort_core::job::struct SortJob::method.run  its inherent methods, fields,
#                                                 variants and trait items
#   masort_core::merge::mod plan                  a module
#   masort_core::pub use job::SortJob;            a module's Re-exports
#
# Trait implementations (`Clone`, `Debug`, blanket `Into`, ...) are left out.
# CI diffs the output against ci/public-surface.golden; regenerate with
#
#   cargo +1.95.0 doc --workspace --no-deps && ci/public-surface.sh > ci/public-surface.golden
#
# Usage: ci/public-surface.sh [DOC_DIR]   (default: target/doc)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
doc=${1:-$root/target/doc}
export LC_ALL=C

# Workspace library crates: the root facade and every crates/* member.
crates=$(for toml in "$root/Cargo.toml" "$root"/crates/*/Cargo.toml; do
    awk -F'"' '/^name *=/ { gsub("-", "_", $2); print $2; exit }' "$toml"
done)

# Members a page lists before its trait-implementation sections.
members() {
    grep -o 'id="[^"]*"' "$1" | awk -F'"' -v p="$2" '
        $2 ~ /^(trait-implementations|synthetic-implementations|blanket-implementations|implementors|foreign-impls)$/ { exit }
        $2 ~ /^(method|tymethod|structfield|variant|associatedconstant|associatedtype)\./ { print p "::" $2 }'
}

# Walks the module tree from the crate root (never a stale page left by an
# earlier build): each module's line, its Re-exports, then its submodules.
modules() {
    local page prefix=$2 m
    page=$(tr '\n' ' ' < "$doc/$crate/${1}index.html")
    sed -n 's/.*<h2 id="reexports"//p' <<< "$page" | sed 's/<h2 .*//' |
        { grep -o '<code>pub use [^;]*;</code>' || true; } | sed "s/<[^>]*>//g; s|^|$prefix::|"
    for m in $(sed -n 's/.*<h2 id="modules"//p' <<< "$page" | sed 's/<h2 .*//' |
        { grep -o '<a class="mod" href="[^"/]*/index.html"' || true; } | sed 's/.*href="//; s|/index.html"||'); do
        echo "$prefix::mod $m"
        modules "$1$m/" "$prefix::$m"
    done
}

for crate in $crates; do
    all=$doc/$crate/all.html
    if [ ! -f "$all" ]; then
        echo "public-surface: $all is missing; run cargo doc --workspace --no-deps" >&2
        exit 1
    fi
    lines=$(
        # Items: `budget/struct.MemoryBudget.html` -> `budget::struct MemoryBudget`.
        grep -o '<li><a href="[^"]*\.html"' "$all" | sed 's/.*href="//; s/"$//' |
            while read -r href; do
                path=$(dirname "$href")
                page=$(basename "$href" .html)
                prefix=$crate
                [ "$path" = . ] || prefix=$crate::${path//\//::}
                item="$prefix::${page%%.*} ${page#*.}"
                echo "$item"
                members "$doc/$crate/$href" "$item"
            done
        modules "" "$crate"
    )
    if [ -z "$lines" ]; then
        echo "public-surface: $crate contributes no lines; has rustdoc's HTML changed?" >&2
        exit 1
    fi
    echo "$lines"
done | sort
