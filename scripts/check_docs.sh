#!/usr/bin/env bash
# Documentation gate, CLI-flag inventory: every user-facing "--flag"
# string literal parsed by the bench binaries or slambench_cli must
# appear somewhere in the markdown docs (README.md, EXPERIMENTS.md,
# DESIGN.md, docs/*.md). Catches the classic drift where a flag is
# added or renamed in code and the docs keep describing the old
# surface. Pure grep, no dependencies.
#
# Registered as the `check_docs_flags` CTest entry; its sibling
# `check_docs_doxygen` (scripts/check_doxygen.sh) builds the API docs.
set -u

cd "$(dirname "$0")/.."

# Flags are parsed as string literals ("--frames", ...) in the bench
# sources, the CLI example, and the serve binary; single-dash aliases
# (-h) and pass-through google-benchmark flags (--benchmark_*) are
# not ours to document.
flags=$(grep -hoE '"--[a-z][a-z0-9-]*"' \
            bench/*.cpp bench/*.hpp examples/slambench_cli.cpp \
            examples/slambench_serve.cpp \
        | tr -d '"' | grep -v '^--benchmark' | sort -u)

if [ -z "$flags" ]; then
    echo "check_docs: flag extraction found nothing — pattern rotted?" >&2
    exit 1
fi

docs="README.md EXPERIMENTS.md DESIGN.md docs/*.md"
missing=0
for flag in $flags; do
    # Word-boundary match so --tr does not satisfy --trace (nor the
    # reverse); backslash-escape nothing — flags are [a-z0-9-] only.
    if ! grep -qE -- "$flag(\\b|$)" $docs; then
        echo "check_docs: flag $flag is parsed in code but absent" \
             "from the docs ($docs)" >&2
        missing=$((missing + 1))
    fi
done
if [ "$missing" -gt 0 ]; then
    echo "check_docs: $missing undocumented flag(s)" >&2
    exit 1
fi
echo "check_docs: flag inventory clean ($(echo "$flags" | wc -l) flags)"
