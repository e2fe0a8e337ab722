#!/bin/sh
# Documentation hygiene gate, run by the CI docs job:
#
#   1. gofmt -l is empty (formatting is documentation too),
#   2. every package in the module has a package comment,
#   3. `go doc` renders every package without error,
#   4. every relative link in the markdown docs points at a file that
#      exists, and so does every backticked repository path,
#   5. every comb command line the docs show names a live subcommand.
#
# Stdlib + POSIX sh only; exits nonzero on the first failing section.
set -e
cd "$(dirname "$0")/.."

fail=0

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    fail=1
fi

echo "==> package comments"
# Synopsis is empty exactly when the package has no doc comment.
missing=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./...)
if [ -n "$missing" ]; then
    echo "packages without a package comment:"
    echo "$missing"
    fail=1
fi

echo "==> go doc renders"
for pkg in $(go list ./...); do
    if ! go doc "$pkg" >/dev/null 2>&1; then
        echo "go doc $pkg failed"
        fail=1
    fi
done

echo "==> method docs"
# Every built-in benchmark method must be documented in the extension
# guide (the registry makes adding one cheap; documenting it stays part
# of the contract).
for m in polling pww pingpong netperf collov halo; do
    if ! grep -q "$m" docs/EXTENDING.md; then
        echo "docs/EXTENDING.md does not mention method: $m"
        fail=1
    fi
done

echo "==> docs/ file references"
# Any mention of a docs/<name>.md file — markdown prose, Go doc
# comments, CLI usage strings, scripts — must name a file that exists.
# The markdown link check below only sees [text](target) links; this
# catches the bare "see docs/<name>.md" form too, so a doc rename or
# deletion that leaves references behind fails here.  A leading
# non-path character keeps external paths (vendor/docs/x.md) out.
for ref in $(grep -rhoE '(^|[^/A-Za-z0-9_.-])docs/[A-Za-z0-9_.-]+\.md' \
    --include='*.go' --include='*.md' --include='*.sh' . |
    sed 's/^[^d]//' | sort -u); do
    if [ ! -f "$ref" ]; then
        echo "reference to nonexistent $ref"
        fail=1
    fi
done

echo "==> markdown relative links"
for md in *.md docs/*.md; do
    [ -f "$md" ] || continue
    dir=$(dirname "$md")
    # Inline links only: [text](target). Skip URLs and pure anchors.
    # Fenced code blocks and inline code spans are stripped first: Go
    # index/generic syntax (`DecodeJSON[T](b)`) otherwise reads as a link.
    for target in $(sed '/^```/,/^```/d; s/`[^`]*`//g' "$md" | grep -o '](\([^)]*\))' |
        sed 's/^](//; s/)$//; s/#.*//' |
        grep -v '^$' | grep -v '^[a-z+]*://' | sort -u); do
        if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
            echo "$md: broken relative link: $target"
            fail=1
        fi
    done
done

echo "==> markdown package paths"
# Every backticked path under internal/, cmd/, examples/, scripts/,
# perfbench/ or testdata/ must exist, so a package move or deletion that
# leaves docs behind fails here.  The change log and the work plan name
# paths from before a move and are skipped.  Before the lookup a ref loses
# a :line suffix and a trailing .Symbol (internal/sweep.RunCurve names
# internal/sweep), an ALL-CAPS placeholder element
# (testdata/scenarios/NAME.json) is checked by its directory, and {a,b}
# alternatives are checked one by one.
for md in *.md docs/*.md; do
    case $md in CHANGES.md | ISSUE.md) continue ;; esac
    for ref in $(sed '/^```/,/^```/d' "$md" | grep -o '`[^` ]*`' | tr -d '`' |
        grep -E '^(\./)?(internal|cmd|examples|scripts|perfbench|testdata)/' |
        sed -E 's#^\./##; s#:[0-9]+$##; s#\.[A-Z][A-Za-z0-9_]*$##; s#/[A-Z][A-Z0-9_]*(\.[a-z]+)?(/.*)?$##' |
        sort -u); do
        pre=${ref%%\{*}
        alts=$ref
        post=
        if [ "$pre" != "$ref" ]; then
            rest=${ref#*\{}
            alts=$(echo "${rest%%\}*}" | tr ',' ' ')
            post=${rest#*\}}
        else
            pre=
        fi
        for alt in $alts; do
            if [ ! -e "$pre$alt$post" ]; then
                echo "$md: reference to nonexistent $pre$alt$post"
                fail=1
            fi
        done
    done
done

echo "==> CLI references"
# Every `comb X`, ./comb X, cmd/comb X and /tmp/comb X in the docs that
# describe the CLI and in the verify skill must name a subcommand that
# `comb help` lists, so a removed or renamed subcommand that leaves docs
# behind fails here.  The change log names subcommands from before a
# removal and is not checked.
subcommands=$(go run ./cmd/comb help 2>&1 |
    awk '/^subcommands:/ { on = 1; next } on && NF == 0 { exit } on { print $1 }')
if [ -z "$subcommands" ]; then
    echo "comb help listed no subcommands"
    fail=1
fi
for md in README.md DESIGN.md EXPERIMENTS.md REPORT.md ROADMAP.md docs/*.md \
    .claude/skills/verify/SKILL.md; do
    [ -f "$md" ] || continue
    for word in $(grep -oE '(`comb|\./comb|cmd/comb|/tmp/comb) [a-z][a-z-]*' "$md" |
        awk '{ print $2 }' | sort -u); do
        if ! echo "$subcommands" | grep -qx "$word"; then
            echo "$md: reference to unknown subcommand: comb $word"
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "doccheck: FAIL"
    exit 1
fi
echo "doccheck: OK"
