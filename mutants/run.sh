#!/usr/bin/env bash
# Runs the committed mutation suite listed in mutants/manifest.txt.
#
# The working tree (tracked and untracked files, ignored ones left
# out) is copied to a temporary directory with its own target
# directory. Every named test must first pass there unmutated. Then,
# for each mutant, the runner applies its patch, builds the named test
# target, runs only the named test, and reverts the patch.
#
# Exits 1 when a patch no longer applies, a mutant does not build (an
# error, not a kill), a named test fails unmutated or matches no test,
# or a mutant survives (its test still passes).
#
# usage: mutants/run.sh [PATCH...]    (default: every manifest entry)
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
work=$(mktemp -d "${TMPDIR:-/tmp}/cryowire-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
tree="$work/tree"
log="$work/log"
mkdir "$tree"
export CARGO_TARGET_DIR="$work/target"

(cd "$root" && git ls-files -z --cached --others --exclude-standard) |
    (cd "$root" && tar --null --ignore-failed-read -T - -cf -) |
    tar -xf - -C "$tree"
cd "$tree"

entries=()
while read -r patch pkg target test; do
    case "$patch" in '' | '#'*) continue ;; esac
    if [ $# -gt 0 ] && ! printf '%s\n' "$@" | grep -qxF "$patch"; then
        continue
    fi
    entries+=("$patch $pkg $target $test")
done <"$here/manifest.txt"
if [ ${#entries[@]} -eq 0 ]; then
    echo "mutants: no manifest entry selected" >&2
    exit 1
fi

# cargo arguments selecting a package's test target.
target_args() {
    if [ "$2" = lib ]; then
        echo "-p $1 --lib"
    else
        echo "-p $1 --test $2"
    fi
}

# Builds a test target; output goes to the log.
build() {
    # shellcheck disable=SC2046
    cargo test --offline -q --no-run $(target_args "$1" "$2") >"$log" 2>&1
}

# Runs exactly one test; its output goes to the log. Succeeds when the
# test ran and passed.
run_test() {
    # shellcheck disable=SC2046
    timeout 1800 cargo test --offline -q $(target_args "$1" "$2") -- --exact "$3" >"$log" 2>&1 &&
        grep -q 'test result: ok. 1 passed' "$log"
}

status=0
declare -A checked
for entry in "${entries[@]}"; do
    read -r patch pkg target test <<<"$entry"
    [ -n "${checked["$pkg $target $test"]:-}" ] && continue
    checked["$pkg $target $test"]=1
    if ! build "$pkg" "$target"; then
        echo "ERROR     $pkg $target does not build unmutated"
        tail -n 30 "$log"
        exit 1
    fi
    if ! run_test "$pkg" "$target" "$test"; then
        echo "ERROR     $pkg $target $test does not pass unmutated (or names no test)"
        tail -n 30 "$log"
        status=1
    fi
done
[ $status -eq 0 ] || exit 1

killed=0
for entry in "${entries[@]}"; do
    read -r patch pkg target test <<<"$entry"
    if ! git apply --check "$here/$patch" 2>"$log"; then
        echo "ERROR     $patch no longer applies"
        cat "$log"
        status=1
        continue
    fi
    git apply "$here/$patch"
    if ! build "$pkg" "$target"; then
        echo "ERROR     $patch does not build"
        tail -n 30 "$log"
        status=1
    elif run_test "$pkg" "$target" "$test"; then
        echo "SURVIVED  $patch: $test still passes"
        status=1
    else
        echo "killed    $patch by $test"
        killed=$((killed + 1))
    fi
    git apply -R "$here/$patch"
done
echo "mutants: $killed of ${#entries[@]} killed"
exit $status
