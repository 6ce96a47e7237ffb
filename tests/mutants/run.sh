#!/usr/bin/env bash
# Re-run the committed mutants: each tests/mutants/*.patch breaks the program
# on purpose and names, in its header, the test targets to build and the
# ctest regexes that must each select at least one test and fail on it.
#
#   tests/mutants/run.sh [work-dir] [patch...]
#
# Per patch: copy the tree (tracked plus untracked, unignored files) into
# work-dir/<patch name>, `git apply` the patch there, configure and build only
# the named targets, and run `ctest -R` once per regex. Exits 1 when a mutant
# survives (some regex's tests all pass) and 2 when a patch no longer applies,
# builds, or names a test that exists. JOBS (default 4) sets the build's
# parallelism. work-dir defaults to a fresh mktemp -d.
#
# Patch header (free text before the first `diff --git`, which git apply
# skips):
#   Targets: test_sweep test_frontier
#   Kills: ^Sweep\.RandomizedFlagCombosMatchSerial$
#   Kills: ^ReadyFrontier\.RevisionMovesOnEveryCommitAndJoin$
set -u

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel) || exit 2
work=${1:-$(mktemp -d)}
shift $(( $# > 0 ? 1 : 0 ))
patches=("$@")
if [ ${#patches[@]} -eq 0 ]; then
  patches=("$root"/tests/mutants/*.patch)
fi
jobs=${JOBS:-4}
mkdir -p "$work"

survived=0
broken=0
for patch in "${patches[@]}"; do
  patch=$(realpath "$patch")
  name=$(basename "$patch" .patch)
  tree="$work/$name"
  echo "== mutant $name"
  targets=$(sed -n '/^diff --git/q; s/^Targets: *//p' "$patch" | tr '\n' ' ')
  mapfile -t kills < <(sed -n '/^diff --git/q; s/^Kills: *//p' "$patch")
  if [ -z "$targets" ] || [ ${#kills[@]} -eq 0 ]; then
    echo "   $name: header names no Targets or no Kills"
    broken=1
    continue
  fi

  rm -rf "$tree"
  mkdir -p "$tree"
  git -C "$root" ls-files -co --exclude-standard -z |
    tar -C "$root" --null -T - -cf - | tar -C "$tree" -xf -
  if ! git -C "$tree" apply "$patch"; then
    echo "   $name: patch does not apply"
    broken=1
    continue
  fi
  # shellcheck disable=SC2086  # targets is a word list
  if ! { cmake -S "$tree" -B "$tree/build" >"$tree/build.log" 2>&1 &&
         cmake --build "$tree/build" -j "$jobs" --target $targets >>"$tree/build.log" 2>&1; }; then
    echo "   $name: build failed (see $tree/build.log)"
    broken=1
    continue
  fi

  for regex in "${kills[@]}"; do
    selected=$(cd "$tree/build" && ctest -N -R "$regex" | sed -n 's/^Total Tests: *//p')
    if [ "${selected:-0}" -eq 0 ]; then
      echo "   $name: no test matches $regex"
      broken=1
    elif (cd "$tree/build" && ctest -R "$regex" >>"$tree/ctest.log" 2>&1); then
      echo "   SURVIVED: $regex ($selected tests pass)"
      survived=1
    else
      echo "   killed: $regex"
    fi
  done
done

if [ "$broken" -ne 0 ]; then exit 2; fi
exit "$survived"
