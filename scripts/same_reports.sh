#!/bin/sh
# Check that two checkouts print the same reports, byte for byte.
#
#     scripts/same_reports.sh OLD NEW
#
# OLD and NEW are source trees of this repository (for example a
# `git archive` of the parent commit and the working tree). Each is built
# with the release profile into a build directory of its own, then both
# binaries run, for every target that `pbse_cli targets` lists:
#
#     run T --hours 1
#     run T --pool --hours 0.25
#     run T --hours 1 --inject seed=7,solver=0.2,abort=0.1,mem=0.05
#
# each with --report. Stdout (with the "report written to" path masked)
# and the report JSON of each run are compared with cmp. Prints one line
# per differing file; exits 0 when every file is identical, 1 otherwise,
# 2 on a usage or build error. Set KEEP=1 to keep the outputs (their
# directory is printed).
set -eu

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: $0 OLD NEW (two source trees)" >&2
  exit 2
fi
old=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)
work=$(mktemp -d)
if [ "${KEEP:-0}" = 1 ]; then
  echo "outputs in $work"
else
  trap 'rm -rf "$work"' EXIT
fi

for side in old new; do
  if [ "$side" = old ]; then src=$old; else src=$new; fi
  dune build --root "$src" --build-dir "$work/build-$side" --profile release \
    ./bin/pbse_cli.exe 2> "$work/build-$side.log" || {
    cat "$work/build-$side.log" >&2
    echo "build of $src failed" >&2
    exit 2
  }
done

targets=$("$work/build-new/default/bin/pbse_cli.exe" targets |
  awk -F'|' 'NR > 2 { gsub(/ /, "", $2); print $2 }')

inject="seed=7,solver=0.2,abort=0.1,mem=0.05"
differ=0
files=0
for t in $targets; do
  for run in plain pool inject; do
    case $run in
      plain) set -- run "$t" --hours 1 ;;
      pool) set -- run "$t" --pool --hours 0.25 ;;
      inject) set -- run "$t" --hours 1 --inject "$inject" ;;
    esac
    for side in old new; do
      out="$work/$side/$t-$run"
      mkdir -p "$work/$side"
      if ! "$work/build-$side/default/bin/pbse_cli.exe" "$@" --report "$out.json" \
        > "$out.raw"; then
        echo "failed: $side $*"
        differ=1
      fi
      sed 's|report written to .*|report written to <report>|' "$out.raw" > "$out.txt"
    done
    for ext in txt json; do
      files=$((files + 1))
      if ! cmp -s "$work/old/$t-$run.$ext" "$work/new/$t-$run.$ext"; then
        echo "differs: $t $run ($ext)"
        differ=1
      fi
    done
  done
done

if [ "$differ" = 0 ]; then
  echo "all $files files identical"
fi
exit "$differ"
